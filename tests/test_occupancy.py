import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from homrisk import (
    CouponQuery,
    Hypothesis,
    build_pack,
    coupon_limit,
    empty_count_distribution,
    exact_lrt_risk,
    occupancy,
    prob_all_occupied,
    sample,
    sample_assignments,
    summarize,
    threshold_sample_size,
)


def test_oracle_routes_agree_with_each_other():
    # composition-multinomial law vs literal enumeration of all sequences
    for m in range(1, 5):
        for n in range(0, 6):
            assert oracles.empty_count_law(m, n) == oracles.empty_count_law_literal(m, n)


def test_law_matches_exact_oracle_small():
    for m in range(1, 5):
        for n in range(0, 9):
            law = empty_count_distribution(m, n)
            ref = oracles.empty_count_law(m, n)
            for k in range(m + 1):
                assert abs(law.prob(k) - float(ref[k])) <= 1e-12, (m, n, k)
            assert abs(prob_all_occupied(m, n) - float(ref[0])) <= 1e-12, (m, n)


def _assert_law_is_exactly_rounded(m, n):
    numer = oracles.empty_count_numerators(m, n)
    denom = m**n
    law = empty_count_distribution(m, n)
    assert law.probs.tolist() == [c / denom for c in numer], (m, n)
    assert prob_all_occupied(m, n) == numer[0] / denom, (m, n)


@pytest.mark.parametrize("m, n", [(64, 311), (63, 311), (256, 1500), (512, 400)])
def test_exact_route_matches_integer_throw_recurrence(m, n):
    # every probability on the exact route is the correctly rounded ratio
    _assert_law_is_exactly_rounded(m, n)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=1, max_value=40), n=st.integers(min_value=0, max_value=150))
def test_exact_route_matches_integer_throw_recurrence_small(m, n):
    _assert_law_is_exactly_rounded(m, n)


def test_all_occupied_frozen_values():
    assert prob_all_occupied(2, 2) == 0.5
    assert prob_all_occupied(3, 3) == float(Fraction(2, 9))
    # 126000 of the 5**8 assignments of 8 draws cover all 5 bins
    assert prob_all_occupied(5, 8) == float(Fraction(126000, 5**8))
    assert prob_all_occupied(5, 8) == 0.32256


def test_all_occupied_structural_zero_below_bin_count():
    assert prob_all_occupied(4, 3) == 0.0
    assert prob_all_occupied(100, 99) == 0.0
    assert prob_all_occupied(1, 0) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        prob_all_occupied(0, 5)
    with pytest.raises(ValueError):
        prob_all_occupied(3, -1)
    with pytest.raises(ValueError):
        empty_count_distribution(0, 0)
    with pytest.raises(ValueError):
        empty_count_distribution(3, 1).prob(4)
    with pytest.raises(ValueError):
        threshold_sample_size(0, 0.5)
    with pytest.raises(ValueError):
        threshold_sample_size(4, 0.0)
    with pytest.raises(ValueError):
        threshold_sample_size(4, 1.5)


def test_recurrence_beyond_work_limit_fails_fast():
    # 10**13 bin updates would run about 16 hours; 2**15 * (2**15 + 1) is just over the limit
    for call, m, n in (
        (prob_all_occupied, 10**6, 10**7),
        (exact_lrt_risk, 10**6, 10**7),
        (prob_all_occupied, 2**15, 2**15 + 1),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above the limit of 1073741824"):
            call(m, n)
        assert time.perf_counter() - start < 1.0


def test_distribution_shape_and_support():
    law = empty_count_distribution(2, 2)
    assert law.prob(0) == 0.5 and law.prob(1) == 0.5 and law.prob(2) == 0.0
    # no draws: every bin is empty
    law0 = empty_count_distribution(3, 0)
    assert law0.prob(3) == 1.0 and law0.prob(0) == 0.0
    # one bin: a single draw fills it
    assert empty_count_distribution(1, 1).prob(0) == 1.0
    # with n >= 1 some bin is hit, and at most n can be
    law = empty_count_distribution(6, 2)
    assert law.prob(6) == 0.0
    assert law.prob(0) == 0.0 and law.prob(3) == 0.0  # fewer than m-n=4 empty impossible
    assert law.prob(4) > 0 and law.prob(5) > 0


def test_mass_sums_to_one_across_routes():
    # exact-integer, log-series and recurrence parameter ranges
    cases = [
        (2, 2),
        (5, 8),
        (64, 18),
        (64, 311),
        (512, 400),
        (600, 900),      # recurrence: n below the collection threshold
        (1024, 2048),    # recurrence: the cancellation-prone corner
        (1024, 7200),    # log series
        (4096, 36909),   # log series at the largest contract size
    ]
    for m, n in cases:
        law = empty_count_distribution(m, n)
        assert abs(math.fsum(law.probs.tolist()) - 1.0) <= 1e-9, (m, n)
        assert np.all(law.probs >= 0.0)


def test_all_occupied_equals_law_at_zero():
    for m, n in [(5, 8), (64, 311), (600, 900), (1024, 2048), (1024, 7200), (4096, 36909)]:
        law = empty_count_distribution(m, n)
        assert prob_all_occupied(m, n) == law.prob(0), (m, n)


def _log_route_entries(m, n):
    # every k through the route's own term sum, no window
    lf = occupancy._log_factorials(m)
    with np.errstate(divide="ignore"):
        log_pow = n * (np.log(np.arange(m + 1.0)) - math.log(m))
    return np.array([occupancy._empty_exactly_log(lf, log_pow, m, k) for k in range(m + 1)])


@pytest.mark.parametrize("m, n", [(4096, 36909), (1000, 7601)])
def test_log_route_window_drops_only_exact_zeros(m, n):
    assert empty_count_distribution(m, n).probs.tobytes() == _log_route_entries(m, n).tobytes()


def test_log_route_sums_only_its_window(monkeypatch):
    summed = []
    term_sum = occupancy._empty_exactly_log
    monkeypatch.setattr(occupancy, "_empty_exactly_log", lambda *args: summed.append(args[3]) or term_sum(*args))
    law = empty_count_distribution(4096, 36909)
    nonzero = np.flatnonzero(law.probs).tolist()
    assert set(nonzero) <= set(summed)
    # 156 of the 4096 support entries, 152 of them non-zero
    assert len(summed) <= len(nonzero) + 8


def test_series_and_recurrence_routes_agree():
    # straddle the route switch at the collection threshold n = m ln m
    m = 600
    boundary = math.ceil(m * math.log(m))
    below = empty_count_distribution(m, boundary - 2)  # recurrence
    above = empty_count_distribution(m, boundary)      # log series
    # the two routes share no code; compare each against the other's
    # neighbour through the monotone miss probability
    miss_below = 1.0 - below.prob(0)
    miss_above = 1.0 - above.prob(0)
    assert miss_above <= miss_below
    assert miss_below - miss_above <= 1e-2


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=0, max_value=120),
)
def test_miss_probability_monotone_in_draws(m, n):
    # more draws can only help coverage; exact route makes this sharp
    miss_now = 1.0 - prob_all_occupied(m, n)
    miss_next = 1.0 - prob_all_occupied(m, n + 1)
    assert miss_next <= miss_now


def test_coupon_limit_values():
    assert coupon_limit(0.0) == -math.expm1(-1.0)
    assert coupon_limit(math.log(0.5)) == pytest.approx(0.3934693402873666, rel=1e-12)
    assert coupon_limit(-50.0) <= math.exp(-50.0) * 1.01
    assert coupon_limit(-math.inf) == 0.0
    assert coupon_limit(800.0) == 1.0


def test_threshold_sample_size_values():
    assert threshold_sample_size(1, 1.0) == 0
    assert threshold_sample_size(2, 0.5) == 3
    assert threshold_sample_size(64, 0.5) == 311
    assert threshold_sample_size(10**4, 0.5) == 99035
    assert threshold_sample_size(100, 1.0) == 461


def test_coupon_query_wiring():
    q = CouponQuery(64, 0.5)
    assert q.c == math.log(0.5)
    assert q.c <= 0.0
    assert q.sample_size == 311
    assert q.limit_miss_probability == coupon_limit(q.c)
    with pytest.raises(ValueError):
        CouponQuery(0, 0.5)
    with pytest.raises(ValueError):
        CouponQuery(4, 0.0)
    with pytest.raises(ValueError):
        CouponQuery(4, 1.5)
    with pytest.raises(TypeError):
        CouponQuery(64, 0.5, c=3.0)  # c is derived from delta, never passed


def test_summarize_counts():
    pack = build_pack(1, 2, 1 / 16)
    empty = summarize(pack, sample(pack, Hypothesis.null(), 0, seed=1))
    assert np.all(empty.counts == 0)
    assert empty.empty_count == 4
    drawn = summarize(pack, sample(pack, Hypothesis.null(), 500, seed=1))
    assert drawn.counts.sum() == 500
    deleted = summarize(pack, sample(pack, Hypothesis.alternate(3), 200, seed=2))
    assert deleted.counts[2] == 0
    assert deleted.empty_count >= 1


def test_miss_frequency_matches_law_at_contract_point():
    # 1e5 seeded trials of the miss event {some sphere empty} at (64, 311)
    pack = build_pack(1, 2, 1 / 256)
    assert pack.count == 64
    m, n, trials = 64, 311, 100_000
    exact_miss = 1.0 - prob_all_occupied(m, n)
    hits = 0
    for t in range(trials):
        chosen = sample_assignments(pack, Hypothesis.null(), n, seed=t)
        hits += int(np.unique(chosen).size < m)
    freq = hits / trials
    se = math.sqrt(exact_miss * (1.0 - exact_miss) / trials)
    assert abs(freq - exact_miss) <= 4 * se, (freq, exact_miss, se)


def test_miss_probability_near_limit_at_collection_threshold():
    # n = ceil(m ln m): the finite-m miss probability sits beside the
    # limit value 1 - exp(-1) already at moderate m
    limit = -math.expm1(-1.0)
    for m in (100, 1000, 10**4):
        n = math.ceil(m * math.log(m))
        dev = abs((1.0 - prob_all_occupied(m, n)) - limit)
        assert dev <= 0.02, (m, dev)
    # by m = 10^4 the gap is measured in millionths
    n = math.ceil(10**4 * math.log(10**4))
    assert abs((1.0 - prob_all_occupied(10**4, n)) - limit) <= 1e-4
