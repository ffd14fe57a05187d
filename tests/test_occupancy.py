import itertools
import math
import time
import tracemalloc
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
    lrt,
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


def _assert_law_is_exactly_rounded(m, n, numerators=oracles.empty_count_numerators):
    numer = numerators(m, n)
    denom = m**n
    law = empty_count_distribution(m, n)
    assert law.probs.tobytes() == np.array([c / denom for c in numer]).tobytes(), (m, n)
    assert prob_all_occupied(m, n) == numer[0] / denom, (m, n)


@pytest.mark.parametrize(
    "m, n",
    [(64, 311), (63, 311), (256, 1500), (512, 400)]
    # one bin, two bins, and as many draws as bins, where P(K = 0) = m!/m**m
    + [(1, 1), (1, 9), (2, 1), (2, 2), (2, 11), (64, 64), (256, 256)],
)
def test_exact_route_matches_integer_throw_recurrence(m, n):
    # every probability on the exact route is the correctly rounded ratio; prob_all_occupied
    # sums its one entry without the difference table that the full law reads
    _assert_law_is_exactly_rounded(m, n)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=1, max_value=40), n=st.integers(min_value=0, max_value=150))
def test_exact_route_matches_integer_throw_recurrence_small(m, n):
    _assert_law_is_exactly_rounded(m, n)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=1, max_value=200), extra=st.integers(min_value=0, max_value=200))
def test_certified_sums_match_integer_throw_recurrence_past_the_threshold(m, extra):
    # from the first tame size on, each entry is summed only until its float is certain; the oracle
    # steps m*n integer products, about 0.3 s at m = 200
    n = _first_tame_size(m) + extra
    assert occupancy._route(m, n) == "exact" and occupancy._series_is_tame(m, n)
    _assert_law_is_exactly_rounded(m, n)


@pytest.mark.parametrize(
    "m, n",
    # either side of the first tame size at m = 512: the table below it, the certified sums from it on,
    # and the exact route's largest size, m * n just under its work limit
    [(512, 3190), (512, 3191), (512, 3900)],
)
def test_certified_sums_match_the_difference_table_at_the_corners(m, n):
    assert occupancy._series_is_tame(m, n) == (n > 3190) and m * n <= occupancy._EXACT_WORK
    _assert_law_is_exactly_rounded(m, n, oracles.empty_count_numerators_by_differences)


@pytest.mark.parametrize("m, n", [(512, 600), (100, 100), (256, 256)])
def test_all_occupied_is_exact_where_the_series_is_not_tame(m, n):
    # lam = m(1 - 1/m)**n is about 158, 37 and 94 here: the terms grow before they fall, and the
    # alternating sum cancels to a value far below its largest term
    assert not occupancy._series_is_tame(m, n)
    assert prob_all_occupied(m, n) == oracles.empty_count_numerators(m, n)[0] / m**n


def test_certified_sums_hold_no_difference_table():
    # the table of m + 1 powers of about 35 000 bits traced 4.07 MB for the law at (512, 3900), and
    # the m + 1 powers alone 2.07 MB for P(K = 0)
    for call, limit in ((empty_count_distribution, 1_500_000), (prob_all_occupied, 500_000)):
        tracemalloc.start()
        try:
            call(512, 3900)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (call.__name__, peak)


def test_one_bin_past_the_exact_work_limit():
    # past m * n = 2 * 10**6 the router asks whether the series is tame, and one bin, which every draw
    # fills, has rate 0; the ratio test at m = 2 asks the router where its 1-bin deletion law goes
    assert occupancy._route(1, 3_000_000) == "log"
    assert prob_all_occupied(1, 3_000_000) == 1.0
    assert empty_count_distribution(1, 2_000_001).probs.tolist() == [1.0, 0.0]
    # two bins: K = 1 with probability 2 * 2**-n, which underflows to 0.0, and a deletion always rejects
    n = 3_000_000
    report = exact_lrt_risk(2, n)
    assert report.k_threshold == 2 * 0.5**n == 0.0
    assert (report.type_I, report.type_II, report.total) == (2.0 ** (1 - n), 0.0, 0.0)


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
    # 10**13 bin updates would step 10**7 times, for minutes; 2**15 * (2**15 + 1) is just over the limit
    for call, m, n in (
        (prob_all_occupied, 10**6, 10**7),
        (exact_lrt_risk, 10**6, 10**7),
        (prob_all_occupied, 2**15, 2**15 + 1),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above the limit of 1073741824"):
            call(m, n)
        assert time.perf_counter() - start < 1.0


TINY = np.finfo(float).tiny


def _assert_band_matches_full_recurrence(m, n, law, full, deleted, full_deleted):
    # the band flushes only entries below the smallest normal float, so the law
    # moves only far below 1e-280 and keeps no subnormal; (2m + n) tiny bounds the
    # move in exact arithmetic and holds at these sizes, though a one-ulp flip of a
    # neighbour can pass it in floats (an entry of 7.1e-288 at (2000, 5833))
    got, ref = law(n), full(n)
    big = ref >= 1e-280
    assert got[big].tobytes() == ref[big].tobytes(), (m, n)
    assert np.all(got[~big] < 1e-280), (m, n)
    assert np.abs(got - ref).sum() <= (2 * m + n) * TINY, (m, n)
    assert not np.any((got > 0.0) & (got < TINY)), (m, n)
    if m > 1:
        t = lrt._k_threshold(m, n)
        assert lrt._tails(t, got, deleted(n)) == lrt._tails(t, ref, full_deleted(n)), (m, n)


@pytest.mark.parametrize("m, n", [(2000, 10000), (1999, 10000), (5000, 20000), (64, 345), (513, 1850)])
def test_banded_recurrence_matches_full_recurrence(m, n):
    _assert_band_matches_full_recurrence(
        m, n, occupancy._recurrence(m), oracles.full_throw_recurrence(m),
        occupancy._recurrence(m - 1), oracles.full_throw_recurrence(m - 1),
    )


def test_banded_recurrence_matches_full_recurrence_at_every_size_for_small_bins():
    # one stepper per m, asked for every n up to 3 m ln m in turn
    for m in range(2, 8):
        laws = occupancy._recurrence(m), oracles.full_throw_recurrence(m)
        deleted = occupancy._recurrence(m - 1), oracles.full_throw_recurrence(m - 1)
        for n in range(int(3 * m * math.log(m)) + 1):
            _assert_band_matches_full_recurrence(m, n, *laws, *deleted)


def test_recurrence_route_golden_values():
    # float hex of the recurrence route as the full-array stepper printed it
    assert prob_all_occupied(2000, 10000).hex() == "0x1.2138e43695c03p-20"
    assert prob_all_occupied(1999, 10000).hex() == "0x1.2d91c3a818a76p-20"
    for (m, n), type_i, type_ii, total in (
        ((2000, 10000), "0x1.e9c665e19d1b2p-2", "0x1.a8c583698bfa9p-2", "0x1.c945f4a5948aep-1"),
        ((1999, 10000), "0x1.e52ba3a0058f7p-2", "0x1.ad3a4d1eedc97p-2", "0x1.c932f85f79ac7p-1"),
    ):
        report = exact_lrt_risk(m, n)
        assert (report.type_I.hex(), report.type_II.hex(), report.total.hex()) == (type_i, type_ii, total)


def test_recurrence_steps_a_narrow_band():
    # at (2000, 10000) the full state holds 1000 non-zero entries, 719 of them subnormal;
    # on the way there both ends of the band shed theirs
    law = occupancy._recurrence(2000)
    for n in range(500, 10001, 500):
        probs = law(n)
        assert not np.any((probs > 0.0) & (probs < TINY)), n
    assert np.count_nonzero(probs) < 400
    assert np.count_nonzero(oracles.full_throw_recurrence(2000)(10000)) == 1000
    # each call returns a fresh full-length array, which later steps leave alone
    kept = probs.copy()
    assert law(10000) is not probs and law(10001).shape == (2001,)
    assert probs.tobytes() == kept.tobytes()


def _assert_pair_rows(m, n, rows, alone, full):
    # each row of the pair is the one-row stepper's law byte for byte, and the
    # full-state law's wherever that reaches 1e-280
    assert len(rows) == len(alone) == len(full)
    for bins, got, single, reference in zip((m, m - 1), rows, alone, full):
        expected, ref = single(n), reference(n)
        assert got.shape == (bins + 1,), (m, n)
        assert got.tobytes() == expected.tobytes(), (m, n, bins)
        big = ref >= 1e-280
        assert got[big].tobytes() == ref[big].tobytes(), (m, n, bins)
        assert np.all(got[~big] < 1e-280), (m, n, bins)


def _one_row_and_full(m):
    return (occupancy._recurrence(m), occupancy._recurrence(m - 1)), (
        oracles.full_throw_recurrence(m), oracles.full_throw_recurrence(m - 1))


def _pair_walk(m, sizes, alone, full):
    # one pair asked for both rows while floor(t) > 0 and then, from the first
    # n with floor(t) = 0 on, for the m-bin row alone, which drops the other
    law = occupancy._recurrence(m, pair=True)
    dropped = False
    for n in sizes:
        if math.floor(lrt._k_threshold(m, n)) and not dropped:
            _assert_pair_rows(m, n, law(n, deleted=True), alone, full)
        else:
            dropped = True
            _assert_pair_rows(m, n, (law(n),), alone[:1], full[:1])
    return law, dropped


def test_recurrence_pair_matches_one_row_and_full_steppers_at_every_size_for_small_bins():
    for m in (2, 3, 7):
        sizes = range(int(3 * m * math.log(m)) + 1)
        law = occupancy._recurrence(m, pair=True)
        alone, full = _one_row_and_full(m)
        for n in sizes:
            _assert_pair_rows(m, n, law(n, deleted=True), alone, full)
        law, dropped = _pair_walk(m, sizes, *_one_row_and_full(m))
        assert dropped, m
        with pytest.raises(ValueError, match=f"^the throw recurrence for m={m} carries no \\(m-1\\)-bin law$"):
            law(sizes[-1], deleted=True)


def test_recurrence_pair_matches_one_row_and_full_steppers_at_large_sizes():
    # floor(t) is 0 from n = 15199 on at m = 2000, so the walk's last size drops the 1999-bin row
    law, dropped = _pair_walk(2000, [5833, 5834, 10000, 15198, 15199], *_one_row_and_full(2000))
    assert dropped
    assert law(16000).tobytes() == occupancy._recurrence(2000)(16000).tobytes()
    _assert_pair_rows(5000, 20000, occupancy._recurrence(5000, pair=True)(20000, deleted=True), *_one_row_and_full(5000))


def test_recurrence_pair_refuses_past_the_work_limit(monkeypatch):
    law = occupancy._recurrence(64, pair=True)
    # the limit is read at call time, after the stepper was made
    monkeypatch.setattr(occupancy, "_RECURRENCE_WORK", 64 * 300)
    law(300, deleted=True)
    message = f"^throw recurrence for m=64, n=301 needs {64 * 301} bin updates, above the limit of {64 * 300}$"
    with pytest.raises(ValueError, match=message):
        law(301, deleted=True)
    with pytest.raises(ValueError, match=message):
        law(301)
    # exact_lrt_risk takes the pair at (2000, 10000) and refuses as the m-bin law did alone
    monkeypatch.setattr(occupancy, "_RECURRENCE_WORK", 2000 * 9999)
    with pytest.raises(ValueError, match=f"m=2000, n=10000 needs 20000000 bin updates, above the limit of {2000 * 9999}$"):
        exact_lrt_risk(2000, 10000)
    # a stepper builds its arrays only after its first call passes the check, so a refusal at
    # m = 10**6 allocates none of the pair's three arrays of 2 * 10**6 + 1 floats
    monkeypatch.undo()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the limit of 1073741824"):
            exact_lrt_risk(10**6, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
    # (512, 3900) is the exact route's corner: the one-entry sum there must equal entry 0 of the table
    for m, n in [(5, 8), (64, 311), (512, 3900), (600, 900), (1024, 2048), (1024, 7200), (4096, 36909)]:
        law = empty_count_distribution(m, n)
        assert prob_all_occupied(m, n) == law.prob(0), (m, n)


def _first_tame_size(m):
    return next(n for n in itertools.count(m) if occupancy._series_is_tame(m, n))


@pytest.mark.parametrize(
    "m, n",
    [(4096, 36909), (1000, 7601), (1024, 7808), (10000, 92104)]
    # at the first tame size lam = m(1 - 1/m)**n is just below 1, where the cut's bound is tightest
    + [(m, _first_tame_size(m)) for m in (513, 600, 2000)],
)
def test_log_route_window_drops_only_exact_zeros(m, n):
    assert m > occupancy._EXACT_BINS and occupancy._series_is_tame(m, n)
    # the oracle sums every term of every entry, with no window over k and no cut in j
    assert empty_count_distribution(m, n).probs.tobytes() == oracles.log_series_law(m, n).tobytes()


def test_log_series_cut_lies_past_float_underflow():
    # term j is at most term 0 / j!, so from _SERIES_TERMS on it scales below e**-760
    cut = occupancy._SERIES_TERMS
    assert math.lgamma(cut + 1) > -occupancy._LOG_UNDERFLOW >= math.lgamma(cut)
    assert cut == 181


@pytest.mark.parametrize("m", [1, 2, 1000, 4096])
def test_log_factorials_match_the_list_form(m):
    listed = np.asarray([math.lgamma(i + 1.0) for i in range(m + 1)], dtype=float)
    assert occupancy._log_factorials(m).tobytes() == listed.tobytes()


def test_log_route_beyond_bin_limit_fails_fast(monkeypatch):
    m = occupancy._LOG_BINS + 1
    n = math.ceil(m * math.log(m) + m)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"above the limit of {occupancy._LOG_BINS} bins"):
        prob_all_occupied(m, n)
    assert time.perf_counter() - start < 1.0
    # the limit is read at call time
    at_limit = prob_all_occupied(1000, 7601)
    monkeypatch.setattr(occupancy, "_LOG_BINS", 1000)
    assert prob_all_occupied(1000, 7601) == at_limit
    monkeypatch.setattr(occupancy, "_LOG_BINS", 999)
    for call in (prob_all_occupied, empty_count_distribution, exact_lrt_risk):
        with pytest.raises(ValueError, match="log route for m=1000, n=7601 is above the limit of 999 bins"):
            call(1000, 7601)


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


def test_coupon_limit_rejects_nan_offset():
    with pytest.raises(ValueError, match="nan"):
        coupon_limit(math.nan)
    assert coupon_limit(math.inf) == 1.0


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
