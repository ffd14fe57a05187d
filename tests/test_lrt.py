import math
from fractions import Fraction

import numpy as np
import pytest

import homrisk.lrt
import oracles
from homrisk import (
    BettiProfile,
    Hypothesis,
    build_pack,
    empty_count_distribution,
    exact_lrt_risk,
    likelihood_ratio,
    likelihood_ratio_closed_form,
    occupancy,
    rate_curve,
    risk_lower_bound,
    sample,
    summarize,
    t_mn,
    threshold_sample_size,
)
from homrisk import test_from_estimator as estimator_decision

M2_RADIUS = 0.15  # grid side 2 in the plane, the smallest usable pack


def test_closed_form_examples():
    assert likelihood_ratio_closed_form(2, 1, 1) == pytest.approx(1.0, rel=1e-15)
    assert likelihood_ratio_closed_form(2, 2, 1) == pytest.approx(2.0, rel=1e-14)
    assert likelihood_ratio_closed_form(2, 3, 1) == pytest.approx(4.0, rel=1e-14)
    assert likelihood_ratio_closed_form(3, 0, 3) == pytest.approx(1.0, rel=1e-15)
    assert likelihood_ratio_closed_form(5, 7, 0) == 0.0


def test_closed_form_validation():
    with pytest.raises(ValueError):
        likelihood_ratio_closed_form(1, 5, 0)
    with pytest.raises(ValueError):
        likelihood_ratio_closed_form(4, -1, 0)
    with pytest.raises(ValueError):
        likelihood_ratio_closed_form(4, 5, 5)


def test_closed_form_matches_rational_oracle():
    for m in range(2, 7):
        for n in range(0, 31, 5):
            for k in range(1, m + 1):
                got = likelihood_ratio_closed_form(m, n, k)
                want = float(oracles.deletion_ratio(m, n, k))
                assert got == pytest.approx(want, rel=1e-9), (m, n, k)


def test_report_matches_closed_form_on_500_seeded_draws():
    rng = np.random.default_rng(20240831)
    packs = [
        build_pack(1, 2, M2_RADIUS),   # m = 2
        build_pack(1, 2, 1 / 12),      # m = 3
        build_pack(2, 3, 1 / 8),       # m = 4, two-spheres
        build_pack(1, 2, 1 / 16),      # m = 4, circles
    ]
    hyps = [Hypothesis.null(), Hypothesis.mixture(), None]  # None = random alternate
    for case in range(500):
        pack = packs[rng.integers(0, len(packs))]
        hyp = hyps[rng.integers(0, len(hyps))]
        if hyp is None:
            hyp = Hypothesis.alternate(int(rng.integers(1, pack.count + 1)))
        n = int(rng.integers(0, 200))
        drawn = sample(pack, hyp, n, seed=int(rng.integers(0, 2**63)))
        report = likelihood_ratio(pack, drawn)
        k = summarize(pack, drawn).empty_count
        assert report.empty_count == k
        want = likelihood_ratio_closed_form(pack.count, n, k)
        if want == 0.0:
            assert report.ratio_L == 0.0
        else:
            assert report.ratio_L == pytest.approx(want, rel=1e-9), (case, pack.count, n, k)
        assert report.decision == (1 if report.ratio_L > 1.0 else 0)


def test_full_coverage_accepts():
    pack = build_pack(1, 2, M2_RADIUS)
    for seed in range(30):
        drawn = sample(pack, Hypothesis.null(), 60, seed=seed)
        if summarize(pack, drawn).empty_count == 0:
            report = likelihood_ratio(pack, drawn)
            assert report.ratio_L == 0.0
            assert report.log_L1 == -math.inf
            assert report.decision == 0
            break
    else:
        pytest.fail("no fully covered draw in 30 seeds, check the sampler")


def test_ratio_tie_accepts():
    # a single point with one sphere missing sits exactly on ratio 1
    pack = build_pack(1, 2, M2_RADIUS)
    drawn = sample(pack, Hypothesis.null(), 1, seed=0)
    report = likelihood_ratio(pack, drawn)
    assert report.empty_count == 1
    assert report.ratio_L == pytest.approx(1.0, rel=1e-12)
    assert report.decision == 0


def test_single_empty_threshold_values():
    assert t_mn(2, 1) == pytest.approx(1.0, rel=1e-15)
    for n in range(0, 41):
        assert t_mn(2, n) == pytest.approx(2.0 ** (n - 1), rel=1e-12)
    with pytest.raises(ValueError):
        t_mn(1, 5)
    with pytest.raises(ValueError):
        t_mn(4, -1)


def test_threshold_sample_size_hits_target_ratio():
    # at n = ceil(m ln m + m ln 2) the one-empty ratio times delta is ~1
    m = 10**4
    n = threshold_sample_size(m, 0.5)
    assert abs(t_mn(m, n) * 0.5 - 1.0) <= 0.01


def test_exact_risk_small_cases():
    r = exact_lrt_risk(2, 3)
    assert r.k_threshold == 0.25
    assert r.type_I == 0.25
    assert r.type_II == 0.0
    assert r.total == 0.25
    r1 = exact_lrt_risk(2, 1)
    assert r1.k_threshold == 1.0
    assert r1.type_I == 0.0
    assert r1.type_II == 1.0
    assert r1.total == 1.0
    with pytest.raises(ValueError):
        exact_lrt_risk(1, 5)


def test_exact_risk_two_bins_closed_form():
    # with two bins the total risk halves with every extra draw
    for n in range(2, 11):
        report = exact_lrt_risk(2, n)
        assert report.total == 2.0 ** (1 - n)
        type_one, type_two = oracles.ratio_test_risk(2, n)
        assert report.type_I == float(type_one)
        assert report.type_II == float(type_two)


def test_exact_risk_matches_rational_oracle():
    for m in range(2, 6):
        for n in range(0, 12):
            report = exact_lrt_risk(m, n)
            type_one, type_two = oracles.ratio_test_risk(m, n)
            assert abs(report.type_I - float(type_one)) <= 1e-12, (m, n)
            assert abs(report.type_II - float(type_two)) <= 1e-12, (m, n)


@pytest.mark.parametrize(
    "m, n",
    [
        (64, 311), (100, 200),    # exact route, threshold below and above 1
        (600, 900), (600, 3900),  # throw recurrence and log series
        (2, 0), (5, 0), (2, 1), (3, 1), (4, 1),  # integer thresholds
    ],
)
def test_exact_risk_is_the_two_law_tails(m, n):
    # type I sums the m-bin law over k > t, type II the (m-1)-bin law
    # over k' + 1 <= t; both must match the masked sums bit for bit
    t = m * (1.0 - 1.0 / m) ** n
    null_law = empty_count_distribution(m, n)
    alt_law = empty_count_distribution(m - 1, n)
    type_one = min(1.0, max(0.0, float(null_law.probs[np.arange(m + 1) > t].sum())))
    type_two = min(1.0, max(0.0, float(alt_law.probs[np.arange(m) + 1.0 <= t].sum())))
    report = exact_lrt_risk(m, n)
    assert report.k_threshold == t
    assert report.type_I.hex() == type_one.hex(), (m, n)
    assert report.type_II.hex() == type_two.hex(), (m, n)
    assert report.total == type_one + type_two


@pytest.mark.parametrize("m, n", [(600, 900), (1000, 4216), (2000, 10000)])
def test_scan_screen_is_the_exact_risk_on_the_recurrence(m, n):
    # m and m - 1 bins both take the throw recurrence here, so the scan's
    # stepped laws must give exact_lrt_risk's tails bit for bit; the m-bin law
    # is reached in two calls, the router's in one
    null_law = occupancy._recurrence(m)
    null_law(n // 2)
    null, deleted = null_law(n), occupancy._recurrence(m - 1)(n)
    screen = homrisk.lrt._tails(homrisk.lrt._k_threshold(m, n), null, deleted)
    report = exact_lrt_risk(m, n)
    assert screen == (report.type_I, report.type_II)


def test_mixed_route_corners_keep_their_bits_and_take_no_pair(monkeypatch):
    # at (513, 3000) the 512-bin law takes the exact route, at (2000, 15195) the
    # 1999-bin law the log series, so each corner calls the router for both laws;
    # (2000, 10000) sends both to the throw recurrence, as one stepper pair
    pairs, rows = [], []
    real_pair, real_row = homrisk.lrt._recurrence, occupancy._recurrence
    monkeypatch.setattr(homrisk.lrt, "_recurrence", lambda m, pair=False: pairs.append((m, pair)) or real_pair(m, pair))
    monkeypatch.setattr(occupancy, "_recurrence", lambda m, pair=False: rows.append((m, pair)) or real_row(m, pair))
    # float hex of k_threshold, type I, type II and total, as the router alone printed them
    for (m, n), recorded in (
        ((513, 3000), ("0x1.78d45bb9de10ep+0", "0x1.bcbf22d49a929p-2", "0x1.d86c766ab0a07p-3", "0x1.547aaf04f9716p-1")),
        ((2000, 15195), ("0x1.006289e4c14d0p+0", "0x1.0f262784865e7p-2", "0x1.78f431a802951p-2", "0x1.440d2c964479cp-1")),
    ):
        report = exact_lrt_risk(m, n)
        assert (report.k_threshold.hex(), report.type_I.hex(), report.type_II.hex(), report.total.hex()) == recorded
    assert pairs == [] and rows == [(513, False), (2000, False)]
    rows.clear()
    exact_lrt_risk(2000, 10000)
    assert pairs == [(2000, True)] and rows == []


def test_exact_risk_skips_the_deletion_law_below_one(monkeypatch):
    built = []

    def counting(m, n):
        built.append(m)
        return empty_count_distribution(m, n)

    monkeypatch.setattr(homrisk.lrt, "empty_count_distribution", counting)
    exact_lrt_risk(64, 311)  # threshold 0.48: no k' + 1 <= t
    assert built == [64]
    built.clear()
    exact_lrt_risk(100, 200)  # threshold 13.4: the deletion law is read
    assert built == [100, 99]


def test_exact_risk_at_collection_threshold():
    report = exact_lrt_risk(64, 311)
    assert report.type_I == pytest.approx(0.38634043310018606, rel=1e-12)
    assert report.type_II == 0.0
    assert abs(report.type_I - 0.39347) <= 0.02
    assert report.k_threshold == pytest.approx(0.477660077821322, rel=1e-12)


def test_ratio_rule_is_bayes_optimal_among_count_thresholds():
    # reject-iff-(empty count >= t) rules for every cut t; the ratio rule
    # never does worse on type I + type II
    for m in range(2, 9):
        base = math.ceil(m * math.log(m))
        for n in (m, base, 3 * base):
            lrt_total = exact_lrt_risk(m, n).total
            null_law = empty_count_distribution(m, n)
            alt_law = empty_count_distribution(m - 1, n)
            for t in range(0, m + 2):
                type_one = float(null_law.probs[t:].sum())
                type_two = float(alt_law.probs[: max(0, t - 1)].sum())
                assert lrt_total <= type_one + type_two + 1e-12, (m, n, t)


def test_risk_lower_bound_examples():
    assert risk_lower_bound(0, 0.25, 1, 0.1) == 0.1
    # below the crossover the delta cap is active
    tau, d = 1 / 16, 1
    crossover = math.ceil(math.log(16.0) / tau)  # 45
    assert risk_lower_bound(10, tau, d, 0.5) == 0.5
    # at the crossover the exponential leg passes through ~1
    raw = math.exp(-crossover * tau) / tau
    assert risk_lower_bound(crossover, tau, d, 0.9999) == pytest.approx(raw, rel=1e-15)
    assert abs(raw - 1.0) <= 0.05
    with pytest.raises(ValueError):
        risk_lower_bound(-1, tau, d, 0.5)
    with pytest.raises(ValueError):
        risk_lower_bound(5, 0.6, d, 0.5)
    with pytest.raises(ValueError):
        risk_lower_bound(5, tau, 0, 0.5)
    with pytest.raises(ValueError):
        risk_lower_bound(5, tau, d, 1.0)


def test_rate_curve_is_capped_then_decays():
    tau, d, delta = 1 / 16, 1, 0.25
    ns = list(range(0, 200, 10))
    curve = rate_curve(ns, tau, d, delta)
    values = [v for _, v in curve.points]
    assert values[0] == delta
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == math.exp(-190 * tau) / tau
    assert curve.radius == tau and curve.dim == d and curve.delta == delta


def test_estimator_decision_rule():
    pack = build_pack(1, 2, 1 / 16)  # m = 4
    assert estimator_decision(BettiProfile((4,), 4), pack) == 0
    assert estimator_decision(BettiProfile((3,), 3), pack) == 1
    assert estimator_decision(BettiProfile((6,), 6), pack) == 0
    assert estimator_decision(BettiProfile((4, 4, 0), 0), pack) == 0
