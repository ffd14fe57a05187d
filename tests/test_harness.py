import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homrisk import (
    CSV_HEADER,
    Hypothesis,
    SweepRow,
    TrialConfig,
    assign_points,
    build_pack,
    derive_seed,
    emit_csv,
    exact_lrt_risk,
    fit_rate,
    likelihood_ratio,
    mc_risk,
    geometry,
    harness,
    prob_all_occupied,
    sample,
    sample_assignments,
    sample_complexity,
    summarize,
    sweep_n,
    trial_seed,
)

M2 = dict(intrinsic_dim=1, ambient_dim=2, radius=0.15)       # 2 spheres
M4 = dict(intrinsic_dim=1, ambient_dim=2, radius=1 / 16)     # 4 spheres
M64 = dict(intrinsic_dim=1, ambient_dim=2, radius=1 / 256)   # 64 spheres


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(**M2, n=5, trials=10, master_seed=1, test_kind="bogus")
    with pytest.raises(ValueError):
        TrialConfig(**M2, n=5, trials=0, master_seed=1)
    with pytest.raises(ValueError):
        TrialConfig(**M2, n=-1, trials=10, master_seed=1)
    # trial indices are 32-bit hash words; construction alone runs no trial
    assert TrialConfig(**M2, n=5, trials=2**32, master_seed=1).trials == 2**32
    with pytest.raises(ValueError, match=str(2**32)):
        TrialConfig(**M2, n=5, trials=2**32 + 1, master_seed=1)


def test_trial_seed_scheme():
    assert trial_seed(99, 3, 1) == derive_seed(99, 3, 1)
    seeds = {trial_seed(99, t, s) for t in range(50) for s in (0, 1)}
    assert len(seeds) == 100


# The substream contract: these keys and draws fix every seeded Monte Carlo
# number the package prints.
TRIAL_SEEDS = {
    (0, 0, 0): 0xDB2CD7E7B0F478BE,
    (1, 0, 1): 0x18C2DD455977E38B,
    (7, 4999, 0): 0x5BE2628706999694,
    (2**32, 5, 1): 0x3BDDC8D608EC0F46,
    (2**40 + 5, 123, 0): 0x90ED8B658BE16928,
    (-1, 2, 1): 0xD142E9C29A858FDB,
    (2**64 - 1, 0, 0): 0xAEBCA151928CAD0D,
    (-(2**63), 17, 1): 0xF19689D208681BE3,
}


def test_trial_seed_golden_values():
    for (master, t, stream), seed in TRIAL_SEEDS.items():
        assert trial_seed(master, t, stream) == seed
        assert list(harness._trial_seeds(master, t + 1, stream))[t] == seed


def test_trial_draw_golden_values():
    pack = build_pack(**M64)
    null = sample_assignments(pack, Hypothesis.null(), 311, trial_seed(2013, 3, 0))
    assert null[:8].tolist() == [31, 57, 17, 51, 1, 36, 13, 28]
    mixture_seed = trial_seed(2013, 3, 1)
    mixed = sample_assignments(pack, Hypothesis.mixture(), 311, mixture_seed)
    assert mixed[:8].tolist() == [19, 12, 14, 25, 59, 8, 9, 10]
    drawn = sample(pack, Hypothesis.mixture(), 311, mixture_seed)
    assert drawn.realized_removed_index == 31
    assert (assign_points(pack, drawn.points[:8]) - 1).tolist() == mixed[:8].tolist()


def test_trial_seeds_cross_hash_blocks():
    master = -(2**40) - 3
    trials = harness._SEED_BLOCK + 5
    assert list(harness._trial_seeds(master, trials, 1)) == [trial_seed(master, t, 1) for t in range(trials)]


# Seed parts as derive_seed reads them mod 2**64, with the one- and two-word
# edges of SeedSequence's 32-bit split.
PART = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, -1, 2**63, -(2**63), 2**64 - 1]),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
)


@settings(max_examples=150, deadline=None)
@given(master=PART, extra=st.lists(st.integers(0, 2**32 - 1), max_size=4))
def test_batched_seed_hash_matches_derive_seed(master, extra):
    # the uint32 lane's edges and a hash-block boundary, in every block
    block = np.array([0, 1023, 1024, 2**31, 2**32 - 1, *extra], dtype=np.int64)
    for stream in (0, 1):
        expected = [derive_seed(master, t, stream) for t in block.tolist()]
        assert geometry._derive_seeds(master, block, stream).tolist() == expected


@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(PART, min_size=1, max_size=4), m=st.integers(2, 5000), n=st.integers(0, 50))
def test_rekeyed_generator_draws_like_a_fresh_one(seeds, m, n):
    rng = np.random.Generator(np.random.Philox(key=12345))
    rng.integers(0, 7, size=3)  # leaves a half-used 64-bit word in the buffer
    for seed in seeds:
        assert geometry._keyed(seed, rng) is rng
        fresh = np.random.Generator(np.random.Philox(key=seed % 2**64))
        assert rng.integers(1, m + 1) == fresh.integers(1, m + 1)
        assert np.array_equal(rng.integers(0, m, size=n), fresh.integers(0, m, size=n))
        assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3))


def test_mc_risk_occupancy_two_spheres():
    # exact type I of the any-empty rule at (m=2, n=3) is 1/4; the mixture
    # side always leaves a sphere empty, so type II is exactly zero
    config = TrialConfig(**M2, n=3, trials=100_000, master_seed=7, test_kind="occupancy")
    est = mc_risk(config)
    assert est.type_II_hat == 0.0
    assert est.exact_type_I is None  # exact columns only accompany the ratio test
    se = math.sqrt(0.25 * 0.75 / config.trials)
    assert abs(est.type_I_hat - 0.25) <= 4 * se
    assert est.risk_hat == est.type_I_hat + est.type_II_hat
    assert est.stderr > 0.0


def test_mc_risk_no_draws_accepts_everything():
    config = TrialConfig(**M2, n=0, trials=64, master_seed=3, test_kind="lrt")
    est = mc_risk(config)
    assert est.type_I_hat == 0.0
    assert est.type_II_hat == 1.0
    assert est.exact_type_I == 0.0
    assert est.exact_type_II == 1.0


def test_mc_risk_lrt_ties_follow_the_exact_rule():
    # m = 14, n = 1: every draw leaves 13 spheres empty, a ratio of exactly
    # 1 whose float closed form rounds above 1; trials and exact risk must
    # both accept it
    config = TrialConfig(intrinsic_dim=1, ambient_dim=2, radius=1 / 56, n=1, trials=20, master_seed=3)
    est = mc_risk(config)
    assert est.exact_type_I == 0.0
    assert est.exact_type_II == 1.0
    assert est.type_I_hat == est.exact_type_I
    assert est.type_II_hat == est.exact_type_II


def test_mc_risk_lrt_tracks_exact_values():
    config = TrialConfig(**M64, n=311, trials=3000, master_seed=11, test_kind="lrt")
    est = mc_risk(config)
    assert est.exact_type_I == pytest.approx(0.38634043310018606, rel=1e-12)
    assert est.exact_type_II == 0.0
    se = math.sqrt(est.exact_type_I * (1 - est.exact_type_I) / config.trials)
    assert abs(est.type_I_hat - est.exact_type_I) <= 4 * se
    assert est.type_II_hat == 0.0


def test_index_path_matches_full_synthesis():
    # the bulk path skips point synthesis; decisions must match a manual
    # loop that samples real points and evaluates each test on them
    inputs = (
        ("lrt", 40, lambda pack, drawn: likelihood_ratio(pack, drawn).decision),
        # few draws leave the last sphere empty often, which a short bin count misses
        ("occupancy", 6, lambda pack, drawn: int(summarize(pack, drawn).empty_count > 0)),
    )
    for test_kind, n, decide in inputs:
        config = TrialConfig(**M4, n=n, trials=300, master_seed=21, test_kind=test_kind)
        est = mc_risk(config)
        pack = build_pack(config.intrinsic_dim, config.ambient_dim, config.radius)
        for stream, hyp in ((0, Hypothesis.null()), (1, Hypothesis.mixture())):
            rejections = 0
            for t in range(config.trials):
                drawn = sample(pack, hyp, config.n, trial_seed(config.master_seed, t, stream))
                rejections += decide(pack, drawn)
            if stream == 0:
                assert est.type_I_hat == rejections / config.trials, test_kind
            else:
                assert est.type_II_hat == 1.0 - rejections / config.trials, test_kind


def test_mc_risk_is_reproducible():
    config = TrialConfig(**M4, n=30, trials=500, master_seed=5, test_kind="occupancy")
    assert mc_risk(config) == mc_risk(config)


def test_estimator_kind_runs_and_scale_is_respected():
    config = TrialConfig(
        **M4, n=80, trials=60, master_seed=13, test_kind="estimator", scale=1 / 16
    )
    est = mc_risk(config)
    assert 0.0 <= est.type_I_hat <= 1.0
    assert 0.0 <= est.type_II_hat <= 1.0
    assert est.exact_type_I is None
    bad = TrialConfig(**M4, n=80, trials=5, master_seed=13, test_kind="estimator", scale=0.5)
    with pytest.raises(ValueError):
        mc_risk(bad)  # scale reaches across the inter-sphere gap


def test_estimator_risk_dominates_ratio_test():
    # data-processing direction: no plug-in test beats the exact ratio test
    config = TrialConfig(
        **M4, n=50, trials=300, master_seed=17, test_kind="estimator", scale=1 / 16
    )
    est = mc_risk(config)
    floor = exact_lrt_risk(4, 50).total
    assert est.risk_hat >= floor - 4 * est.stderr


def test_sweep_shapes_and_columns():
    config = TrialConfig(**M2, n=1, trials=40, master_seed=9, test_kind="lrt")
    rows = sweep_n(config, [2, 5, 9])
    assert [r.n for r in rows] == [2, 5, 9]
    for row in rows:
        assert row.m == 2
        assert row.tau == 0.15
        assert row.d == 1 and row.D == 2
        assert row.trials == 40
        assert row.test_kind == "lrt"
        assert row.miss_prob == 1.0 - prob_all_occupied(2, row.n)
        assert row.exact_type1 is not None and row.exact_type2 is not None
        report = exact_lrt_risk(2, row.n)
        assert row.exact_type1 == report.type_I and row.exact_type2 == report.type_II
        assert row.rate_envelope == pytest.approx(
            min(math.exp(-row.n * 0.15) / 0.15, 0.5), rel=1e-15
        )
    misses = [r.miss_prob for r in rows]
    assert all(b <= a for a, b in zip(misses, misses[1:]))


def test_sweep_rejects_disordered_sizes():
    config = TrialConfig(**M2, n=1, trials=10, master_seed=9)
    with pytest.raises(ValueError):
        sweep_n(config, [5, 5, 9])
    with pytest.raises(ValueError):
        sweep_n(config, [9, 5])
    with pytest.raises(ValueError):
        sweep_n(config, [])


def test_sweep_respects_delta_for_envelope():
    config = TrialConfig(**M2, n=1, trials=10, master_seed=9, delta=0.05)
    (row,) = sweep_n(config, [4])
    assert row.rate_envelope == 0.05  # capped by the configured delta


def test_emit_csv_header_and_roundtrip(tmp_path):
    config = TrialConfig(**M2, n=1, trials=25, master_seed=31, test_kind="lrt")
    rows = sweep_n(config, list(range(2, 19)))
    assert len(rows) == 17
    out = tmp_path / "sweep.csv"
    emit_csv(rows, out)
    text = out.read_text()
    lines = text.splitlines()
    assert len(lines) == 18
    assert lines[0] == CSV_HEADER
    assert "\r" not in text
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    for row, rec in zip(rows, parsed):
        assert int(rec["m"]) == row.m and int(rec["n"]) == row.n
        assert float(rec["tau"]) == row.tau
        assert float(rec["type1_hat"]) == row.type1_hat
        assert float(rec["risk_hat"]) == row.risk_hat
        assert float(rec["exact_type1"]) == row.exact_type1
        assert float(rec["miss_prob"]) == row.miss_prob
        assert float(rec["rate_envelope"]) == row.rate_envelope


def test_emit_csv_blank_exact_fields_for_plugin_tests(tmp_path):
    config = TrialConfig(**M2, n=1, trials=30, master_seed=33, test_kind="occupancy")
    rows = sweep_n(config, [3, 6])
    out = tmp_path / "occ.csv"
    emit_csv(rows, out)
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    for rec in parsed:
        assert rec["exact_type1"] == ""
        assert rec["exact_type2"] == ""
        assert rec["test"] == "occupancy"


def test_emit_csv_empty_rows_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], out)
    assert out.read_text() == CSV_HEADER + "\n"


def synthetic_row(n, value):
    return SweepRow(
        m=64, n=n, tau=1 / 256, d=1, D=2, trials=1, test_kind="lrt",
        type1_hat=value, type2_hat=0.0, risk_hat=value, stderr=0.0,
        exact_type1=value, exact_type2=0.0, miss_prob=0.0, rate_envelope=0.5,
    )


def test_fit_rate_recovers_synthetic_slope():
    rows = [synthetic_row(n, math.exp(-n / 64.0)) for n in range(300, 460, 20)]
    fit = fit_rate(rows, "exact_type1")
    assert fit.slope == pytest.approx(-1 / 64.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    fit_hat = fit_rate(rows, "risk_hat")
    assert fit_hat.slope == pytest.approx(-1 / 64.0, abs=1e-12)


def test_fit_rate_window_and_errors():
    # values outside [1e-3, 0.5] are dropped before fitting
    inside = [synthetic_row(n, 0.4 * math.exp(-(n - 100) / 50.0)) for n in range(100, 400, 50)]
    outside = [synthetic_row(50, 0.9), synthetic_row(600, 1e-7)]
    fit_all = fit_rate(sorted(inside + outside, key=lambda r: r.n))
    assert fit_all.slope == pytest.approx(-1 / 50.0, abs=1e-10)
    with pytest.raises(ValueError):
        fit_rate(inside[:3])
    with pytest.raises(ValueError, match="2 sample sizes"):
        fit_rate([synthetic_row(300, 0.1)] * 4)
    with pytest.raises(ValueError):
        fit_rate(inside, "stderr")
    none_rows = [
        replace(synthetic_row(n, 0.1), exact_type1=None, exact_type2=None) for n in range(4)
    ]
    with pytest.raises(ValueError):
        fit_rate(none_rows, "exact_type1")


def test_sample_complexity_exact_scan():
    config = TrialConfig(**M2, n=1, trials=1, master_seed=1, test_kind="lrt")
    assert sample_complexity(config, 0.25, range(1, 11)) == 3
    assert sample_complexity(config, 1.0, range(1, 11)) == 1
    with pytest.raises(ValueError):
        sample_complexity(config, 0.001, [1, 2, 3])
    with pytest.raises(ValueError):
        sample_complexity(config, 0.0, [1, 2])
    with pytest.raises(ValueError):
        sample_complexity(config, 0.25, [])


def test_sample_complexity_matches_exact_crossing_at_64():
    config = TrialConfig(**M64, n=1, trials=1, master_seed=1, test_kind="lrt")
    got = sample_complexity(config, 0.1, range(380, 441, 5))
    assert got == 410
    assert 395 <= got <= 425
    # the first passing candidate is the smallest only in increasing order
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_complexity(config, 0.25, [1000, 345, 400])
    assert sample_complexity(config, 0.25, [345, 400, 1000]) == 345


def test_sample_complexity_upper_confidence_path():
    config = TrialConfig(
        **M2, n=1, trials=150, master_seed=41, test_kind="estimator", scale=0.15
    )
    got = sample_complexity(config, 0.2, [10, 120])
    assert got == 120


def test_estimates_stay_within_four_stderr_of_exact():
    # meta-check over 100 independent batches at (m=4, n=8)
    exact = exact_lrt_risk(4, 8)
    hits = 0
    for rep in range(100):
        config = TrialConfig(**M4, n=8, trials=400, master_seed=rep, test_kind="lrt")
        est = mc_risk(config)
        band = 4 * max(est.stderr, 1e-9)
        if abs(est.type_I_hat - exact.type_I) <= band and abs(
            est.type_II_hat - exact.type_II
        ) <= band:
            hits += 1
    assert hits >= 99
