import csv
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
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
    homology,
    homology_estimator,
    occupancy,
    prob_all_occupied,
    sample,
    sample_assignments,
    sample_complexity,
    summarize,
    sweep_n,
    trial_seed,
)
from homrisk.lrt import test_from_estimator as plugin_decision  # aliased, so pytest does not collect it

M2 = dict(intrinsic_dim=1, ambient_dim=2, radius=0.15)       # 2 spheres
M4 = dict(intrinsic_dim=1, ambient_dim=2, radius=1 / 16)     # 4 spheres
M64 = dict(intrinsic_dim=1, ambient_dim=2, radius=1 / 256)   # 64 spheres
M256 = dict(intrinsic_dim=1, ambient_dim=2, radius=1 / 1024)  # 256 spheres


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
        blocks = harness._trial_blocks(master, t + 1, stream, 3)
        assert [key for keys, _ in blocks for key in keys][t] == seed


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


def test_trial_seeds_cross_hash_blocks(monkeypatch):
    # 1029 trials in blocks of 10: the seeds are hashed 1024 and then 5 at a time, whatever the blocks,
    # and every block comes with the side's one generator
    hashed, derive = [], geometry._derive_seeds
    monkeypatch.setattr(geometry, "_derive_seeds", lambda *args: hashed.append(len(args[1])) or derive(*args))
    master = -(2**40) - 3
    trials = harness._SEED_BLOCK + 5
    blocks = list(harness._trial_blocks(master, trials, 1, 10))
    assert [len(keys) for keys, _ in blocks] == [10] * (trials // 10) + [trials % 10]
    assert [key for keys, _ in blocks for key in keys] == [trial_seed(master, t, 1) for t in range(trials)]
    assert hashed == [harness._SEED_BLOCK, 5]
    assert len({id(rng) for _, rng in blocks}) == 1


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


def test_philox_draws_extend_and_split_golden():
    # The count path reads every sample size off one draw per trial, and draws
    # a trial longer than its block through _draw_kept and then block-wide
    # Generator.integers pieces: a shorter draw is a prefix of a longer one,
    # and pieces continue one stream, after a mixture's removed index too.
    seed = trial_seed(2013, 3, 1)
    assert geometry._keyed(seed).integers(0, 64, size=8).tolist() == [30, 20, 12, 14, 26, 59, 8, 9]
    rng = geometry._keyed(seed)
    assert rng.integers(1, 65) == 31
    assert rng.integers(0, 63, size=8).tolist() == [19, 12, 14, 25, 58, 8, 9, 10]
    for master, bins in itertools.product((0, 2013, 2**40 + 5), (1, 2, 63, 64, 1023, 1024, 5000)):
        key = trial_seed(master, bins, 0)
        whole = geometry._keyed(key).integers(0, bins, size=600)
        for n in (0, 1, 7, 311, 599):
            assert np.array_equal(geometry._keyed(key).integers(0, bins, size=n), whole[:n])
        for scalar in (False, True):  # a mixture draws its removed index first
            rng, one = geometry._keyed(key), geometry._keyed(key)
            if scalar:
                assert rng.integers(1, bins + 2) == one.integers(1, bins + 2)
            split = np.concatenate([rng.integers(0, bins, size=311), rng.integers(0, bins, size=289)])
            assert np.array_equal(split, one.integers(0, bins, size=600))


def test_raw_words_and_map_golden():
    # Philox outputs read low half first, mapped as Generator.integers maps
    # them: the mixture's removed index on range 64, then choices on 63
    raw = geometry._keyed(trial_seed(2013, 3, 1)).bit_generator.random_raw(5)
    words = np.asarray(raw, dtype="<u8").view("<u4")
    assert words.tolist() == [
        2034834816, 1350147194, 831818820, 1001237722, 1755248567, 3999400217, 561054603, 618373313,
        746778256, 2459372314,
    ]
    removed, choices = np.empty((1, 1), dtype="<u8"), np.empty((1, 8), dtype="<u8")
    assert not geometry._lemire(words[None, :1], 64, removed)[0]
    assert not geometry._lemire(words[None, 1:9], 63, choices)[0]
    assert int(removed[0, 0]) + 1 == 31
    assert choices[0].tolist() == [19, 12, 14, 25, 58, 8, 9, 10]


@pytest.mark.parametrize("kept", [1, 2, 3, 63, 64, 1023, 1024, 3 * 10**9])
def test_raw_map_matches_generator_integers(kept):
    # at 3e9 about 30 % of words fall in the rejection zone, so both outcomes occur
    for key, n, lead in itertools.product([trial_seed(2013, t, 1) for t in range(6)], (0, 1, 310, 311), (0, 1)):
        raw = geometry._keyed(key).bit_generator.random_raw((lead + n + 1) // 2)
        words = np.asarray(raw, dtype="<u8").view("<u4")[None, : lead + n]
        removed, choices = np.empty((1, 1), dtype="<u8"), np.empty((1, n), dtype="<u8")
        redraw = geometry._lemire(words[:, lead:], kept, choices)[0]
        if lead:
            redraw |= geometry._lemire(words[:, :1], kept + 1, removed)[0]
        rng = geometry._keyed(key)
        head = [int(rng.integers(1, kept + 2))] if lead else []
        expected = head + rng.integers(0, kept, size=n).tolist()
        got = [int(removed[0, 0]) + 1] * lead + choices[0].tolist()
        bounds = [kept + 1] * lead + [kept] * n
        zone = [int(w) * b % 2**32 < 2**32 % b for w, b in zip(words[0].tolist(), bounds)]
        assert redraw == any(zone)
        # numpy draws again at the first word in the zone; every word before it maps alike
        agree = zone.index(True) if any(zone) else len(zone)
        assert got[:agree] == expected[:agree], (key, n, lead)


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


# (pack, sizes): m = 2, m = 4 with few draws, so the last kept sphere of a
# mixture is often empty, and m = 64; sizes gapped and from 0.
COUNT_CASES = st.sampled_from([(M2, 12), (M4, 10), (M64, 90)]).flatmap(
    lambda case: st.tuples(
        st.just(case[0]),
        st.lists(st.integers(0, case[1]), min_size=1, max_size=4, unique=True).map(sorted),
    )
)


@settings(max_examples=30, deadline=None)
@given(
    case=COUNT_CASES,
    test_kind=st.sampled_from(["lrt", "occupancy"]),
    trials=st.integers(1, 9),
    buffer=st.sampled_from([8, 64, 200, 1 << 16]),
    seed=st.integers(0, 2**32),
)
def test_count_sweep_matches_per_size_oracle(case, test_kind, trials, buffer, seed):
    # small buffers put a few trials in each block, or split one trial into pieces
    shape, sizes = case
    pack = build_pack(**shape)
    assume(test_kind == "occupancy" or pack.count >= 2)
    config = TrialConfig(**shape, n=0, trials=trials, master_seed=seed, test_kind=test_kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_DRAW_BUFFER", buffer)
        rows = sweep_n(config, sizes)
        est = mc_risk(replace(config, n=sizes[-1]))
    assert (est.type_I_hat, est.type_II_hat, est.stderr) == (rows[-1].type1_hat, rows[-1].type2_hat, rows[-1].stderr)
    for row in rows:
        k_reject = exact_lrt_risk(pack.count, row.n).k_threshold if test_kind == "lrt" else 0.0
        rates = []
        for stream, hyp in ((0, Hypothesis.null()), (1, Hypothesis.mixture())):
            seeds = [trial_seed(seed, t, stream) for t in range(trials)]
            rates.append(oracles.count_side_rejections(pack, hyp, seeds, row.n, k_reject) / trials)
        assert (row.type1_hat, row.type2_hat) == (rates[0], 1.0 - rates[1]), row.n


def test_count_sides_refuse_a_one_sphere_mixture():
    one = dict(intrinsic_dim=1, ambient_dim=2, radius=0.2)
    assert build_pack(**one).count == 1
    for test_kind in ("lrt", "occupancy"):
        config = TrialConfig(**one, n=3, trials=5, master_seed=1, test_kind=test_kind)
        with pytest.raises(ValueError, match="at least two spheres"):
            mc_risk(config)
        with pytest.raises(ValueError, match="at least two spheres"):
            sweep_n(config, [0, 3])


def test_count_path_memory_is_bounded():
    # at m = 1024, n = 7808 a block of every trial would hold 800 * 7808 choices, 50 MB
    config = TrialConfig(intrinsic_dim=1, ambient_dim=2, radius=1 / 4096, n=7808, trials=800, master_seed=1)
    tracemalloc.start()
    try:
        mc_risk(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_draw_limit_refuses_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the draw limit was checked")

    # every draw, raw or through the reference, starts by keying a generator
    monkeypatch.setattr(geometry, "_keyed", no_draws)
    monkeypatch.setattr(geometry, "_draw_kept", no_draws)
    monkeypatch.setattr(harness, "_MAX_DRAWS", 1000)
    for test_kind in harness.TEST_KINDS:
        config = TrialConfig(**M64, n=101, trials=10, master_seed=1, test_kind=test_kind)
        with pytest.raises(ValueError, match="above the limit of 1000"):
            mc_risk(config)
        with pytest.raises(ValueError, match="above the limit of 1000"):
            sweep_n(config, [10, 101])
        with pytest.raises(ValueError, match="above the limit of 1000"):
            sample_complexity(replace(config, test_kind="occupancy"), 0.5, [101, 202])


def test_estimator_sweep_refuses_its_summed_draws_before_any_trial(monkeypatch):
    # 10 * (10 + 40 + 50) is the limit itself, and 10 * (10 + 40 + 51) passes it while the count tests'
    # 10 * 51 does not
    monkeypatch.setattr(harness, "_MAX_DRAWS", 1000)
    config = TrialConfig(**M4, n=0, trials=10, master_seed=1, test_kind="estimator", scale=1 / 16)
    assert [row.n for row in sweep_n(config, [10, 40, 50])] == [10, 40, 50]
    assert [row.n for row in sweep_n(replace(config, test_kind="occupancy"), [10, 40, 51])] == [10, 40, 51]

    def no_trials(*args):
        raise AssertionError("ran a trial before the draw limit was checked")

    monkeypatch.setattr(harness, "_estimator_rejections", no_trials)
    with pytest.raises(ValueError, match="^10 trials at 3 sizes summing to 101 draw 1010 sphere choices a side, above"):
        sweep_n(config, [10, 40, 51])
    # 2**16 trials times the largest size is 2**32, the limit itself; every row draws afresh, so the
    # sweep asks 2**16 * (2**16 + 1) * 2**15, about 1.4e14, sphere choices a side
    monkeypatch.setattr(harness, "_MAX_DRAWS", 1 << 32)
    message = "^65536 trials at 65536 sizes summing to 2147516416 draw 140739635838976 sphere choices a side, "
    with pytest.raises(ValueError, match=message + "above the limit of 4294967296$"):
        sweep_n(replace(config, trials=2**16), range(1, 2**16 + 1))


def test_estimator_point_limit_refuses_before_any_draw(monkeypatch):
    # the estimator's own limit, far below _MAX_DRAWS, which the count tests keep at these sizes
    assert harness._MAX_POINTS == 1 << 25 and harness._MAX_POINTS < harness._MAX_DRAWS
    monkeypatch.setattr(harness, "_MAX_POINTS", 1000)
    config = TrialConfig(**M4, n=101, trials=10, master_seed=1, test_kind="estimator", scale=1 / 16)
    counted = replace(config, test_kind="occupancy")
    assert mc_risk(counted).trials == 10 and len(sweep_n(counted, [10, 101])) == 2
    drawn = []

    def recorded(config, pack, hypothesis, stream, n):
        drawn.append(n)
        return 0  # no null rejection, every mixture trial accepted: risk 1 at every candidate

    monkeypatch.setattr(harness, "_estimator_rejections", recorded)
    limit = "above the limit of 1000 for the estimator$"
    with pytest.raises(ValueError, match="^10 trials at n = 101 draw 1010 points a side, " + limit):
        mc_risk(config)
    with pytest.raises(ValueError, match="^10 trials at 2 sizes summing to 111 draw 1110 points a side, " + limit):
        sweep_n(config, [10, 101])
    assert drawn == []
    # 10 * 50 points pass; 10 * 60 more would take a side to 1100
    message = "^10 trials at n = 60 draw 600 points a side after 500 on earlier candidates, " + limit
    with pytest.raises(ValueError, match=message):
        sample_complexity(config, 0.5, [50, 60])
    assert drawn == [50, 50]


@pytest.mark.parametrize("flagged", ["every", "half"])
def test_count_path_redraws_flagged_trials_through_the_reference(monkeypatch, flagged):
    # a flagged trial is drawn again through _draw_kept, and a split trial is
    # drawn through it whole; flagging words numpy accepted changes no count
    coin = np.random.default_rng(0)

    def in_zone(products, bound):
        return np.ones(len(products), bool) if flagged == "every" else coin.random(len(products)) < 0.5

    monkeypatch.setattr(geometry, "_in_zone", in_zone)
    for shape, sizes in ((M2, [0, 3, 12]), (M4, [2, 10]), (M64, [0, 40, 90])):
        pack = build_pack(**shape)
        k_rejects = [exact_lrt_risk(pack.count, n).k_threshold for n in sizes]
        config = TrialConfig(**shape, n=0, trials=9, master_seed=7)
        for buffer in (8, 64, 1 << 16):
            monkeypatch.setattr(harness, "_DRAW_BUFFER", buffer)
            for stream, hyp in ((0, Hypothesis.null()), (1, Hypothesis.mixture())):
                seeds = [trial_seed(7, t, stream) for t in range(9)]
                expected = [oracles.count_side_rejections(pack, hyp, seeds, n, k) for n, k in zip(sizes, k_rejects)]
                assert harness._count_rejections(config, pack, hyp, stream, sizes, k_rejects) == expected


def test_count_path_redraws_a_removed_index_in_the_rejection_zone():
    # 2**32 mod 30036 is near 30036, and master seed 15522 puts the first
    # mixture trial's removed-index word in the zone, where numpy draws again
    m = 30036
    pack = build_pack(intrinsic_dim=1, ambient_dim=2, radius=1 / (4 * m - 2))
    assert pack.count == m
    seed = trial_seed(15522, 0, 1)
    word = int(geometry._keyed(seed).bit_generator.random_raw()) & 0xFFFFFFFF
    assert word * m % 2**32 < 2**32 % m
    # a shift by one word moves the empty count by at most one, so read it at many sizes
    sizes = list(range(1000, m + 1, 1000))
    chosen = sample_assignments(pack, Hypothesis.mixture(), sizes[-1], seed)
    empty = [m - len(np.unique(chosen[:n])) for n in sizes]
    config = TrialConfig(intrinsic_dim=1, ambient_dim=2, radius=pack.radius, n=0, trials=1, master_seed=15522)
    for side, rejected in ((-0.5, 1), (0.5, 0)):
        k_rejects = [e + side for e in empty]
        got = harness._count_rejections(config, pack, Hypothesis.mixture(), 1, sizes, k_rejects)
        assert got == [rejected] * len(sizes)


@pytest.mark.parametrize("m", [64, 1024, 30036])
@pytest.mark.parametrize("hyp", [Hypothesis.null(), Hypothesis.mixture()], ids=["null", "mixture"])
def test_count_path_draws_trials_longer_than_the_block(m, hyp):
    # at the shipped block a trial past 2**16 choices is drawn through _draw_kept and then
    # Generator.integers pieces; m = 30036 still has empty spheres at 2**17 + 1 choices, so a piece
    # that did not continue its trial's stream would move the count
    assert harness._DRAW_BUFFER == 1 << 16
    pack = build_pack(intrinsic_dim=1, ambient_dim=2, radius=1 / (4 * m - 2))
    assert pack.count == m
    sizes = [100, 1000, 2**16 - 1, 2**16, 2**16 + 1, 2**17, 2**17 + 1]
    stream = int(hyp.kind == "mixture")
    chosen = sample_assignments(pack, hyp, sizes[-1], trial_seed(2013, 0, stream))
    empty = [m - len(np.unique(chosen[:n])) for n in sizes]
    config = TrialConfig(intrinsic_dim=1, ambient_dim=2, radius=pack.radius, n=0, trials=1, master_seed=2013)
    for side, rejected in ((-0.5, 1), (0.5, 0)):
        got = harness._count_rejections(config, pack, hyp, stream, sizes, [e + side for e in empty])
        assert got == [rejected] * len(sizes)


def test_count_path_memory_on_trials_longer_than_the_block_is_bounded():
    # a side of trials of 2**18 choices holds one block-wide piece at a time, about 1.3 MB; a word buffer
    # sized by the trial takes it to about 2.1 MB, and a choice buffer sized by it adds 1.5 MB
    pack = build_pack(**M64)
    config = TrialConfig(**M64, n=2**18, trials=3, master_seed=1)
    for hyp, stream in ((Hypothesis.null(), 0), (Hypothesis.mixture(), 1)):
        harness._count_rejections(replace(config, trials=1), pack, hyp, stream, [2**18], [0.0])  # first-call caches
        tracemalloc.start()
        try:
            harness._count_rejections(config, pack, hyp, stream, [2**18], [0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_800_000, hyp


def test_count_path_holds_no_word_buffers_for_trials_longer_than_the_block(monkeypatch):
    # such a side draws through _draw_kept and Generator.integers alone: it traced 1.05 MB at m = 64 with
    # 3 trials of 2**18 choices, and 1.31 MB while it still allocated the 256 KB raw-word buffer
    def refused(*args, **kwargs):
        raise AssertionError("allocated word buffers for trials that read no raw words")

    monkeypatch.setattr(geometry, "_word_buffers", refused)
    pack = build_pack(**M64)
    config = TrialConfig(**M64, n=2**18, trials=3, master_seed=1)
    for hyp, stream in ((Hypothesis.null(), 0), (Hypothesis.mixture(), 1)):
        harness._count_rejections(replace(config, trials=1), pack, hyp, stream, [2**18], [0.0])  # first-call caches
        tracemalloc.start()
        try:
            harness._count_rejections(config, pack, hyp, stream, [2**16 + 1, 2**18], [0.0, 0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_200_000, hyp


def test_a_long_count_trial_holds_one_piece_at_a_time():
    # each piece is let go before the next is drawn: 0.53 MB traced at m = 64 with 3 trials of 2**18
    # choices, against 1.05 MB while the last piece stayed bound during the next one's allocation
    pack = build_pack(**M64)
    config = TrialConfig(**M64, n=2**18, trials=3, master_seed=1)
    for hyp, stream in ((Hypothesis.null(), 0), (Hypothesis.mixture(), 1)):
        harness._count_rejections(replace(config, trials=1), pack, hyp, stream, [2**18], [0.0])  # first-call caches
        tracemalloc.start()
        try:
            harness._count_rejections(config, pack, hyp, stream, [2**16 + 1, 2**18], [0.0, 0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800_000, hyp


def test_sample_complexity_refuses_past_the_draw_limit_summed_over_candidates(monkeypatch):
    # each candidate alone stays under the limit; 10 * (0 + 1 + ... + 13) = 910 does too, and n = 14 passes it
    monkeypatch.setattr(harness, "_MAX_DRAWS", 1000)
    drawn = []
    estimates = harness._estimates

    def recorded(config, pack, sizes, reports):
        drawn.append(sizes[0])
        return estimates(config, pack, sizes, reports)

    monkeypatch.setattr(harness, "_estimates", recorded)
    config = TrialConfig(**M64, n=1, trials=10, master_seed=1, test_kind="occupancy")
    message = "n = 14 draw 140 sphere choices a side after 910 on earlier candidates, above the limit of 1000"
    with pytest.raises(ValueError, match=message):
        sample_complexity(config, 0.5, range(10**12))
    assert drawn == list(range(14))
    # the likelihood-ratio test answers exactly and draws nothing
    assert sample_complexity(replace(config, test_kind="lrt"), 0.25, range(10**12)) == 345


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


SIDES = ((Hypothesis.null(), harness._NULL_STREAM), (Hypothesis.mixture(), harness._MIXTURE_STREAM))


def trial_samples(config, hypothesis, stream):
    pack = build_pack(config.intrinsic_dim, config.ambient_dim, config.radius)
    for t in range(config.trials):
        yield pack, sample(pack, hypothesis, config.n, trial_seed(config.master_seed, t, stream))


@pytest.mark.parametrize(
    "shape, n, trials, scale",
    [
        ((1, 2, 1 / 16), 200, 45, 0.03),  # 20 trials a batch on the cells, the last batch of 5
        ((1, 2, 1 / 16), 200, 45, 0.01),  # some batches on the cells, some on the sweep
        ((2, 3, 1 / 8), 150, 30, 0.09),  # D = 3 on the cells
        ((1, 2, 1 / 16), 16, 300, 0.12),  # 256 trials a batch on the sweep
        ((1, 2, 0.15), 1, 50, 0.15),  # one point a trial
        ((1, 3, 1 / 16), 5000, 2, None),  # more points than one batch holds: one trial a batch
    ],
)
def test_batched_estimator_trials_reject_as_one_estimator_call_each(shape, n, trials, scale):
    config = TrialConfig(*shape, n=n, trials=trials, master_seed=29, test_kind="estimator", scale=scale)
    for hypothesis, stream in SIDES:
        want = 0
        for pack, drawn in trial_samples(config, hypothesis, stream):
            profile = homology_estimator(pack, drawn, pack.radius if scale is None else scale, point_budget=0)
            want += plugin_decision(profile, pack)
        assert harness._estimator_rejections(config, harness._build(config), hypothesis, stream, n) == want


def test_estimator_trials_are_refused_as_homology_estimator_refuses_them(monkeypatch):
    config = TrialConfig(**M4, n=200, trials=30, master_seed=1, test_kind="estimator")
    with pytest.raises(ValueError, match=r"^scale 0.5 outside \(0, 0.125\); spheres would merge or nothing connects$"):
        mc_risk(replace(config, scale=0.5))
    with pytest.raises(ValueError, match="^cannot estimate homology from an empty sample$"):
        mc_risk(replace(config, n=0))
    # at 3000 candidate pairs a trial, about half of the 200-point trials are over the limit;
    # the side names the first of them, as the trial-by-trial estimator did
    monkeypatch.setattr(homology, "_MAX_PAIRS", 3000)
    messages = []
    for pack, drawn in trial_samples(config, Hypothesis.null(), harness._NULL_STREAM):
        try:
            homology_estimator(pack, drawn, pack.radius, point_budget=0)
        except ValueError as refused:
            messages.append(str(refused))
    assert 0 < len(messages) < config.trials
    with pytest.raises(ValueError) as refused:
        mc_risk(config)
    assert str(refused.value) == messages[0]


def test_estimator_side_memory_is_bounded():
    # A side holds one batch of at most _BATCH_POINTS points and the grouped count's one block of at most
    # _BLOCK_FLOATS words, plus arrays of a few words a point: under 8 * (_BLOCK_FLOATS + 8 * _BATCH_POINTS)
    # bytes, 1.3 MB.  The README m = 4 pack at n = 200 traced 0.93 MB at 4096 points a batch, 1.46 MB at
    # 8192 and 2.27 MB at 16 384
    config = TrialConfig(**M4, n=200, trials=200, master_seed=1, test_kind="estimator")
    pack = harness._build(config)
    harness._estimator_rejections(replace(config, trials=2), pack, Hypothesis.null(), harness._NULL_STREAM, 200)
    tracemalloc.start()
    try:
        harness._estimator_rejections(config, pack, Hypothesis.null(), harness._NULL_STREAM, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (homology._BLOCK_FLOATS + 8 * harness._BATCH_POINTS)


def test_estimator_side_memory_is_bounded_when_every_trial_falls_back(monkeypatch):
    # at a zero margin no point passes the circle check, so every trial of every batch is counted twice,
    # from its spacings and then by the grouped count, under the same bound as the one count
    fallbacks = []
    components = homology._components

    def recorded(pts, scale):
        fallbacks.append(pts.shape[0])
        return components(pts, scale)

    monkeypatch.setattr(homology, "_components", recorded)
    monkeypatch.setattr(homology, "_CIRCLE_MARGIN", 0.0)
    config = TrialConfig(**M4, n=200, trials=200, master_seed=1, test_kind="estimator")
    pack = harness._build(config)
    harness._estimator_rejections(replace(config, trials=2), pack, Hypothesis.null(), harness._NULL_STREAM, 200)
    fallbacks.clear()
    tracemalloc.start()
    try:
        harness._estimator_rejections(config, pack, Hypothesis.null(), harness._NULL_STREAM, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fallbacks == [20] * 10
    assert peak < 8 * (homology._BLOCK_FLOATS + 8 * harness._BATCH_POINTS)


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


README_SIZES = range(200, 601, 25)


def test_lrt_miss_prob_is_entry_zero_of_the_null_law():
    # sweep rows read miss_prob off the law their exact columns came from
    pairs = [(64, n) for n in README_SIZES] + [(2, 5), (256, 1500), (513, 1850), (1000, 7601), (4096, 36909)]
    for m, n in pairs:
        law = occupancy.empty_count_distribution(m, n).probs
        assert prob_all_occupied(m, n).hex() == float(law[0]).hex(), (m, n)
    config = TrialConfig(**M64, n=0, trials=3, master_seed=5, test_kind="lrt")
    for row in sweep_n(config, README_SIZES):
        assert row.miss_prob == 1.0 - prob_all_occupied(64, row.n)


def test_sweep_rejects_disordered_sizes():
    config = TrialConfig(**M2, n=1, trials=10, master_seed=9)
    with pytest.raises(ValueError):
        sweep_n(config, [5, 5, 9])
    with pytest.raises(ValueError):
        sweep_n(config, [9, 5])
    with pytest.raises(ValueError):
        sweep_n(config, [])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sweep_n(TrialConfig(**M2, n=1, trials=10, master_seed=9), [2.5, 3.7]), "sample size .* got 2.5"),
        (lambda: TrialConfig(**M2, n=2.5, trials=10, master_seed=9), "sample size .* got 2.5"),
        (lambda: TrialConfig(**M2, n=2, trials=2.5, master_seed=9), "trials .* got 2.5"),
    ],
    ids=["sweep-sizes", "config-n", "config-trials"],
)
def test_non_integral_sizes_and_trials_are_refused(call, message):
    with pytest.raises(TypeError, match=rf"{message}$"):
        call()


def test_numpy_integer_sizes_and_trials_are_read_as_ints():
    config = TrialConfig(**M2, n=np.int64(5), trials=np.uint16(10), master_seed=9)
    assert type(config.n) is int and type(config.trials) is int
    assert mc_risk(config) == mc_risk(replace(config, n=5, trials=10))
    assert [row.n for row in sweep_n(config, np.array([2, 5]))] == [2, 5]
    with pytest.raises(TypeError, match="sample size must be an integer, got 3.0"):
        sweep_n(config, [2, 3.0])  # even a whole float


def test_master_seed_must_be_an_integer():
    # a float seed used to be truncated, so 2, 2.5 and 2.9 shared every substream
    for seed in (2.5, 2.0, "2"):
        with pytest.raises(TypeError, match=rf"master seed must be an integer, got {seed!r}$"):
            TrialConfig(**M2, n=3, trials=10, master_seed=seed)
    config = TrialConfig(**M2, n=3, trials=10, master_seed=np.uint64(2))
    assert type(config.master_seed) is int
    assert mc_risk(config) == mc_risk(replace(config, master_seed=2))


def test_master_seed_outside_the_hash_range_is_refused():
    # seeds are hashed mod 2**64, so -1 and 2**64 used to alias 2**64 - 1 and 0
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(ValueError, match=rf"master seed {seed} outside 0\.\.{2**64 - 1}$"):
            TrialConfig(**M2, n=3, trials=10, master_seed=seed)
    assert mc_risk(TrialConfig(**M2, n=3, trials=50, master_seed=2**64 - 1)).trials == 50


def test_estimator_sweep_rows_equal_mc_risk_at_each_size():
    config = TrialConfig(**M4, n=0, trials=30, master_seed=23, test_kind="estimator", scale=1 / 16)
    for row in sweep_n(config, [10, 40]):
        est = mc_risk(replace(config, n=row.n))
        assert (row.type1_hat, row.type2_hat, row.stderr) == (est.type_I_hat, est.type_II_hat, est.stderr)
        assert row.exact_type1 is None and row.exact_type2 is None


def test_sweep_respects_delta_for_envelope():
    config = TrialConfig(**M2, n=1, trials=10, master_seed=9, delta=0.05)
    (row,) = sweep_n(config, [4])
    assert row.rate_envelope == 0.05  # capped by the configured delta


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -0.5, math.nan])
def test_bad_delta_fails_before_any_trial(delta, monkeypatch):
    def no_trials(config):
        raise AssertionError("mc_risk ran before delta was checked")

    monkeypatch.setattr(harness, "mc_risk", no_trials)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        sweep_n(TrialConfig(**M4, n=10, trials=20000, master_seed=1, delta=delta), [10, 20])


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


def test_sample_complexity_scans_a_range_without_listing_it():
    config = TrialConfig(**M64, n=1, trials=1, master_seed=1, test_kind="lrt")
    assert sample_complexity(config, 0.25, range(10**12)) == 345
    assert sample_complexity(config, 0.25, range(400, 399, -1)) == 400
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_complexity(config, 0.25, range(10**12, 0, -1))
    with pytest.raises(ValueError, match="no candidate sample sizes"):
        sample_complexity(config, 0.25, range(5, 5))
    with pytest.raises(ValueError, match="sample size must be >= 0"):
        sample_complexity(config, 0.25, range(-3, 5))
    one_sphere = TrialConfig(intrinsic_dim=1, ambient_dim=2, radius=0.3, n=1, trials=1, master_seed=1)
    with pytest.raises(ValueError, match="at least two spheres"):
        sample_complexity(one_sphere, 0.25, range(10))


def test_sample_complexity_scan_refuses_past_work_limit(monkeypatch):
    config = TrialConfig(**M64, n=1, trials=1, master_seed=1, test_kind="lrt")
    monkeypatch.setattr(occupancy, "_RECURRENCE_WORK", 64 * 345)
    assert sample_complexity(config, 0.25, range(10**12)) == 345
    monkeypatch.setattr(occupancy, "_RECURRENCE_WORK", 64 * 344)
    with pytest.raises(ValueError, match=f"needs {64 * 345} bin updates, above the limit of {64 * 344}"):
        sample_complexity(config, 0.25, range(10**12))


def test_sample_complexity_confirms_once_per_answer(monkeypatch):
    calls = []
    exact = harness.lrt.exact_lrt_risk
    monkeypatch.setattr(harness.lrt, "exact_lrt_risk", lambda m, n: calls.append((m, n)) or exact(m, n))
    # at m = 256 a per-candidate exact scan takes about a minute
    for dims, epsilon, answer in ((M64, 0.25, 345), (M64, 0.05, 453), (M256, 0.25, 1737)):
        calls.clear()
        config = TrialConfig(**dims, n=1, trials=1, master_seed=1, test_kind="lrt")
        assert sample_complexity(config, epsilon, range(2001)) == answer
        assert calls == [(build_pack(**dims).count, answer)]


def _exact_total(m):
    return lambda n: exact_lrt_risk(m, n).total


@st.composite
def scan_cases(draw):
    """(m, epsilon, strictly increasing sizes), epsilon often an exact total or just below one."""
    m = draw(st.integers(2, 80))
    start = draw(st.integers(0, 12 * m))
    if draw(st.booleans()):
        sizes = list(range(start, start + draw(st.integers(1, 40))))
    else:
        gaps = draw(st.lists(st.integers(1, 3 * m), max_size=15))
        sizes = list(itertools.accumulate([start, *gaps]))
    kind = draw(st.sampled_from(["free", "tie", "below_tie"]))
    if kind == "free":
        epsilon = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    else:
        tie = exact_lrt_risk(m, draw(st.sampled_from(sizes))).total
        epsilon = tie if kind == "tie" else math.nextafter(tie, 0.0)
    assume(0.0 < epsilon <= 1.0)
    return m, epsilon, sizes


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_stepped_scan_matches_per_candidate_exact_scan(case):
    m, epsilon, sizes = case
    assert harness.lrt._first_passing_size(m, epsilon, sizes) == oracles.first_passing_size(
        _exact_total(m), epsilon, sizes
    )


@pytest.mark.parametrize(
    "m, epsilon, answer",
    [
        (512, 0.25, 3830),   # both laws on the exact-integer route
        (513, 0.9, 1850),    # m bins by the throw recurrence, m - 1 by exact integers
        (513, 0.25, 3838),   # m bins by the log series, m - 1 by exact integers
        (1000, 0.9, 4216),   # both by the throw recurrence
        (1000, 0.25, 8151),  # both by the log series
    ],
)
def test_stepped_scan_matches_exact_scan_across_routes(m, epsilon, answer):
    contiguous = range(answer - 2, answer + 3)
    gapped = [answer - 7, answer - 1, answer + 4]
    for sizes, first in ((contiguous, answer), (gapped, answer + 4)):
        assert oracles.first_passing_size(_exact_total(m), epsilon, sizes) == first
        assert harness.lrt._first_passing_size(m, epsilon, sizes) == first
    assert harness.lrt._first_passing_size(m, epsilon, range(10**9)) == answer


def test_scan_steps_the_deletion_law_only_while_floor_t_is_positive(monkeypatch):
    # floor(64 (63/64)^n) is 0 from n = 265 on, so _tails reads the 63-bin law at n <= 264 only
    # the scan steps one pair, which carries the 63-bin row only as far as a call asks for it
    reached = {}
    real = harness.lrt._recurrence

    def recorded(m, pair=False):
        law = real(m, pair=pair)

        def asked(n, deleted=False):
            for bins in (m, m - 1) if deleted else (m,):
                reached[bins] = max(reached.get(bins, -1), n)
            return law(n, deleted=deleted)

        return asked

    monkeypatch.setattr(harness.lrt, "_recurrence", recorded)
    assert harness.lrt._first_passing_size(64, 0.25, range(10**9)) == 345
    assert reached == {64: 345, 63: 264}


def test_sweep_reads_recurrence_rows_from_one_stepper(monkeypatch):
    # m = 2000, n = 4000..16000: both laws take the throw recurrence up to 15000, the m-bin law
    # the log series from 15500 on (the threshold lies near 15190); every row equals the
    # per-row risk and the router's own tails byte for byte
    m, sizes = 2000, range(4000, 16001, 500)
    lrt = harness.lrt
    assert [lrt._takes_pair(m, n) for n in sizes] == [n <= 15000 for n in sizes]
    expected, misses = [], []
    for n in sizes:
        report, null = next(lrt._risks_and_null_laws(m, [n]))
        router = occupancy.empty_count_distribution(m, n).probs
        tails = lrt._tails(report.k_threshold, router, occupancy.empty_count_distribution(m - 1, n).probs)
        assert (report.type_I, report.type_II) == tails and null.tobytes() == router.tobytes(), n
        expected.append((report.type_I.hex(), report.type_II.hex(), (1.0 - float(null[0])).hex()))
        misses.append((1.0 - prob_all_occupied(m, n)).hex())
    pairs, rows = [], []
    real_pair, real_row = lrt._recurrence, occupancy._recurrence
    monkeypatch.setattr(lrt, "_recurrence", lambda m, pair=False: pairs.append((m, pair)) or real_pair(m, pair))
    monkeypatch.setattr(occupancy, "_recurrence", lambda m, pair=False: rows.append((m, pair)) or real_row(m, pair))
    config = TrialConfig(intrinsic_dim=1, ambient_dim=2, radius=1 / (4 * m), n=0, trials=1, master_seed=3)
    swept = sweep_n(config, sizes)
    assert [(row.m, row.n) for row in swept] == [(m, n) for n in sizes]
    assert [(row.exact_type1.hex(), row.exact_type2.hex(), row.miss_prob.hex()) for row in swept] == expected
    assert pairs == [(m, True)] and rows == []
    # occupancy rows read P(K = 0) off one one-row stepper wherever the router takes the recurrence
    pairs.clear()
    swept = sweep_n(replace(config, test_kind="occupancy"), sizes)
    assert [row.miss_prob.hex() for row in swept] == misses
    assert pairs == [] and rows == [(m, False)]


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
