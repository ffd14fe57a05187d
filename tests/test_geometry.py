import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from homrisk import (
    Hypothesis,
    SpherePack,
    assign,
    assign_points,
    build_pack,
    density_floor,
    derive_seed,
    geometry,
    load_points,
    sample,
    sample_assignments,
    save_points,
    sphere_surface_measure,
    summarize,
    unit_ball_volume,
    validate_pack,
)


def hand_pack(d, big_d, radius, centers, grid_size=None):
    centers = np.asarray(centers, dtype=float)
    m = len(centers)
    total = m * sphere_surface_measure(d) * radius**d
    return SpherePack(d, big_d, radius, m if grid_size is None else grid_size, m, centers, total)


def test_build_line_pack_in_plane():
    pack = build_pack(1, 2, 1 / 16)
    assert pack.grid_size == 4
    assert pack.count == 4
    xs = sorted(pack.centers[:, 0].tolist())
    assert xs == [0.0625, 0.3125, 0.5625, 0.8125]
    assert np.all(pack.centers[:, 1] == 0.0625)


def test_build_surface_pack_in_three_space():
    pack = build_pack(2, 3, 1 / 8)
    assert pack.grid_size == 2
    assert pack.count == 4
    diffs = pack.centers[None, :, :] - pack.centers[:, None, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    off_diag = dists[~np.eye(4, dtype=bool)]
    # nearest centers differ by 4*tau = 1/2 along one grid axis
    assert off_diag.min() == 0.5


def test_build_rejects_bad_dimensions_and_radius():
    with pytest.raises(ValueError):
        build_pack(1, 1, 1 / 16)
    with pytest.raises(ValueError):
        build_pack(0, 2, 1 / 16)
    with pytest.raises(ValueError):
        build_pack(1, 2, 0.5)
    with pytest.raises(ValueError):
        build_pack(1, 2, 0.0)
    with pytest.raises(ValueError):
        build_pack(1, 2, -0.1)


def test_build_rejects_oversized_pack_before_allocating(monkeypatch):
    # d = 3, tau = 1e-4: 2500**3 = 1.5625e10 spheres
    with pytest.raises(ValueError, match=r"above the limit of 134217728"):
        build_pack(3, 4, 1e-4)
    # the limit counts center coordinates, m * D: m = 4 circles in the plane is 8
    monkeypatch.setattr(geometry, "_MAX_PACK_FLOATS", 8)
    assert build_pack(1, 2, 1 / 16).count == 4
    with pytest.raises(ValueError, match=r"12 center coordinates, above the limit of 8"):
        build_pack(1, 3, 1 / 16)


def test_validate_pack_accepts_built_packs():
    for d, big_d, tau in [(1, 2, 1 / 16), (2, 3, 1 / 8), (3, 5, 1 / 16), (1, 4, 1 / 256)]:
        report = validate_pack(build_pack(d, big_d, tau))
        assert report.all_passed, [c for c in report.checks if not c.passed]


def test_validate_pack_flags_crowded_centers():
    # 3*tau spacing violates the 4*tau separation rule
    tau = 1 / 16
    bad = hand_pack(1, 2, tau, [[tau, tau], [4 * tau, tau]])
    report = validate_pack(bad)
    by_name = {c.name: c.passed for c in report.checks}
    assert not by_name["separation"]
    assert not report.all_passed


def test_density_floor_examples():
    assert density_floor(build_pack(1, 2, 1 / 16)) == pytest.approx(2 / math.pi, rel=1e-12)
    assert density_floor(build_pack(2, 3, 1 / 8)) == pytest.approx(4 / math.pi, rel=1e-12)


def test_density_floor_single_circle_of_unit_length():
    # one circle of circumference exactly 1: the floor is exactly 1
    tau = 1 / (2 * math.pi)
    pack = hand_pack(1, 2, tau, [[tau, tau]])
    assert pack.total_volume == 1.0
    assert density_floor(pack) == 1.0


def test_surface_measure_and_ball_volume():
    assert sphere_surface_measure(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_surface_measure(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    with pytest.raises(ValueError):
        sphere_surface_measure(0)


@settings(max_examples=40, deadline=None)
@given(s=st.integers(min_value=4, max_value=9), d=st.integers(min_value=1, max_value=3))
def test_dyadic_radius_count_is_tight(s, d):
    # at tau = 2**-s the grid side equals 1/(4 tau) exactly
    tau = 2.0**-s
    pack = build_pack(d, d + 1, tau)
    per_axis = round(1 / (4 * tau))
    assert pack.grid_size == per_axis
    assert pack.count == per_axis**d
    assert (1 / (8 * tau)) ** d <= pack.count <= (1 / (4 * tau)) ** d


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(min_value=0.004, max_value=0.0625, allow_nan=False),
    d=st.integers(min_value=1, max_value=3),
)
def test_count_bounds_general_radius(tau, d):
    # general tau: the guaranteed upper bound uses the integer grid side
    assume(math.ceil(1 / (4 * tau)) ** d <= 5000)
    pack = build_pack(d, d + 1, tau)
    assert (1 / (8 * tau)) ** d <= pack.count
    assert pack.count <= math.ceil(1 / (4 * tau)) ** d
    report = validate_pack(pack)
    assert {c.name: c.passed for c in report.checks}["count_bounds"]


def test_sample_points_lie_on_sphere_surfaces():
    pack = build_pack(2, 4, 1 / 8)
    drawn = sample(pack, Hypothesis.null(), 500, seed=11)
    assert drawn.points.shape == (500, 4)
    labels = assign_points(pack, drawn.points)
    centers = pack.centers[labels - 1]
    radii = np.sqrt(((drawn.points - centers) ** 2).sum(axis=1))
    assert np.abs(radii - pack.radius).max() <= 1e-9


def test_sample_unused_ambient_coordinates_are_zero():
    pack = build_pack(1, 5, 1 / 16)
    drawn = sample(pack, Hypothesis.null(), 200, seed=3)
    # spheres only span the first d+1 coordinates
    assert np.all(drawn.points[:, 2:] == 0.0)


def test_sample_zero_points():
    pack = build_pack(1, 2, 1 / 16)
    drawn = sample(pack, Hypothesis.null(), 0, seed=1)
    assert drawn.points.shape == (0, 2)
    assert drawn.n == 0


def test_sample_refuses_arrays_above_the_limit_before_drawing(monkeypatch):
    # 100 points in the plane hold 100 * (2 + 2) floats, and 100 choices
    pack = build_pack(1, 2, 1 / 16)
    monkeypatch.setattr(geometry, "_MAX_PACK_FLOATS", 400)
    assert sample(pack, Hypothesis.null(), 100, seed=1).n == 100
    with pytest.raises(ValueError, match=r"101 points need 404 array values, above the limit of 400"):
        sample(pack, Hypothesis.mixture(), 101, seed=1)
    monkeypatch.setattr(geometry, "_MAX_PACK_FLOATS", 100)
    assert sample_assignments(pack, Hypothesis.null(), 100, seed=1).size == 100
    with pytest.raises(ValueError, match=r"101 points need 101 array values, above the limit of 100"):
        sample_assignments(pack, Hypothesis.mixture(), 101, seed=1)
    # the unpatched limit refuses 2**32 choices, 32 GiB, before any draw
    monkeypatch.undo()
    monkeypatch.setattr(geometry, "_draw_kept", None)
    for call in (sample, sample_assignments):
        with pytest.raises(ValueError, match=r"above the limit of 134217728"):
            call(pack, Hypothesis.null(), 2**32, seed=1)


def test_alternate_never_hits_deleted_sphere():
    pack = build_pack(1, 2, 1 / 16)
    for seed in range(5):
        drawn = sample(pack, Hypothesis.alternate(3), 400, seed=seed)
        assert drawn.realized_removed_index == 3
        labels = assign_points(pack, drawn.points)
        assert 3 not in labels
        assert set(np.unique(labels)) <= {1, 2, 4}


def test_mixture_respects_its_own_deletion():
    pack = build_pack(1, 2, 1 / 16)
    seen_removed = set()
    for seed in range(12):
        drawn = sample(pack, Hypothesis.mixture(), 300, seed=seed)
        removed = drawn.realized_removed_index
        assert 1 <= removed <= 4
        seen_removed.add(removed)
        counts = summarize(pack, drawn).counts
        assert counts[removed - 1] == 0
    assert len(seen_removed) >= 2  # the deletion really varies with the seed


def test_hypothesis_validation():
    with pytest.raises(ValueError):
        Hypothesis("nil")
    with pytest.raises(ValueError):
        Hypothesis("alternate")
    with pytest.raises(ValueError):
        Hypothesis("null", index=1)
    pack = build_pack(1, 2, 1 / 16)
    with pytest.raises(ValueError):
        sample(pack, Hypothesis.alternate(5), 10, seed=0)


def test_sample_is_deterministic_per_seed():
    pack = build_pack(2, 3, 1 / 8)
    a = sample(pack, Hypothesis.mixture(), 250, seed=42)
    b = sample(pack, Hypothesis.mixture(), 250, seed=42)
    assert np.array_equal(a.points, b.points)
    assert a.realized_removed_index == b.realized_removed_index
    c = sample(pack, Hypothesis.mixture(), 250, seed=43)
    assert not np.array_equal(a.points, c.points)
    # one generator re-keyed to each seed in turn, as the estimator's trials draw, gives the same bytes
    rng = geometry._keyed(0)
    for seed, want in ((42, a), (43, c), (42, a)):
        points, removed = geometry._sample_batch(pack, Hypothesis.mixture(), 250, [seed], rng)
        assert points[0].tobytes() == want.points.tobytes()
        assert int(removed[0]) == want.realized_removed_index


SAMPLER_PACKS = [build_pack(1, 2, 1 / 16), build_pack(1, 3, 0.15), build_pack(2, 3, 1 / 8), build_pack(3, 4, 1 / 8)]


def sampler_hypotheses(pack):
    return [Hypothesis.null(), Hypothesis.mixture(), Hypothesis.alternate(1), Hypothesis.alternate(pack.count)]


def assert_reference_rows(pack, hyp, n, seeds, points, removed):
    for i, seed in enumerate(seeds):
        want = geometry._sample_reference(pack, hyp, n, seed, None)
        assert points[i].tobytes() == want.points.tobytes(), (pack.count, hyp, n, i)
        assert (None if removed is None else int(removed[i])) == want.realized_removed_index


@pytest.mark.parametrize("pack", SAMPLER_PACKS, ids=["d1D2", "d1D3-m2", "d2D3", "d3D4"])
def test_batched_sampler_gives_the_reference_bytes(pack):
    # the m = 2 pack keeps one sphere under a deletion, where numpy draws no word for the choices
    seeds = [derive_seed(2013, t, 1) for t in range(7)]
    for hyp, n in itertools.product(sampler_hypotheses(pack), (0, 1, 2, 7, 200)):
        for rng in (None, geometry._keyed(0)):  # new generators, or one re-keyed across the batches
            for block in (seeds[:1], seeds, seeds[2:5]):  # batches of one and of odd sizes
                points, removed = geometry._sample_batch(pack, hyp, n, block, rng)
                assert points.shape == (len(block), n, pack.ambient_dim)
                assert_reference_rows(pack, hyp, n, block, points, removed)
        drawn = sample(pack, hyp, n, seeds[3])
        want = geometry._sample_reference(pack, hyp, n, seeds[3], None)
        assert drawn.points.tobytes() == want.points.tobytes()
        assert drawn.realized_removed_index == want.realized_removed_index


@pytest.mark.parametrize("cause", ["zone", "norm"])
def test_batched_sampler_draws_flagged_trials_again_through_the_reference(monkeypatch, cause):
    # flagging words numpy accepted, or raising the norm floor to 1.5, under which a third to two thirds
    # of the Gaussians fall, sends trials to the reference, whose bytes they then hold
    redrawn = []
    reference = geometry._sample_reference

    def recorded(pack, hyp, n, seed, rng):
        redrawn.append(seed)
        return reference(pack, hyp, n, seed, rng)

    monkeypatch.setattr(geometry, "_sample_reference", recorded)
    if cause == "zone":
        monkeypatch.setattr(geometry, "_in_zone", lambda products, bound: np.arange(len(products)) % 3 == 1)
    else:
        monkeypatch.setattr(geometry, "_MIN_NORM", 1.5)
    seeds = [derive_seed(7, t, 0) for t in range(7)]
    for pack in SAMPLER_PACKS:
        for hyp in sampler_hypotheses(pack):
            redrawn.clear()
            points, removed = geometry._sample_batch(pack, hyp, 40, seeds, geometry._keyed(0))
            if cause == "zone":
                assert redrawn == seeds[1::3]
            else:
                assert redrawn == seeds
            assert_reference_rows(pack, hyp, 40, seeds, points, removed)


def test_batched_sampler_redraws_a_removed_index_in_the_rejection_zone():
    # 2**32 mod 30036 is near 30036, and this seed puts the mixture's removed-index word in the zone,
    # where numpy draws again and every later word shifts
    m = 30036
    pack = build_pack(intrinsic_dim=1, ambient_dim=2, radius=1 / (4 * m - 2))
    seeds = [derive_seed(15522, t, 1) for t in range(3)]
    word = int(geometry._keyed(seeds[0]).bit_generator.random_raw()) & 0xFFFFFFFF
    assert pack.count == m and word * m % 2**32 < 2**32 % m
    points, removed = geometry._sample_batch(pack, Hypothesis.mixture(), 5, seeds, None)
    assert_reference_rows(pack, Hypothesis.mixture(), 5, seeds, points, removed)


def test_sampler_refuses_before_any_draw_or_allocation(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("drew or allocated before the arguments were checked")

    one = build_pack(1, 2, 0.3)
    four = build_pack(1, 2, 1 / 16)
    assert one.count == 1
    keyed = geometry._keyed(0)  # a side's generator, made before the checks
    monkeypatch.setattr(geometry, "_MAX_PACK_FLOATS", 400)
    monkeypatch.setattr(geometry, "_keyed", refused)
    for name in ("zeros", "empty", "full"):
        monkeypatch.setattr(np, name, refused)
    cases = [
        (four, Hypothesis.null(), 101, r"^101 points need 404 array values, above the limit of 400$"),
        (four, Hypothesis.mixture(), -1, r"^sample size must be >= 0$"),
        (four, Hypothesis.alternate(5), 10, r"^alternate index 5 outside 1\.\.4$"),
        (one, Hypothesis.alternate(2), 10, r"^alternate index 2 outside 1\.\.1$"),
        (one, Hypothesis.alternate(1), 10, r"^deleting a sphere requires at least two spheres$"),
        (one, Hypothesis.mixture(), 10, r"^deleting a sphere requires at least two spheres$"),
    ]
    for pack, hyp, n, message in cases:
        with pytest.raises(ValueError, match=message):
            sample(pack, hyp, n, seed=1)
        for rng in (None, keyed):
            with pytest.raises(ValueError, match=message):
                geometry._sample_batch(pack, hyp, n, [1, 2, 3], rng)


def test_raw_words_then_gaussians_golden():
    # The batched sampler reads a trial's bounded draws as raw Philox outputs, then draws its Gaussians:
    # that gives the Gaussians Generator.integers leaves only while standard_normal never reads the
    # 32-bit half an odd word count leaves buffered.  Pinned at odd and even word counts, with and
    # without a mixture's leading word, and on a range of one, where numpy draws no word
    for key, kept, lead, n in itertools.product(
        [derive_seed(2013, t, 1) for t in range(3)], (1, 3, 63, 1023), (0, 1), (0, 1, 2, 7, 200, 201)
    ):
        words = lead + (n if kept > 1 else 0)
        raw = geometry._keyed(key)
        raw.bit_generator.random_raw((words + 1) // 2)
        drawn = geometry._keyed(key)
        if lead:
            drawn.integers(1, kept + 2)
        drawn.integers(0, kept, size=n)
        assert drawn.bit_generator.state["has_uint32"] == words % 2
        assert raw.standard_normal(9).tobytes() == drawn.standard_normal(9).tobytes(), (kept, lead, n)


def test_sample_assignments_matches_full_sampler():
    pack = build_pack(1, 2, 1 / 16)
    for hyp in [Hypothesis.null(), Hypothesis.alternate(2), Hypothesis.mixture()]:
        for seed in [0, 7, 91]:
            idx = sample_assignments(pack, hyp, 120, seed=seed)
            full = assign_points(pack, sample(pack, hyp, 120, seed=seed).points) - 1
            assert np.array_equal(idx, full)


@pytest.mark.parametrize("tau", [0.15, 1 / 16, 1 / 256])
def test_deletion_by_index_offset_matches_np_delete(tau):
    # kept-sphere draw c names sphere c + (c >= removed - 1): the values and
    # dtype that indexing np.delete(arange(m), removed - 1) with c gives
    pack = build_pack(1, 2, tau)
    m = pack.count
    for seed in (0, 5, 2**63 + 1):
        for removed in sorted({1, 2, m // 2 + 1, m}):
            draws = np.random.Generator(np.random.Philox(key=seed)).integers(0, m - 1, size=300)
            expected = np.delete(np.arange(m), removed - 1)[draws]
            got = sample_assignments(pack, Hypothesis.alternate(removed), 300, seed)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        draws = np.random.Generator(np.random.Philox(key=seed)).integers(0, m, size=300)
        assert np.array_equal(sample_assignments(pack, Hypothesis.null(), 300, seed), draws)


def test_assign_on_surface_and_between_spheres():
    pack = build_pack(1, 2, 1 / 16)
    tau = pack.radius
    on_surface = pack.centers[0] + np.array([tau, 0.0])
    assert assign(pack, on_surface) == 1
    # midpoint between adjacent spheres is tau beyond either surface
    midpoint = (pack.centers[0] + pack.centers[1]) / 2
    with pytest.raises(ValueError):
        assign(pack, midpoint)
    with pytest.raises(ValueError):
        assign_points(pack, np.zeros((1, 3)))


def test_assign_tie_goes_to_lower_index():
    # degenerate hand-built pack: two touching circles, midpoint on both
    tau = 1 / 8
    pack = hand_pack(1, 2, tau, [[tau, tau], [3 * tau, tau]])
    assert assign(pack, [2 * tau, tau]) == 1


def test_assign_rejects_nan_coordinates():
    pack = build_pack(1, 2, 1 / 16)
    with pytest.raises(ValueError):
        assign(pack, [math.nan, 0.0625])
    with pytest.raises(ValueError):
        assign_points(pack, [[0.0625 + 1 / 16, 0.0625], [0.0625, math.nan]])


def assert_assignment_matches_oracle(pack, points):
    """Each point alone, then the accepted ones together, against brute force."""
    accepted, expected = [], []
    for p, (j, d2) in zip(points, oracles.nearest_centers(points, pack.centers.tolist())):
        if abs(math.sqrt(d2) - pack.radius) <= 0.5 * pack.radius:
            assert assign(pack, p) == j + 1
            accepted.append(p)
            expected.append(j + 1)
        else:
            with pytest.raises(ValueError):
                assign(pack, p)
    if accepted:
        assert assign_points(pack, np.array(accepted)).tolist() == expected


def assert_separation_matches_oracle(pack):
    detail = {c.name: c.detail for c in validate_pack(pack).checks}["separation"]
    nearest = oracles.min_center_distance(pack.centers.tolist())
    assert detail.startswith(f"min center distance {nearest:.6g} against")


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=2, max_value=3),
    tau=st.floats(min_value=0.065, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grid_assignment_and_separation_match_brute_force(d, extra, tau, seed):
    pack = build_pack(d, d + extra, tau)
    rng = np.random.default_rng(seed)
    drawn = sample(pack, Hypothesis.null(), 30, seed=seed).points
    # noise up to 3/2 radius in every ambient direction: some rows stay
    # within the radius/2 rejection edge, some cross it
    noise = rng.standard_normal(drawn.shape)
    noise *= 1.5 * tau * rng.random((len(drawn), 1)) / np.linalg.norm(noise, axis=1, keepdims=True)
    # rows pushed past the first or last center along one axis
    beyond = pack.centers[rng.integers(0, pack.count, size=12)].copy()
    lo, hi = pack.centers[0], pack.centers[-1]
    for row, axis, step in zip(beyond, rng.integers(0, d, size=12), rng.random(12)):
        row[axis] = lo[axis] - 2 * tau * step if step < 0.5 else hi[axis] + 2 * tau * step
    assert_assignment_matches_oracle(pack, np.concatenate([drawn, drawn + noise, beyond]))
    assert_separation_matches_oracle(pack)


def product_pack(d, big_d, tau, axis):
    """Hand-built pack whose first d axes all take the given coordinates."""
    g = len(axis)
    centers = np.zeros((g**d, big_d))
    centers[:, :d] = np.asarray(axis)[np.indices((g,) * d).reshape(d, -1).T]
    centers[:, d] = tau
    return hand_pack(d, big_d, tau, centers, grid_size=g)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_assignment_ties_on_touching_pack(d):
    # two touching spheres per axis: coordinates in {tau, 2 tau, 3 tau} sit
    # on a center or on a midplane, so every distance and tie is exact
    tau = 1 / 8
    pack = product_pack(d, d + 2, tau, [tau, 3 * tau])
    points = np.zeros((3**d, d + 2))
    points[:, :d] = tau * (1 + np.indices((3,) * d).reshape(d, -1).T)
    points[:, d] = tau
    assert_assignment_matches_oracle(pack, points)
    tie = pack.centers[0].copy()
    tie[: min(d, 2)] = 2 * tau  # equidistant from 2 or 4 centers, within the edge
    assert assign(pack, tie) == 1
    assert_separation_matches_oracle(pack)


@pytest.mark.parametrize("d", [1, 2])
def test_grid_assignment_on_uneven_pack(d):
    # gaps 4, 3.5 and 5 radii: the separation is the smallest, 3.5 radii
    tau = 1 / 32
    pack = product_pack(d, d + 2, tau, [tau, 5 * tau, 8.5 * tau, 13.5 * tau])
    rng = np.random.default_rng(d)
    drawn = sample(pack, Hypothesis.null(), 40, seed=d).points
    assert_assignment_matches_oracle(pack, drawn + rng.uniform(-tau, tau, drawn.shape))
    assert_separation_matches_oracle(pack)
    assert not {c.name: c.passed for c in validate_pack(pack).checks}["separation"]


def test_sphere_pack_rejects_non_grid_centers():
    tau = 1 / 16
    a, b = tau, 5 * tau
    not_product = (2, 2, [[a, a, tau], [a, b, tau], [b, a, tau], [b, 3 * tau, tau]])
    descending = (1, 2, [[b, tau], [a, tau]])
    varying_offset = (1, 2, [[a, tau], [b, 2 * tau]])
    for d, g, centers in (not_product, descending, varying_offset):
        with pytest.raises(ValueError):
            hand_pack(d, len(centers[0]), tau, centers, grid_size=g)
    with pytest.raises(ValueError):  # count != grid_size**d
        SpherePack(1, 2, tau, 2, 3, np.array([[a, tau], [b, tau], [9 * tau, tau]]), 1.0)
    with pytest.raises(ValueError):  # count agrees, centers do not
        SpherePack(1, 2, tau, 2, 2, np.array([[a, tau], [b, tau], [9 * tau, tau]]), 1.0)


def test_null_sampling_is_uniform_over_spheres():
    from scipy.stats import chi2

    pack = build_pack(1, 2, 1 / 16)
    n = 100_000
    counts = summarize(pack, sample(pack, Hypothesis.null(), n, seed=2024)).counts
    expected = n / pack.count
    sd = math.sqrt(n * 0.25 * 0.75)
    assert np.abs(counts - expected).max() <= 4 * sd
    chi2_stat = ((counts - expected) ** 2 / expected).sum()
    assert chi2_stat < chi2.ppf(0.999, pack.count - 1)


def test_angles_on_one_sphere_are_uniform():
    from scipy.stats import chisquare

    pack = build_pack(1, 2, 1 / 16)
    drawn = sample(pack, Hypothesis.null(), 80_000, seed=5)
    labels = assign_points(pack, drawn.points)
    first = drawn.points[labels == 1] - pack.centers[0]
    angles = np.arctan2(first[:, 1], first[:, 0])
    binned, _ = np.histogram(angles, bins=20, range=(-math.pi, math.pi))
    assert chisquare(binned).pvalue > 1e-3


def test_save_and_load_points_roundtrip(tmp_path):
    pack = build_pack(2, 3, 1 / 8)
    pts = sample(pack, Hypothesis.null(), 50, seed=9).points
    path = tmp_path / "pts.csv"
    save_points(path, pts)
    assert np.array_equal(load_points(path), pts)


def test_load_points_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_points(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.1,0.2\n0.3\n")
    with pytest.raises(ValueError):
        load_points(ragged)
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("0.1,spam\n")
    with pytest.raises(ValueError):
        load_points(garbled)


def test_derive_seed_is_stable_and_distinct():
    s = derive_seed(12345, 0, 1)
    assert s == derive_seed(12345, 0, 1)
    assert 0 <= s < 2**64
    others = {derive_seed(12345, t, c) for t in range(20) for c in (0, 1)}
    assert len(others) == 40
    assert derive_seed(1) != derive_seed(2)
