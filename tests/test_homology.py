import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from homrisk import (
    Hypothesis,
    SpherePack,
    betti,
    betti0_linkage,
    build_pack,
    homology_estimator,
    rips,
    sample,
    sample_assignments,
    sphere_surface_measure,
)
from homrisk import homology
from homrisk.homology import _boundary_rank, _clique_levels, _gf2_rank_columns, _scale_edges


def circle_points(count, radius=1.0, center=(0.0, 0.0)):
    angles = 2 * math.pi * np.arange(count) / count
    return np.stack(
        [center[0] + radius * np.cos(angles), center[1] + radius * np.sin(angles)], axis=1
    )


def test_rips_far_points_have_no_edges():
    cx = rips(np.array([[0.0, 0.0], [3.0, 0.0]]), scale=1.0, max_dim=1)
    assert cx.simplex_counts == (2, 0)
    assert cx.vertex_count == 2
    assert cx.scale == 1.0


def test_rips_unit_triangle_is_full():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    cx = rips(pts, scale=1.0, max_dim=2)
    assert cx.simplex_counts == (3, 3, 1)
    assert cx.simplices[2] == ((0, 1, 2),)
    profile = betti(cx)
    assert profile.betti == (1, 0, 0)
    assert profile.euler_characteristic == 1


def test_rips_eight_point_circle():
    pts = circle_points(8)
    # adjacent chord 2 sin(pi/8) ~ 0.765 connects, second neighbour ~ 1.41 does not
    cx = rips(pts, scale=0.8, max_dim=2)
    assert cx.simplex_counts == (8, 8, 0)
    profile = betti(cx)
    assert profile.betti == (1, 1, 0)
    assert profile.euler_characteristic == 0


def test_rips_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        rips(pts, scale=0.0, max_dim=1)
    with pytest.raises(ValueError):
        rips(pts, scale=1.0, max_dim=0)
    with pytest.raises(ValueError):
        rips(pts, scale=1.0, max_dim=4)
    with pytest.raises(ValueError):
        rips(pts, scale=1.0, max_dim=2, max_points=2)


def test_nan_scale_is_rejected():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="scale must be positive"):
        rips(pts, scale=math.nan, max_dim=1)
    with pytest.raises(ValueError, match="threshold must be positive"):
        betti0_linkage(pts, math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_points_are_rejected(bad):
    pts = [[0.0, 0.0], [bad, 0.0], [0.05, 0.0]]
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        rips(pts, 0.1, 1)
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        betti0_linkage(pts, 0.1)


def test_rips_simplices_are_sorted_and_face_closed():
    rng = np.random.default_rng(7)
    for _ in range(25):
        pts = rng.uniform(size=(12, 2))
        cx = rips(pts, scale=0.4, max_dim=3)
        seen = [set(level) for level in cx.simplices]
        for q in range(1, cx.max_dim + 1):
            for simplex in cx.simplices[q]:
                assert list(simplex) == sorted(simplex)
                for drop in range(len(simplex)):
                    face = simplex[:drop] + simplex[drop + 1 :]
                    assert face in seen[q - 1], (simplex, face)


def grid(dim, side):
    return 0.25 * np.indices((side,) * dim).reshape(dim, -1).T


def test_rips_matches_brute_force_cliques():
    rng = np.random.default_rng(23)
    clouds = []
    for _ in range(40):
        pts = rng.uniform(size=(int(rng.integers(4, 21)), int(rng.integers(2, 5))))
        clouds.append((pts, float(rng.uniform(0.2, 0.9))))
    # dyadic grids: every distance is exact, so pairs at exactly the scale are in
    for dim, side in ((2, 4), (3, 3), (4, 2)):
        clouds += [(grid(dim, side), 0.25), (grid(dim, side), 0.5)]
    for pts, scale in clouds:
        assert rips(pts, scale, 3).simplices == oracles.rips_cliques(pts, scale, 3)


def test_betti_streams_boundary_columns():
    # built as one list, the 24453 triangle columns put betti's traced peak at 12.6 MB;
    # streamed into the eliminator they left about 2.3 MB, and the collapsed core's
    # 68 triangle columns, with no level of the complex itself listed, leave about 0.2 MB
    pts = sample(build_pack(2, 3, 1 / 8), Hypothesis.null(), 400, 3).points
    cx = rips(pts, 1 / 8, 2)
    assert cx.simplex_counts == (400, 4889, 24453)
    tracemalloc.start()
    try:
        betti(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_betti_matches_the_dense_oracle():
    rng = np.random.default_rng(37)
    cases = []
    for _ in range(60):
        pts = rng.uniform(size=(int(rng.integers(3, 11)), int(rng.integers(1, 5))))
        cases.append((pts, float(rng.uniform(0.2, 0.9)), int(rng.integers(1, 4))))
    # dyadic grids: pairs exactly at the scale are edges
    for pts in (grid(2, 3), grid(3, 2), grid(1, 6)):
        for scale in (0.25, math.sqrt(2) / 4, 0.5):
            cases += [(pts, scale, max_dim) for max_dim in (1, 2, 3)]
    for pts, scale, max_dim in cases:
        cx = rips(pts, scale, max_dim)
        profile = betti(cx)
        assert profile.betti == oracles.betti_numbers(cx.simplices), (pts.tolist(), scale, max_dim)
        assert profile.euler_characteristic == sum((-1) ** q * c for q, c in enumerate(cx.simplex_counts))


def null_cloud_400():
    return sample(build_pack(2, 3, 1 / 8), Hypothesis.null(), 400, 3).points


def test_betti_of_the_400_point_cloud_is_the_full_reduction():
    # values from the reduction of the whole complex, before betti collapsed it
    pts = null_cloud_400()
    assert betti(rips(pts, 1 / 8, 2)) == homology.BettiProfile((4, 0, 19960), 19964)
    assert betti(rips(pts, 1 / 8, 3)) == homology.BettiProfile((4, 0, 1, 51660), -51655)


def test_betti_reduces_the_collapsed_core(monkeypatch):
    handed = []

    def counting_rank(faces, simplices):
        handed.append(len(simplices))
        return _boundary_rank(faces, simplices)

    monkeypatch.setattr(homology, "_boundary_rank", counting_rank)
    cx = rips(null_cloud_400(), 1 / 8, 2)
    assert cx.simplex_counts[2] == 24453
    assert betti(cx).betti == (4, 0, 19960)
    assert len(handed) == 2 and handed[1] < 24453 // 10


def test_collapse_keeps_the_edges_of_the_unpruned_search():
    rng = np.random.default_rng(43)
    clouds = [null_cloud_400(), circle_points(40), grid(2, 6), grid(3, 4)]
    clouds += [rng.uniform(size=(150, dims)) for dims in (2, 3)]
    for pts, scale in zip(clouds, (1 / 8, 0.2, 0.36, 0.45, 0.2, 0.35)):
        complex_ = rips(pts, scale, 2)
        n = complex_.vertex_count
        assert homology._collapse_edges(n, complex_.edges) == oracles.collapse_edges_unpruned(n, complex_.edges)


def vertices(n):
    return tuple((i,) for i in range(n))


def test_betti_never_lists_the_complex_it_reads(monkeypatch):
    largest = []  # the largest level of each listing

    def recording_levels(n, edges, top, listed=True):
        levels, counts = _clique_levels(n, edges, top, listed=listed)
        if listed:
            largest.append(max(map(len, levels)))
        return levels, counts

    monkeypatch.setattr(homology, "_clique_levels", recording_levels)
    cx = rips(null_cloud_400(), 1 / 8, 3)
    assert cx.simplex_counts == (400, 4889, 24453, 71619)
    assert betti(cx).betti == (4, 0, 1, 51660)
    # only the collapsed core is listed, never the 71619 tetrahedra nor the 24453 triangles
    assert largest and max(largest) < 4889
    listings = len(largest)
    assert len(cx.simplices[3]) == 71619 and cx.simplices is cx.simplices  # listed on first read, then kept
    assert len(largest) == listings + 1 and largest[-1] == 71619


def test_rips_and_hand_built_complexes_agree_with_the_oracle(monkeypatch):
    collapses = []
    collapse = homology._collapse_edges
    monkeypatch.setattr(homology, "_collapse_edges", lambda n, edges: collapses.append(n) or collapse(n, edges))
    rng = np.random.default_rng(43)
    for _ in range(90):
        pts = rng.uniform(size=(int(rng.integers(1, 12)), int(rng.integers(1, 4))))
        scale = float(rng.uniform(0.2, 0.9))
        max_dim = int(rng.integers(1, 4))
        from_edges = betti(rips(pts, scale, max_dim))  # read before any level is listed
        cx = rips(pts, scale, max_dim)
        levels = oracles.rips_cliques(pts, scale, max_dim)
        assert cx.simplices == levels
        assert cx.simplex_counts == tuple(map(len, levels))
        hand = homology.SimplicialComplex(cx.vertex_count, levels, cx.scale, cx.max_dim)
        assert hand.simplices == cx.simplices
        before = len(collapses)
        assert betti(hand) == from_edges
        assert len(collapses) == before  # a hand-built complex is reduced whole
        assert from_edges.betti == oracles.betti_numbers(levels), (pts.tolist(), scale, max_dim)
    assert len(collapses) == 90


def test_repr_and_eq_of_a_rips_complex_list_no_level(monkeypatch):
    listings = []  # the listed flag of each call

    def recording_levels(n, edges, top, listed=True):
        listings.append(listed)
        return _clique_levels(n, edges, top, listed=listed)

    monkeypatch.setattr(homology, "_clique_levels", recording_levels)
    pts = np.random.default_rng(0).uniform(0, 0.01, (200, 2))
    cx = rips(pts, 1.0, 2)  # 1 313 400 triangles, above the simplex budget: counted, never listed
    assert cx.simplex_counts == (200, 19900, 1313400)
    assert repr(cx) == "RipsComplex(vertex_count=200, scale=1.0, max_dim=2)"
    again = rips(pts, 1.0, 2)
    assert cx == cx and cx == again and hash(cx) == hash(again)
    assert cx != homology.RipsComplex(200, cx.edges[:-1], 1.0, 2)  # compared by its edges
    assert listings == [False, False]  # one count per rips call, no listing
    with pytest.raises(ValueError, match="level 2 holds 1313400 simplices, above the simplex budget"):
        cx.simplices


def test_a_hand_built_complex_compares_and_prints_its_simplices():
    levels = (vertices(3), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    hand = homology.SimplicialComplex(3, levels, 1.0, 2)
    assert hand == homology.SimplicialComplex(3, levels, 1.0, 2)
    assert hash(hand) == hash(homology.SimplicialComplex(3, levels, 1.0, 2))
    assert hand != homology.SimplicialComplex(3, levels[:2] + ((),), 1.0, 2)
    assert hand.simplex_counts == (3, 3, 1)
    assert repr(hand) == (
        "SimplicialComplex(vertex_count=3, simplices=(((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),)), "
        "scale=1.0, max_dim=2)"
    )
    # the same levels from rips are another type, compared by their edges
    cx = rips([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 1.5, 2)
    assert (cx.vertex_count, cx.simplices, cx.scale, cx.max_dim) == (3, levels, 1.5, 2)
    assert cx != homology.SimplicialComplex(3, levels, 1.5, 2)


def test_every_exported_name_resolves():
    import homrisk

    assert "RipsComplex" in homrisk.__all__ and homrisk.RipsComplex is homology.RipsComplex
    assert len(set(homrisk.__all__)) == len(homrisk.__all__)
    assert [name for name in homrisk.__all__ if not hasattr(homrisk, name)] == []


def dense_square(n):
    return np.random.default_rng(5).uniform(size=(n, 2)) * 0.01


@pytest.mark.parametrize(
    "n, max_dim, message",
    [
        (300, 3, "level 2 holds 4455100 simplices, above the simplex budget of 1000000"),
        (2000, 1, "level 1 holds 1999000 simplices, above the simplex budget of 1000000"),
    ],
)
def test_rips_refuses_a_dense_complex_at_once(n, max_dim, message):
    pts = dense_square(n)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        rips(pts, 1.0, max_dim)
    assert time.perf_counter() - start < 1.0


def test_the_simplex_budget_binds_levels_that_are_listed_or_walked(monkeypatch):
    monkeypatch.setattr(homology, "_SIMPLEX_BUDGET", 15)
    pts = dense_square(6)  # the full simplex on six vertices: 6, 15, 20, 15 simplices
    cx = rips(pts, 1.0, 2)  # the 20 triangles are counted, neither listed nor walked
    assert cx.simplex_counts == (6, 15, 20)
    assert betti(cx).betti == (1, 0, 10)
    with pytest.raises(ValueError, match="level 2 holds 20 simplices, above the simplex budget of 15"):
        cx.simplices
    with pytest.raises(ValueError, match="level 2 holds 20 simplices, above the simplex budget of 15"):
        rips(pts, 1.0, 3)  # walked to count the tetrahedra
    monkeypatch.setattr(homology, "_SIMPLEX_BUDGET", 14)
    with pytest.raises(ValueError, match="level 1 holds 15 simplices, above the simplex budget of 14"):
        rips(pts, 1.0, 1)


@pytest.mark.parametrize(
    "complex_, want",
    [
        # hollow triangle and hollow tetrahedron: not clique complexes, so reduced whole
        (homology.SimplicialComplex(3, (vertices(3), ((0, 1), (0, 2), (1, 2)), ()), 1.0, 2), (1, 1, 0)),
        (
            homology.SimplicialComplex(
                4,
                (
                    vertices(4),
                    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
                    ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
                    (),
                ),
                1.0,
                3,
            ),
            (1, 0, 1, 0),
        ),
        # closed under faces and as many triangles as cliques, but one twice and the other missing
        (
            homology.SimplicialComplex(
                5, (vertices(5), ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)), ((0, 1, 2), (0, 1, 2))), 1.0, 2
            ),
            (1, 1, 1),
        ),
    ],
)
def test_betti_of_hand_built_complexes(complex_, want):
    profile = betti(complex_)
    assert profile.betti == want
    assert profile.betti == oracles.betti_numbers(complex_.simplices)


@pytest.mark.parametrize(
    "levels, simplex, face",
    [
        ((vertices(3), ((0, 1), (0, 2)), ((0, 1, 2),)), (0, 1, 2), (1, 2)),
        # as many triangles as the edges have, one clique, but not that one
        ((vertices(4), ((0, 1), (0, 2), (0, 3), (1, 2)), ((0, 1, 3),)), (0, 1, 3), (1, 3)),
        # vertex 7 of 4: its pairs, keyed i * 4 + j, would alias the edges (1, 3) and (2, 3)
        ((vertices(4), ((0, 1), (0, 3), (1, 3), (2, 3)), ((0, 1, 7),)), (0, 1, 7), (1, 7)),
    ],
)
def test_betti_rejects_a_complex_missing_a_face(levels, simplex, face):
    complex_ = homology.SimplicialComplex(len(levels[0]), levels, 1.0, len(levels) - 1)
    with pytest.raises(ValueError, match=rf"simplex {re.escape(str(simplex))} lacks its face {re.escape(str(face))}"):
        betti(complex_)


@pytest.mark.parametrize("levels", [(vertices(2),), (vertices(3), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))])
def test_betti_rejects_levels_that_disagree_with_max_dim(levels):
    with pytest.raises(ValueError, match=rf"complex lists {len(levels)} levels of simplices, not max_dim \+ 1 = 2"):
        betti(homology.SimplicialComplex(len(levels[0]), levels, 1.0, 1))


def test_gf2_rank_against_full_pivot_oracle():
    rng = np.random.default_rng(11)
    for _ in range(120):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        mat = (rng.uniform(size=(rows, cols)) < 0.4).astype(np.uint8)
        packed = [sum(int(mat[i, j]) << i for i in range(rows)) for j in range(cols)]
        assert _gf2_rank_columns(packed) == oracles.gf2_rank(mat.tolist())


def test_boundary_rank_against_oracle_on_small_complexes():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(60):
        pts = rng.uniform(size=(int(rng.integers(4, 9)), 2))
        cx = rips(pts, scale=float(rng.uniform(0.2, 0.8)), max_dim=3)
        for q in range(1, cx.max_dim + 1):
            faces, simplices = cx.simplices[q - 1], cx.simplices[q]
            if not simplices or len(simplices) > 12 or len(faces) > 12:
                continue
            mat = oracles.boundary_matrix(faces, simplices)
            assert _boundary_rank(faces, simplices) == oracles.gf2_rank(mat)
            checked += 1
    assert checked >= 20  # the generator really exercised the comparison


def test_betti_disjoint_triangles():
    lower = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    upper = lower + np.array([10.0, 10.0])
    profile = betti(rips(np.vstack([lower, upper]), scale=1.1, max_dim=2))
    assert profile.betti[0] == 2
    assert profile.betti[1] == 0


def test_euler_identity_on_random_clouds():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 19))
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(size=(n, dim))
        cx = rips(pts, scale=float(rng.uniform(0.1, 0.9)), max_dim=int(rng.integers(1, 4)))
        profile = betti(cx)
        counts_alt = sum(c if q % 2 == 0 else -c for q, c in enumerate(cx.simplex_counts))
        betti_alt = sum(b if q % 2 == 0 else -b for q, b in enumerate(profile.betti))
        assert profile.euler_characteristic == counts_alt == betti_alt


def test_component_count_agreement_rips_vs_linkage():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(size=(n, dim))
        scale = float(rng.uniform(0.05, 0.7))
        from_rips = betti(rips(pts, scale, max_dim=1)).betti[0]
        from_linkage = betti0_linkage(pts, scale).cluster_count
        assert from_rips == from_linkage
        assert from_linkage == oracles.component_count(pts, scale)
    # squares added in axis order sum to just above scale**2, so this is no edge on any
    # numpy build; einsum on a two-lane SIMD build adds them in another order and gets an edge
    pair = np.array([[0.0, 0.0, 0.0], [0.0625, 3.026798367500305e-09, 0.0625]])
    scale = 0.08838834764831849
    assert betti(rips(pair, scale, max_dim=1)).betti[0] == 2
    assert betti0_linkage(pair, scale).cluster_count == 2
    assert oracles.component_count(pair, scale) == 2


@settings(max_examples=40, deadline=None)
@given(
    pts=st.lists(
        st.tuples(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            st.floats(min_value=-5, max_value=5, allow_nan=False),
        ),
        min_size=1,
        max_size=25,
    ),
    thresholds=st.tuples(
        st.floats(min_value=0.01, max_value=8, allow_nan=False),
        st.floats(min_value=0.01, max_value=8, allow_nan=False),
    ),
)
def test_cluster_count_monotone_in_threshold(pts, thresholds):
    lo, hi = sorted(thresholds)
    arr = np.asarray(pts, dtype=float)
    assert betti0_linkage(arr, hi).cluster_count <= betti0_linkage(arr, lo).cluster_count


def test_linkage_edges():
    assert betti0_linkage(np.array([[0.0, 0.0]]), 0.5).cluster_count == 1
    two = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert betti0_linkage(two, 1.0).cluster_count == 1  # boundary distance included
    assert betti0_linkage(two, 0.999).cluster_count == 2
    spread = np.random.default_rng(3).uniform(size=(40, 2))
    assert betti0_linkage(spread, 2.0).cluster_count == 1  # above the diameter
    with pytest.raises(ValueError):
        betti0_linkage(np.zeros((0, 2)), 0.5)
    with pytest.raises(ValueError):
        betti0_linkage(two, 0.0)


def test_linkage_blocking_consistent_on_larger_set():
    # 1300 points in two dimensions, past one block of sweep candidates, so counted over cells;
    # test_linkage_forest_across_many_blocks covers the sweep's forest.  Compare against the rips count and the oracle
    rng = np.random.default_rng(23)
    pts = rng.uniform(size=(1300, 2)) * 4.0
    scale = 0.09
    from_linkage = betti0_linkage(pts, scale).cluster_count
    from_rips = betti(rips(pts, scale, max_dim=1)).betti[0]
    assert from_linkage == from_rips
    assert from_linkage == oracles.component_count(pts, scale)


def assert_same_edges(pts, scale):
    got, want = _scale_edges(pts, scale), oracles.scale_edges_blocked(pts, scale)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "pts, scale",
    [
        (np.zeros((0, 2)), 0.5),
        (np.array([[0.3, -0.2, 0.1]]), 0.5),
        # duplicate points, ties on axis 0, pairs exactly the scale apart on axis 0
        (np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0625], [0.0625, 0.0], [0.125, 0.0], [0.0625, 0.0]]), 0.0625),
        # an edge, though the second point lies past nextafter(x + scale): the window needs slack in ulps of x
        (np.array([[-0.06250625], [-6.249999999995842e-06]]), 1 / 16),
        # a pair within an ulp of the scale: both sides add its three squares axis by axis
        (np.array([[0.0, 0.0, 0.0], [0.0625, 3.026798367500305e-09, 0.0625]]), 0.08838834764831849),
        (1e3 + np.array([[0.0, 0.0], [0.01, 0.0], [-0.01, 0.0], [0.005, 0.005], [0.02, 0.0]]), 1e-2),
    ],
)
def test_scale_edges_match_the_blocked_pass_on_edge_cases(pts, scale):
    assert_same_edges(pts, scale)


@st.composite
def clouds(draw):
    dims = draw(st.integers(1, 4))
    n = draw(st.integers(0, 30))
    scale = draw(st.sampled_from([1 / 16, 1e-2, 0.25]) | st.floats(1e-3, 2.0))
    # grid coordinates give duplicates, ties on axis 0 and pairs exactly the scale apart
    step = draw(st.sampled_from([scale, scale / 2, scale / 3, 0.0]))
    coord = st.integers(-6, 6).map(lambda k: k * step) | st.floats(-4.0, 4.0).map(lambda v: v * scale)
    offset = draw(st.sampled_from([0.0, -1e3, 1e3]))
    rows = draw(st.lists(st.lists(coord, min_size=dims, max_size=dims), min_size=n, max_size=n))
    return np.array(rows, dtype=float).reshape(n, dims) + offset, scale


@settings(max_examples=200, deadline=None)
@given(cloud=clouds())
def test_scale_edges_match_the_blocked_pass(cloud):
    assert_same_edges(*cloud)


@pytest.mark.parametrize(
    "pts, scale, want",
    [
        # ties on axis 0: a column spaced at the scale with a gap, and a second column,
        # one of whose points lies in reach of the first column and one not
        (np.array([[0.5, 0.0], [0.5, 0.25], [0.5, 0.5], [0.5, 1.0], [0.5, 1.25], [0.75, 0.0], [0.75, 1.5]]), 0.25, 3),
        # duplicate points, alone and beside others
        (np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 1.0], [3.0, 1.0], [3.0, 1.0], [1.0, 1.5]]), 0.5, 2),
        (np.array([[0.3, -0.2, 0.1]]), 0.5, 1),  # n = 1
        (np.random.default_rng(47).uniform(size=(60, 3)), 2.0, 1),  # every pair within the scale
        # every first coordinate equal, so sweep positions are the input order
        (np.column_stack([np.zeros(12), np.random.default_rng(53).permutation(12) * 0.5]), 0.4, 12),
    ],
)
def test_linkage_on_sweep_positions_at_ties(pts, scale, want):
    assert betti0_linkage(pts, scale).cluster_count == oracles.component_count(pts, scale) == want


@settings(max_examples=100, deadline=None)
@given(cloud=clouds())
def test_linkage_matches_the_oracle_on_clouds_with_ties(cloud):
    pts, scale = cloud
    assume(pts.shape[0] > 0)
    want = oracles.component_count(pts, scale)
    assert betti0_linkage(pts, scale).cluster_count == want
    # at one candidate pair a block and no floor a point, a cloud of 2 or 3 dimensions with two candidates
    # takes the cell path, and the others sweep in blocks of one pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_BLOCK_FLOATS", 8)
        patch.setattr(homology, "_CANDIDATES_PER_OFFSET", 0)
        assert betti0_linkage(pts, scale).cluster_count == want


def test_scale_edges_across_many_blocks(monkeypatch):
    # at most 20 candidate pairs a block: about 20 a point at scale 0.05, and the first
    # of the 40 points stacked at x = 0.5 has 39 in its window alone
    monkeypatch.setattr(homology, "_BLOCK_FLOATS", 8 * 20)
    rng = np.random.default_rng(31)
    for dims in (1, 2, 3):
        pts = rng.uniform(size=(400, dims))
        pts[:40, 0] = 0.5
        for scale in (0.05, 0.2):
            assert_same_edges(pts, scale)


def test_linkage_forest_across_many_blocks(monkeypatch):
    # at most 20 candidate pairs a block, so the forest carries components from block to block,
    # and every block after the first drops the candidates whose ends it has already joined.
    # Clouds of 2 or 3 dimensions with that many candidates take the cell path, so these have 1 or 4;
    # the 4-D ones are 2-D clouds padded with zero axes, which change no distance and no sweep order
    monkeypatch.setattr(homology, "_BLOCK_FLOATS", 8 * 20)
    monkeypatch.setattr(homology, "_cell_components", None)
    tested = []
    near_pairs = homology._near_pairs

    def counted(*args):
        pairs = near_pairs(*args)
        tested.append(len(pairs[0]))
        return pairs

    monkeypatch.setattr(homology, "_near_pairs", counted)
    rng = np.random.default_rng(37)
    for dims in (1, 4):
        pts = rng.uniform(size=(150, dims))
        pts[:15, 0] = 0.5
        for scale in (0.02, 0.08, 0.3, 0.6):
            assert betti0_linkage(pts, scale).cluster_count == oracles.component_count(pts, scale)
    # a unit chain along axis 1 under a shuffled numbering: every first coordinate is equal,
    # so all 1770 pairs are candidates, and the chain's links fall in different blocks
    chain = np.zeros((60, 4))
    chain[rng.permutation(60), 1] = np.arange(60.0)
    assert betti0_linkage(chain, 1.0).cluster_count == 1
    cut = chain[np.abs(chain[:, 1] - 29.5) > 1.0]  # drops the points at 29 and 30
    assert betti0_linkage(cut, 1.0).cluster_count == oracles.component_count(cut, 1.0) == 2
    # a dense cloud: the first block joins most points, and the filter drops most later edges
    dense = np.vstack([rng.uniform(size=(120, 2)) * 0.1, rng.uniform(size=(80, 2)) * 0.1 + [0.3, 0.0]])
    dense = np.pad(dense, ((0, 0), (0, 2)))
    tested.clear()
    assert betti0_linkage(dense, 0.05).cluster_count == oracles.component_count(dense, 0.05) == 2
    assert sum(tested) < _scale_edges(dense, 0.05).shape[1] / 4
    # one point a block: the third point joins the components of the first two only after
    # their roots lie past its own edges, so the forest must stay compressed up to the
    # furthest end seen, or the sixth point's link to the last one splits them again
    monkeypatch.setattr(homology, "_BLOCK_FLOATS", 8)
    hooks = np.array([[0.0, 0.0], [0.01, 3.6], [0.02, 1.8], [0.03, 0.9], [0.04, 2.7], [0.05, -0.5]])
    hooks = np.pad(np.vstack([hooks, [[0.9, 0.3], [0.95, 3.9], [1.0, -0.8]]]), ((0, 0), (0, 2)))
    assert betti0_linkage(hooks, 1.0).cluster_count == oracles.component_count(hooks, 1.0) == 1


def test_linkage_memory_is_bounded():
    # the blocks are hooked into one forest as they are tested, so no edge list is held: the
    # 499 465 edges of this 4000-point cloud once put the traced peak at 27.2 MiB, and the
    # 17 997 000 pairs of 6000 points with no coordinates, built in one block, at 978 MiB
    pts = sample(build_pack(2, 3, 1 / 8), Hypothesis.null(), 4000, 11).points
    for cloud, scale, want in ((pts, 1 / 8, 4), (np.zeros((6000, 0)), 1.0, 1)):
        tracemalloc.start()
        try:
            count = betti0_linkage(cloud, scale).cluster_count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == want
        assert peak < 4_000_000


def test_linkage_takes_the_cell_path_only_past_its_candidate_threshold_in_two_or_three_dimensions(monkeypatch):
    # the cells take a cloud or batch of 2 or 3 dimensions past one block of sweep candidates and past
    # _CANDIDATES_PER_OFFSET a point for each cell offset: 9 a point in the plane, 46.5 in 3-space
    calls = []
    cell_components = homology._cell_components

    def recorded(pts, scale):
        calls.append(pts.shape)
        return cell_components(pts, scale)

    monkeypatch.setattr(homology, "_cell_components", recorded)
    assert [homology._CANDIDATES_PER_OFFSET * len(homology._CELL_OFFSETS[dims]) for dims in (2, 3)] == [9, 46.5]
    rng = np.random.default_rng(41)
    clouds = {dims: rng.uniform(size=(400, dims)) for dims in (1, 2, 3, 4)}
    # 400 points in the unit cube at scale 0.2: about 29 000 candidate pairs for the sweep, two blocks
    for dims, pts in clouds.items():
        assert homology._sweep(pts[None], 0.2)[1] > max(homology._BLOCK_FLOATS // 8, 46.5 * 400)
        assert betti0_linkage(pts, 0.2).cluster_count == oracles.component_count(pts, 0.2)
    assert calls == [(1, 400, 2), (1, 400, 3)]
    # at scale 0.12 the 3-D cloud has 18 277 candidates, past one block but under 46.5 a point: the sweep
    calls.clear()
    assert homology._BLOCK_FLOATS // 8 < homology._sweep(clouds[3][None], 0.12)[1] < 46.5 * 400
    assert betti0_linkage(clouds[3], 0.12).cluster_count == oracles.component_count(clouds[3], 0.12)
    assert calls == []
    # estimator batches on the d = 2 pack in 3-space: twenty 200-point trials at scale 0.09 have about
    # 30 candidates a point, seven blocks, and sweep; ten 400-point trials at scale 0.12 have 73 and take
    # the cells
    pack = build_pack(2, 3, 1 / 8)
    for n, scale, routes in ((200, 0.09, []), (400, 0.12, [(10, 400, 3)])):
        trials = np.stack([sample(pack, Hypothesis.null(), n, seed).points for seed in range(4096 // n)])
        want = [oracles.component_count(trial, scale) for trial in trials[:2]]
        calls.clear()
        assert homology._components(trials, scale).tolist()[:2] == want
        assert calls == routes
    # an estimator trial's 200 points on the README m = 4 pack, 3250 candidates, stay on the sweep
    pack = build_pack(1, 2, 1 / 16)
    trial = sample(pack, Hypothesis.null(), 200, 5).points
    calls.clear()
    assert betti0_linkage(trial, pack.radius).cluster_count == oracles.component_count(trial, pack.radius)
    assert calls == []
    # the candidate count is refused before either path tests a pair
    monkeypatch.setattr(homology, "_BLOCK_FLOATS", 8)
    monkeypatch.setattr(homology, "_MAX_PAIRS", 10)
    monkeypatch.setattr(homology, "_near_pairs", None)
    with pytest.raises(ValueError, match="15 candidate pairs, above the limit of 10"):
        betti0_linkage(np.zeros((6, 2)), 1.0)
    assert calls == []


def test_cells_test_the_pairs_of_a_cell_that_fails_the_box_check():
    # A corner at -1000 makes x + 1000 round to multiples of 2**-43, so cell 11370 of side
    # fl(1/8 / sqrt 2) on each axis holds points from a to b, a little more than a side apart:
    # the cell's box fails the edge rule, and so does the pair at its corners, while a point
    # between them joins both
    a, b = 4.9755127613804575, 5.06390110902879
    scale = 1 / 8
    side = scale / math.sqrt(2)
    assert math.floor((a + 1000.0) / side) == math.floor((b + 1000.0) / side) == 11370
    assert (b - a) ** 2 + (b - a) ** 2 > scale * scale
    corners = np.array([[-1000.0, -1000.0], [a, a], [b, b]])
    between = np.vstack([corners, [[5.02, 5.02]]])
    # the corner at (a, a), the cell's first point, joins the cell at offset (1, 1) through the
    # cells to its left and above within the first three offsets; the corner at (b, b) meets
    # only that cell, at offset (1, 1), so the split cell's pairs must not be dropped there
    around = np.vstack([corners, [[a - 0.05, a], [a - 0.05, a + 0.1], [a - 0.05, a + 0.2], [a + 0.03, a + 0.22]]])
    around = np.vstack([around, [[b + 0.01, a + 0.17]]])
    for cloud, want in ((corners, 3), (between, 2), (around, 2)):
        assert homology._cell_components(cloud[None], scale).tolist() == [want]
        assert oracles.component_count(cloud, scale) == want


def test_cells_span_at_most_the_stated_number_of_cells_an_axis():
    # A pair exactly the scale apart on axis 0 near the far end of the span, its cells two apart:
    # x + 1.0 is exact here, so the pair is an edge and must be found at offset 2
    span = homology._GRID_SPAN
    side = 1.0 / math.sqrt(3)
    x = (span - 3.5) * side
    assert math.floor((x + 1.0) / side) - math.floor(x / side) == 2
    for gap, want in ((1.0, 2), (1.0 + 2.0**-30, 3)):
        cloud = np.array([[0.0, 0.0, 0.0], [x, 0.0, 0.0], [x + gap, 0.0, 0.0]])
        assert homology._cell_components(cloud[None], 1.0).tolist() == [want]
        assert oracles.component_count(cloud, 1.0) == want
    # a point one cell further makes the axis span _GRID_SPAN cells: too wide for the cells, and the
    # linkage counts that cloud, and one whose offsets overflow, on the sweep
    wide = np.array([[0.0, 0.0, 0.0], [x, 0.0, 0.0], [x + 1.0, 0.0, 0.0], [span * side, 0.0, 0.0]])
    assert homology._cell_components(wide[None], 1.0) is None
    assert homology._cell_components(np.array([[[-1e308, 0.0], [1e308, 0.0]]]), 1.0) is None


@st.composite
def batches(draw):
    """Equal-sized groups drawn like clouds(), each shifted by its own offset."""
    dims = draw(st.integers(1, 4))
    groups = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1 / 16, 1e-2, 0.25]) | st.floats(1e-3, 2.0))
    step = draw(st.sampled_from([scale, scale / 2, scale / 3, 0.0]))
    coord = st.integers(-6, 6).map(lambda k: k * step) | st.floats(-4.0, 4.0).map(lambda v: v * scale)
    offsets = draw(st.lists(st.sampled_from([0.0, -1e3, 1e3]), min_size=groups, max_size=groups))
    rows = draw(st.lists(st.lists(coord, min_size=dims, max_size=dims), min_size=groups * n, max_size=groups * n))
    return np.array(rows, dtype=float).reshape(groups, n, dims) + np.array(offsets)[:, None, None], scale


@settings(max_examples=150, deadline=None)
@given(batch=batches())
def test_the_grouped_count_is_each_groups_own_count(batch):
    pts, scale = batch
    want = [oracles.component_count(group, scale) for group in pts]
    assert [betti0_linkage(group, scale).cluster_count for group in pts] == want
    assert homology._components(pts, scale).tolist() == want  # at most 60 points: the sweep
    if pts.shape[2] in (2, 3):
        cells = homology._cell_components(pts, scale)
        assert cells is not None and cells.tolist() == want
    # at one candidate pair a block and no floor a point, a batch of 2 or 3 dimensions with two
    # candidates in all takes the cell path, whatever each group alone would take
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_BLOCK_FLOATS", 8)
        patch.setattr(homology, "_CANDIDATES_PER_OFFSET", 0)
        assert homology._components(pts, scale).tolist() == want


def test_the_grouped_count_takes_one_route_for_the_whole_batch(monkeypatch):
    routes = []
    cell_components = homology._cell_components

    def recorded(pts, scale):
        counts = cell_components(pts, scale)
        routes.append(None if counts is None else pts.shape)
        return counts

    monkeypatch.setattr(homology, "_cell_components", recorded)
    pack = build_pack(1, 2, 1 / 16)
    trials = np.stack([sample(pack, Hypothesis.null(), 200, seed).points for seed in range(20)])
    want = [oracles.component_count(trial, pack.radius) for trial in trials[:3]]
    # one trial has about 3100 sweep candidates, under one block of 16 384; twenty have more, about 16 a
    # point, past the 9 a point that the plane's 12 cell offsets ask
    block = homology._BLOCK_FLOATS // 8
    assert homology._sweep(trials[:1], pack.radius)[1] < block < homology._sweep(trials, pack.radius)[1]
    assert homology._sweep(trials, pack.radius)[1] > homology._CANDIDATES_PER_OFFSET * 12 * 4000
    assert [betti0_linkage(trial, pack.radius).cluster_count for trial in trials[:3]] == want
    assert routes == []
    assert homology._components(trials, pack.radius).tolist()[:3] == want
    assert routes == [(20, 200, 2)]
    # groups of one point have no candidates at all and sweep, in any dimension
    routes.clear()
    for dims in (1, 2, 3, 4):
        lone = np.random.default_rng(dims).uniform(size=(7, 1, dims))
        assert homology._components(lone, 0.5).tolist() == [1] * 7
    assert routes == []


def test_a_batch_wider_than_the_grid_span_stays_on_the_sweep(monkeypatch):
    # Each group alone spans 2**19 cells of side 1/sqrt(2) on axis 0, well inside the grid; two of them
    # laid end to end, each with two cells of margin a side, span 2 * (2**19 + 5) - 5 >= _GRID_SPAN cells
    side = 1.0 / math.sqrt(2)
    shape = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.5, 0.5]])
    far, near = ((homology._GRID_SPAN // 2 + lift + 0.5) * side for lift in (0, -4))
    wide = shape + [[0.0, 0.0], [0.0, 0.0], [far, 0.0], [far, 0.0]]
    narrow = shape + [[0.0, 0.0], [0.0, 0.0], [near, 0.0], [near, 0.0]]
    assert homology._cell_components(wide[None], 1.0).tolist() == [2]
    assert homology._cell_components(np.stack([wide, wide + 3.0]), 1.0) is None
    # 2 * (2**19 - 4 + 5) - 5 cells fit
    assert homology._cell_components(np.stack([narrow, narrow + 3.0]), 1.0).tolist() == [2, 2]
    routes = []
    cell_components = homology._cell_components
    monkeypatch.setattr(homology, "_cell_components", lambda pts, scale: routes.append(cell_components(pts, scale)))
    monkeypatch.setattr(homology, "_BLOCK_FLOATS", 8)
    monkeypatch.setattr(homology, "_CANDIDATES_PER_OFFSET", 0)
    assert homology._components(np.stack([wide, wide + 3.0]), 1.0).tolist() == [2, 2]
    assert routes == [None]


def test_the_grouped_count_refuses_candidate_pairs_per_group(monkeypatch):
    # six points on axis 0 at scale 2.5: spaced 1 apart they are 9 candidate pairs, spaced 0.6
    # apart 14 and spaced 0.1 apart 15
    monkeypatch.setattr(homology, "_MAX_PAIRS", 10)
    nine, fourteen, fifteen = (np.arange(6.0)[:, None] * [gap, 0.0] for gap in (1.0, 0.6, 0.1))
    assert betti0_linkage(nine, 2.5).cluster_count == 1
    # 27 candidates in all, but none of the three groups is over the limit
    assert homology._components(np.stack([nine, nine, nine]), 2.5).tolist() == [1, 1, 1]
    refusals = []
    for over in (fourteen, fifteen):
        with pytest.raises(ValueError, match=r"candidate pairs, above the limit of 10") as refused:
            betti0_linkage(over, 2.5)
        refusals.append(str(refused.value))
    assert refusals == ["14 candidate pairs, above the limit of 10", "15 candidate pairs, above the limit of 10"]
    # the first group over the limit is named, before any pair is tested, on either route
    monkeypatch.setattr(homology, "_near_pairs", None)
    for block_floats in (homology._BLOCK_FLOATS, 8):
        monkeypatch.setattr(homology, "_BLOCK_FLOATS", block_floats)
        for batch, message in (([nine, fourteen, fifteen], refusals[0]), ([fifteen, nine, fourteen], refusals[1])):
            with pytest.raises(ValueError) as refused:
                homology._components(np.stack(batch), 2.5)
            assert str(refused.value) == message


def test_the_estimator_count_keeps_the_estimators_checks():
    pack = build_pack(1, 2, 1 / 16)
    trials = np.stack([sample(pack, Hypothesis.null(), 50, seed).points for seed in range(3)])
    assert homology._estimator_counts(pack, trials, pack.radius).tolist() == [
        homology_estimator(pack, sample(pack, Hypothesis.null(), 50, seed), pack.radius, point_budget=0).betti[0]
        for seed in range(3)
    ]
    drawn = sample(pack, Hypothesis.null(), 50, seed=0)
    for scale in (0.0, 2 * pack.radius, -0.1):
        with pytest.raises(ValueError) as want:
            homology_estimator(pack, drawn, scale=scale)
        with pytest.raises(ValueError) as got:
            homology._estimator_counts(pack, trials, scale)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="^cannot estimate homology from an empty sample$"):
        homology._estimator_counts(pack, np.zeros((3, 0, 2)), pack.radius)
    # a point is named by its row in its own trial, as betti0_linkage names it
    bad = trials.copy()
    bad[1, 7, 1] = np.nan
    with pytest.raises(ValueError) as want:
        betti0_linkage(bad[1], pack.radius)
    with pytest.raises(ValueError) as got:
        homology._estimator_counts(pack, bad, pack.radius)
    assert str(got.value) == str(want.value) == f"point 7 has a non-finite coordinate: {bad[1, 7].tolist()}"


@settings(max_examples=80, deadline=None)
@given(
    dims=st.sampled_from([2, 3]),
    radius=st.sampled_from([1 / 16, 1 / 8, 0.1, 1 / 64]),
    n=st.integers(1, 300),
    trials=st.integers(1, 4),
    fraction=st.floats(1e-3, 1.0, exclude_max=True),
    mixture=st.booleans(),
    seed=st.integers(0, 2**32),
    lift=st.sampled_from([0.0, 1e-300, 1e-9, 0.5]),
)
def test_circle_counts_equal_the_grouped_count(dims, radius, n, trials, fraction, mixture, seed, lift):
    pack = build_pack(1, dims, radius)
    hypothesis = Hypothesis.mixture() if mixture else Hypothesis.null()
    pts = np.stack([sample(pack, hypothesis, n, seed + t).points for t in range(trials)])
    if dims == 3 and lift:  # a coordinate past axis 1 takes its trial off the circles
        pts[-1, n // 2, 2] = lift
    scale = fraction * 2 * radius
    assert homology._circle_counts(pack, pts, scale).tolist() == homology._components(pts, scale).tolist()


def test_circle_counts_fall_back_where_they_cannot_certify(monkeypatch):
    fallbacks = []
    components = homology._components

    def recorded(pts, scale):
        fallbacks.append(pts.shape)
        return components(pts, scale)

    monkeypatch.setattr(homology, "_components", recorded)
    pack = build_pack(1, 3, 1 / 16)
    r = pack.radius
    drawn = np.stack([sample(pack, Hypothesis.null(), 2, seed).points for seed in range(3)])

    def counted(pts, scale):
        fallbacks.clear()
        got = homology._estimator_counts(pack, pts, scale).tolist()
        assert got == components(pts, scale).tolist()
        return got, fallbacks[:]

    assert counted(drawn, r)[1] == []
    # two points of the first circle at chord exactly the scale, r * sqrt(2): d2 is 2 r**2 on the dot,
    # and the rounded scale squared lies within a few ulps of it
    tie = drawn.copy()
    tie[1] = [[2 * r, r, 0.0], [r, 2 * r, 0.0]]
    assert np.sum((tie[1, 0] - tie[1, 1]) ** 2) == 2 * r * r
    assert counted(tie, r * math.sqrt(2))[1] == [(1, 2, 3)]
    # a scale within the margin of the 2r gap between circles sends the whole batch
    assert counted(drawn, np.nextafter(2 * r, 0.0))[1] == [(3, 2, 3)]
    # a point moved off its circle, or lifted past axis 1, sends its trial
    for axis, step in ((0, 1e-9), (1, -0.3 * r), (2, 1e-12)):
        off = drawn.copy()
        off[2, 1, axis] += step
        assert counted(off, r)[1] == [(1, 2, 3)]
    # a trial of n points may hold n (n - 1) / 2 candidate pairs, which _components counts and refuses
    three = np.stack([sample(pack, Hypothesis.null(), 3, seed).points for seed in range(3)])
    monkeypatch.setattr(homology, "_MAX_PAIRS", 3)
    assert counted(three, r / 8)[1] == []
    monkeypatch.setattr(homology, "_MAX_PAIRS", 2)
    assert counted(three, r / 8)[1] == [(3, 3, 3)]
    monkeypatch.setattr(homology, "_MAX_PAIRS", 0)
    with pytest.raises(ValueError, match="candidate pairs, above the limit of 0$") as want:
        components(tie, r)
    with pytest.raises(ValueError) as got:
        homology._estimator_counts(pack, tie, r)
    assert str(got.value) == str(want.value)


def test_coordinates_past_the_float_range_apart_are_no_edge():
    # The second coordinates differ by more than the largest float: the difference overflows to inf,
    # whose square lies above any squared scale.  The suite makes the RuntimeWarning an error, so the
    # distance test must not warn
    pts = np.array([[0.0, -1e308], [0.0, 1e308]])
    assert betti0_linkage(pts, 1.0).cluster_count == 2
    assert betti(rips(pts, 1.0, 1)).betti == (2, 0)
    # the sweep's window of the largest float reaches past the float range, to every later point
    top = np.array([[1.7e308], [np.finfo(float).max]])
    assert betti0_linkage(top, 1e150).cluster_count == 2
    assert betti(rips(top, 1e150, 1)).betti == (2, 0)


def test_scale_edges_frees_the_block_before_the_closing_sort(monkeypatch):
    # every one of the 499500 pairs is an edge, all in one block: the block's
    # own arrays peak near 8.1 words a pair, and must be gone before the keys
    # are concatenated, sorted and split, which would otherwise reach 11.1
    pairs = 1000 * 999 // 2
    monkeypatch.setattr(homology, "_BLOCK_FLOATS", 8 * pairs)
    pts = np.linspace(0.0, 0.5, 1000).reshape(-1, 1)
    tracemalloc.start()
    try:
        edges = _scale_edges(pts, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges.shape == (2, pairs)
    assert peak <= 9.5 * 8 * pairs


def test_sweep_refuses_candidate_pairs_above_the_limit_before_any_block(monkeypatch):
    # five points on a line within scale of each other, or with no coordinates, are 10 candidates
    monkeypatch.setattr(homology, "_MAX_PAIRS", 10)
    for dims in (1, 0):
        five, six = (np.arange(float(k * dims)).reshape(k, dims) for k in (5, 6))
        assert betti0_linkage(five, 10.0).cluster_count == 1
        assert rips(five, 10.0, 1).simplex_counts == (5, 10)
        for call in (lambda: betti0_linkage(six, 10.0), lambda: rips(six, 10.0, 1)):
            with pytest.raises(ValueError, match="15 candidate pairs, above the limit of 10"):
                call()
    assert rips(np.zeros((0, 2)), 1.0, 1).simplex_counts == (0, 0)
    monkeypatch.setattr(homology, "_near_pairs", None)
    with pytest.raises(ValueError, match="15 candidate pairs, above the limit of 10"):
        betti0_linkage(np.zeros((6, 2)), 1.0)


def test_points_without_coordinates_are_one_cluster():
    # with no coordinates every pair is at distance 0, so every pair is an edge
    pts = np.zeros((3, 0))
    assert_same_edges(pts, 0.5)
    assert betti0_linkage(pts, 0.5).cluster_count == 1
    assert betti(rips(pts, 0.5, 2)).betti == (1, 0, 0)  # the full triangle


def test_linkage_labels_shuffled_line_and_edge_cases():
    # a unit-spaced chain under a shuffled numbering is the slow case for
    # label propagation: labels must travel the whole chain
    rng = np.random.default_rng(29)
    for length in (2, 3, 17, 300):
        order = rng.permutation(length)
        line = np.zeros((length, 2))
        line[order, 0] = np.arange(length, dtype=float)
        assert betti0_linkage(line, 1.0).cluster_count == 1
        assert betti0_linkage(line, 0.5).cluster_count == length
        # cut the chain into pieces at every fifth gap, plus isolated points
        cut = line.copy()
        cut[:, 0] += np.floor(cut[:, 0] / 5.0) * 10.0
        far = np.column_stack([np.arange(4) * 100.0 + 7.5, np.full(4, 1000.0)])
        cloud = np.vstack([cut, far])[rng.permutation(length + 4)]
        want = oracles.component_count(cloud, 1.0)
        assert want == -(-length // 5) + 4
        assert betti0_linkage(cloud, 1.0).cluster_count == want
    assert betti0_linkage(np.array([[0.25, -3.0]]), 1.0).cluster_count == 1
    pair = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0]])  # exactly 5 apart
    assert betti0_linkage(pair, 5.0).cluster_count == oracles.component_count(pair, 5.0) == 1
    assert betti0_linkage(pair, 4.999).cluster_count == oracles.component_count(pair, 4.999) == 2


def test_pack_sample_clusters_recover_sphere_count():
    pack = build_pack(1, 2, 1 / 16)
    good = 0
    for seed in range(200):
        pts = sample(pack, Hypothesis.null(), 400, seed=seed).points
        if betti0_linkage(pts, pack.radius).cluster_count == pack.count:
            good += 1
    assert good >= 190


def test_clusters_never_merge_distinct_spheres():
    # surfaces are 2*radius apart, so any scale below that keeps sphere
    # clusters separate: the count is at least the number of spheres hit
    pack = build_pack(1, 2, 1 / 16)
    for seed in range(30):
        for hyp in (Hypothesis.null(), Hypothesis.mixture()):
            drawn = sample(pack, hyp, 25, seed=seed)
            hit = len(np.unique(sample_assignments(pack, hyp, 25, seed=seed)))
            count = betti0_linkage(drawn.points, 1.9 * pack.radius).cluster_count
            assert count >= hit


def test_estimator_validation():
    pack = build_pack(1, 2, 1 / 16)
    drawn = sample(pack, Hypothesis.null(), 50, seed=1)
    with pytest.raises(ValueError):
        homology_estimator(pack, drawn, scale=0.0)
    with pytest.raises(ValueError):
        homology_estimator(pack, drawn, scale=2 * pack.radius)
    with pytest.raises(ValueError):
        homology_estimator(pack, drawn, scale=-0.1)
    empty = sample(pack, Hypothesis.null(), 0, seed=1)
    with pytest.raises(ValueError):
        homology_estimator(pack, empty, scale=pack.radius)
    with pytest.raises(ValueError):
        homology_estimator(pack, drawn, scale=pack.radius, max_dim=4)


def test_estimator_recovers_full_pack_profile():
    pack = build_pack(1, 2, 1 / 16)
    good = 0
    for seed in range(20):
        drawn = sample(pack, Hypothesis.null(), 400, seed=seed)
        profile = homology_estimator(pack, drawn, scale=pack.radius)
        assert len(profile.betti) == 3  # degrees 0..min(d+1, 3)
        if profile.betti[0] == 4 and profile.betti[1] == 4:
            good += 1
    assert good >= 19


def test_estimator_sees_the_deletion():
    pack = build_pack(1, 2, 1 / 16)
    for seed in range(20):
        drawn = sample(pack, Hypothesis.alternate(2), 400, seed=seed)
        profile = homology_estimator(pack, drawn, scale=pack.radius)
        assert profile.betti[0] == 3


def test_estimator_single_circle_cycle():
    # one circle of unit circumference: beta_0 = beta_1 = 1
    tau = 1 / (2 * math.pi)
    centers = np.array([[tau, tau]])
    pack = SpherePack(1, 2, tau, 1, 1, centers, sphere_surface_measure(1) * tau)
    good = 0
    for seed in range(20):
        drawn = sample(pack, Hypothesis.null(), 100, seed=seed)
        profile = homology_estimator(pack, drawn, scale=tau)
        if profile.betti[0] == 1 and profile.betti[1] == 1:
            good += 1
    assert good >= 19


def test_estimator_budget_path_collapses_to_components():
    pack = build_pack(1, 2, 1 / 16)
    drawn = sample(pack, Hypothesis.null(), 300, seed=4)
    profile = homology_estimator(pack, drawn, scale=pack.radius, point_budget=0)
    assert profile.betti == (4,)
    assert profile.euler_characteristic == 4
    direct = betti0_linkage(drawn.points, pack.radius).cluster_count
    assert profile.betti[0] == direct


def test_estimator_checks_max_dim_on_both_budget_paths():
    pack = build_pack(1, 2, 1 / 16)
    drawn = sample(pack, Hypothesis.null(), 300, seed=4)
    for budget in (0, 2000):
        with pytest.raises(ValueError, match="max_dim must lie in 1..3"):
            homology_estimator(pack, drawn, scale=pack.radius, max_dim=4, point_budget=budget)


def test_plugin_risk_oracle_against_composition_enumeration():
    # the circle-by-circle binomial combination agrees with a rational sum
    # over every multinomial split
    arc = Fraction(1, 6)
    assert oracles.circle_component_law(2, arc) == [0, arc * 2, 1 - 2 * arc]
    assert oracles.circle_component_law(3, arc)[3] == (1 - 3 * arc) ** 2
    for m, n in ((2, 5), (3, 6), (4, 7), (4, 9)):
        risks = []
        for circles in (m, m - 1):
            capped = [Fraction(0)] * (m + 1)
            for comp in oracles.compositions(n, circles):
                weight = Fraction(math.factorial(n), circles**n)
                dist = {0: Fraction(1)}
                for k in comp:
                    weight /= math.factorial(k)
                    nxt = {}
                    for total, p in dist.items():
                        for c, q in enumerate(oracles.circle_component_law(k, arc)):
                            key = min(total + c, m)
                            nxt[key] = nxt.get(key, 0) + p * q
                    dist = nxt
                for total, p in dist.items():
                    capped[total] += weight * p
            risks.append(capped)
        type_one, type_two = oracles.plugin_test_risk(m, n, arc)
        assert type_one == pytest.approx(float(sum(risks[0][:m])), rel=1e-12)
        assert type_two == pytest.approx(float(risks[1][m]), rel=1e-12)
