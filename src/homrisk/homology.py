"""Point-cloud homology: neighborhood complexes, GF(2) Betti numbers, clusters.

rips returns the scale-r neighborhood (clique) complex as a RipsComplex,
its vertex count and its edge list.  It counts every level at once, by
bitmask popcounts over the level below, and lists the levels only when
they are read.
betti collapses such a complex directly, with no check: edges dominated
by a common neighbour are collapsed away (Boissonnat and Pritam 2020),
which keeps every Betti number below the top, the small core's boundary
ranks over the two-element field give those, and the top one follows from
the simplex counts.  A hand-built complex is reduced whole.  Cliques blow
up combinatorially, so the full route carries dimension and point
budgets, and no level beyond the simplex budget is listed or walked.  The
component count alone has a cheap route with no budget, vectorised
hook-and-compress labelling that takes each block of the same pairs into
one forest as soon as it is tested, so it holds one block and the forest.
Both take their pairs from one sweep over the points sorted on an axis,
which tests only the pairs that axis leaves within reach.  A pair is an
edge when its squares, added in axis order, sum to at most the squared
scale, so the edge set is the same on every numpy build.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import SampleSet, SpherePack

MAX_COMPLEX_DIM = 3
DEFAULT_POINT_BUDGET = 2000

# Words of working memory in one block of candidate pairs, about eight a pair when every
# candidate is an edge and six when few are: the neighbour pass's memory cap, 2**14 pairs or
# about 1 MB, for rips' _scale_edges and betti0_linkage alike.
_BLOCK_FLOATS = 1 << 17

# Most candidate pairs one sweep may test (see _sweep).  betti0_linkage holds no edge list, so
# this bounds its work: about 1.2 s at the 18 ns a candidate of a 40 000-point cloud whose
# candidates are rarely edges (one core of a 2-core VM).  The bench's 4000-point cloud has
# 3.0e6, and rips' default point budget caps its own at 1 999 000.
_MAX_PAIRS = 1 << 26

# Most simplices of one level that may be listed, or walked to count the level above (see
# rips): room for every complex the tests and the benchmark build, while a dense one, up to
# C(2000, 3) = 1.3e9 triangles under the default point budget, fails at once.
_SIMPLEX_BUDGET = 10**6


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices per dimension 0..max_dim, each a sorted vertex tuple, as given; betti reduces it whole."""

    vertex_count: int
    simplices: tuple[tuple[tuple[int, ...], ...], ...]
    scale: float
    max_dim: int

    @property
    def simplex_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)


@dataclass(frozen=True)
class RipsComplex:
    """The clique complex up to max_dim of the graph on vertex_count vertices and edges i < j in
    lexicographic order, as rips returns it.  == compares its edges and repr leaves them out, so
    neither reads a level.  simplices lists the levels and simplex_counts counts them, by popcounts
    over the level below, each on first read, and both are kept."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = field(repr=False)
    scale: float
    max_dim: int

    @cached_property
    def simplices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return _clique_levels(self.vertex_count, self.edges, self.max_dim)[0]

    @cached_property
    def simplex_counts(self) -> tuple[int, ...]:
        return _clique_levels(self.vertex_count, self.edges, self.max_dim, listed=False)[1]


@dataclass(frozen=True)
class BettiProfile:
    """Betti numbers beta_0.. of a complex plus its Euler characteristic.

    The top entry reflects the dimension truncation of the complex it came
    from: simplices above max_dim that would fill top-dimensional cycles
    are not present, so only entries below the top are estimates of the
    underlying space.
    """

    betti: tuple[int, ...]
    euler_characteristic: int


@dataclass(frozen=True)
class ClusterEstimate:
    """Component count of the distance graph at a threshold."""

    threshold: float
    cluster_count: int


def _as_point_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError("points must form a 2-d array, one point per row")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"point {i} has a non-finite coordinate: {pts[i].tolist()}")
    return pts


def _sweep(
    pts: np.ndarray, scale: float, forest: np.ndarray | None = None
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The order that sorts pts on axis 0, and the pairs a < b of positions in that order whose
    points lie within scale, as (2, k) blocks tested from at most _BLOCK_FLOATS // 8 candidate pairs.

    A pair is an edge when its squares, added in axis order, sum to at most
    scale * scale.  That one rule fixes the summation order, so the edge set
    is the same on every numpy build.  A sweep over the points sorted on
    axis 0 (Bentley, Stanat and Williams 1977): each point meets only the
    later points whose axis-0 coordinate lies within scale of its own, plus a
    few ulps, so that rounding drops no pair the rule accepts.  A point
    whose window alone exceeds the cap is a block of its own.  Points with no
    coordinates sweep as one zero axis, where every pair is an edge.  More
    than _MAX_PAIRS candidates are refused before any block is built.  Given
    a forest over sorted positions, each block after the first drops the
    candidates whose ends share a forest entry before testing them; the
    caller updates the forest in place between blocks.
    """
    n = pts.shape[0]
    if pts.shape[1] == 0:
        pts = np.zeros((n, 1))
    order = np.argsort(pts[:, 0], kind="stable")
    cols = pts[order].T.copy()
    x = cols[0]
    reach = x + scale + 4.0 * (np.spacing(np.abs(x)) + np.spacing(scale))
    counts = np.searchsorted(x, reach, side="right") - np.arange(1, n + 1)
    ends = np.cumsum(counts)
    _check_pairs(int(ends[-1]) if n else 0)

    def blocks() -> Iterator[np.ndarray]:
        lo = 0
        while lo < n:
            base = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK_FLOATS // 8, side="right")))
            yield _near_pairs(cols, lo, counts[lo:hi], scale * scale, forest if lo else None)
            lo = hi

    return order, blocks()


def _check_pairs(count: int) -> None:
    if count > _MAX_PAIRS:
        raise ValueError(f"{count} candidate pairs, above the limit of {_MAX_PAIRS}")


def _near_pairs(
    cols: np.ndarray, lo: int, per_point: np.ndarray, s2: float, forest: np.ndarray | None
) -> np.ndarray:
    """Pairs a < b of sorted positions at most sqrt(s2) apart, as a (2, k) array, among the
    candidates of points lo, lo + 1, ...: point lo + t meets the per_point[t] positions after it.
    A candidate whose ends share an entry of forest, when given, is dropped untested.
    The candidates live only inside this call, so they are freed before the caller goes on."""
    first = np.repeat(np.arange(lo, lo + per_point.size), per_point)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(per_point) - per_point, per_point)
    if forest is not None:
        apart = forest[first] != forest[second]
        first, second = first[apart], second[apart]
    d = cols[0][first] - cols[0][second]
    d2 = d * d
    for col in cols[1:]:
        d = col[first] - col[second]
        d2 += d * d
    near = d2 <= s2
    return np.stack((first[near], second[near]))


def _scale_edges(pts: np.ndarray, scale: float) -> np.ndarray:
    """Pairs i < j with |pts[i] - pts[j]| <= scale as a (2, E) array, sorted by (i, j):
    the sweep's pairs relabelled to row indices and sorted once through the key i * n + j."""
    n = pts.shape[0]
    order, blocks = _sweep(pts, scale)
    keys = [np.minimum(i, j) * n + np.maximum(i, j) for i, j in (order[block] for block in blocks)]
    return np.stack(np.divmod(np.sort(np.concatenate([np.empty(0, dtype=int), *keys])), n))


def _check_budget(q: int, count: int) -> None:
    if count > _SIMPLEX_BUDGET:
        raise ValueError(f"level {q} holds {count} simplices, above the simplex budget of {_SIMPLEX_BUDGET}")


def rips(points, scale: float, max_dim: int, *, max_points: int = DEFAULT_POINT_BUDGET) -> RipsComplex:
    """Neighborhood complex at the given scale, as its vertex count and its edges.

    A q-simplex is any (q+1)-subset of points with all pairwise distances
    at or below the scale, so the complex is the clique expansion of the
    scale graph and is closed under faces by construction.  The result
    carries the sorted edges and counts every level at once, by bitmask
    popcounts over the level below; its simplices are listed only when
    read.  betti collapses it without a check and without listing any of
    its levels.

    Args:
        points: array-like of shape (n, dim).
        scale: connectivity distance, positive.
        max_dim: top simplex dimension, between 1 and 3.
        max_points: point budget; larger inputs are rejected.

    Returns:
        RipsComplex with simplices for every dimension 0..max_dim.

    Raises:
        ValueError: an argument is out of range, or a level that must be
            listed or walked, the edges and every level below the top,
            holds more than _SIMPLEX_BUDGET = 10**6 simplices.  Reading
            simplices lists the top level too, under the same budget.  The
            budget lies above every level the tests and the benchmark list
            or walk, the largest being the 88 101 triangles walked to count
            the 408 729 tetrahedra of the benchmark's cloud at max_dim 3.
    """
    if not 1 <= int(max_dim) <= MAX_COMPLEX_DIM:
        raise ValueError(f"max_dim must lie in 1..{MAX_COMPLEX_DIM}")
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    pts = _as_point_array(points)
    n = pts.shape[0]
    if n > max_points:
        raise ValueError(f"{n} points exceed the complex budget of {max_points}")
    first, second = _scale_edges(pts, scale)
    _check_budget(1, first.size)
    edges = tuple(zip(first.tolist(), second.tolist()))
    complex_ = RipsComplex(n, edges, float(scale), int(max_dim))
    complex_.simplex_counts  # counted now, so a complex beyond the simplex budget fails here
    return complex_


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_levels(
    n: int, edges: Sequence[tuple[int, int]], top: int, *, listed: bool = True
) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], tuple[int, ...]]:
    """Levels 0..top of the clique complex of n vertices and edges i < j in lexicographic order,
    and their sizes; without listed, only levels 0 and 1 come back and the rest are only counted.

    Each simplex s carries a bitmask, up[s0] & up[s1] & ..., of the
    vertices above it that neighbour all of its vertices, with up[i] the
    neighbours above i.  It extends by each of those in increasing order
    (Zomorodian 2010), so every level comes in lexicographic order, and the
    popcounts of its masks add up to the size of the level above, known
    before that level is listed.  A level that is listed, or walked for its
    masks to count the level above, may hold at most _SIMPLEX_BUDGET
    simplices.
    """
    levels = [tuple((i,) for i in range(n)), tuple(edges)]
    counts = [n, len(edges)]
    if top == 1:
        return tuple(levels), tuple(counts)
    up = [0] * n
    for i, j in edges:
        up[i] |= 1 << j
    masks = [up[i] & up[j] for i, j in edges]
    for q in range(2, top + 1):
        counts.append(sum(mask.bit_count() for mask in masks))
        if listed or q < top:
            _check_budget(q, counts[q])
        if listed:
            levels.append(tuple(s + (v,) for s, mask in zip(levels[-1], masks) for v in _bits(mask)))
        if q < top:
            masks = [mask & up[v] for mask in masks for v in _bits(mask)]
    return tuple(levels), tuple(counts)


def _collapse_edges(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges left when no remaining edge is dominated, in their given order.

    An edge uv is dominated by a vertex w other than u and v when
    N[u] & N[v] is a subset of N[w], for closed neighbourhoods N held as
    int bitmasks.  Removing a dominated edge, with every simplex on it, is a
    collapse of the clique complex (Boissonnat and Pritam, "Edge collapse
    and persistence of flag complexes", SoCG 2020), so its homotopy type
    stays.  Each test reads the neighbourhoods left by every removal before
    it, and passes over the edges repeat until one removes nothing.
    """
    nbr = [1 << i for i in range(n)]
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    while True:
        kept = []
        for u, v in edges:
            common = nbr[u] & nbr[v]
            others = common ^ (1 << u) ^ (1 << v)
            while others:
                w = others.bit_length() - 1
                if common & nbr[w] == common:
                    nbr[u] ^= 1 << v
                    nbr[v] ^= 1 << u
                    break
                others ^= 1 << w
            else:
                kept.append((u, v))
        if len(kept) == len(edges):
            return kept
        edges = kept


def _gf2_rank_columns(cols: Iterable[int]) -> int:
    """Rank over GF(2) by left-to-right column reduction.

    Columns are bit masks over the rows, read one at a time from any
    iterable so only pivots stay alive.  Each is xored with the earlier
    pivot sharing its highest set row until it empties or claims a new
    pivot row; int xor keeps the inner step one word per 64 rows.
    """
    pivot_at_row: dict[int, int] = {}
    for col in cols:
        while col:
            low = col.bit_length() - 1
            other = pivot_at_row.get(low)
            if other is None:
                pivot_at_row[low] = col
                break
            col ^= other
    return len(pivot_at_row)


def _boundary_rank(faces: tuple[tuple[int, ...], ...], simplices: tuple[tuple[int, ...], ...]) -> int:
    index = {f: i for i, f in enumerate(faces)}

    def columns():
        for s in simplices:
            bits = 0
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1 :]
                if face not in index:
                    raise ValueError(f"simplex {s} lacks its face {face}: the complex is not closed under faces")
                bits |= 1 << index[face]
            yield bits

    return _gf2_rank_columns(columns())


def betti(complex_: SimplicialComplex | RipsComplex) -> BettiProfile:
    """Betti numbers over GF(2) from boundary ranks of the complex or of its edge-collapsed core.

    beta_q = (#q-simplices) - rank(boundary_q) - rank(boundary_{q+1}),
    with the boundary below dimension zero and above the top dimension
    both zero.  A RipsComplex, which rips returns, is collapsed directly, with no
    check and none of its levels listed: dominated edges are collapsed away
    (Boissonnat and Pritam 2020), which keeps the homotopy type of the
    clique complex and so every beta_q below the top, and the core's clique
    levels up to max_dim are reduced.  The ranks of the complex itself then
    follow from its simplex counts c_q: r_1 = c_0 - beta_0,
    r_{q+1} = c_q - r_q - beta_q, and the top entry is c_top - r_top.  A
    hand-built SimplicialComplex is reduced whole.  The Euler characteristic is the
    alternating simplex-count sum and always equals the alternating Betti
    sum.

    Raises:
        ValueError: a hand-built complex has other than max_dim + 1 levels,
            or a simplex lacks one of its faces; or a level of the core
            exceeds the simplex budget.
    """
    counts = complex_.simplex_counts
    top = complex_.max_dim
    if isinstance(complex_, RipsComplex):
        n = complex_.vertex_count
        core = _clique_levels(n, _collapse_edges(n, complex_.edges), top)[0]
    else:
        core = complex_.simplices
        if len(core) != top + 1:
            raise ValueError(f"complex lists {len(core)} levels of simplices, not max_dim + 1 = {top + 1}")
    ranks = [0, *map(_boundary_rank, core, core[1:])]
    bettis, rank = [], 0
    for q in range(top):
        bettis.append(len(core[q]) - ranks[q] - ranks[q + 1])
        rank = counts[q] - rank - bettis[q]  # rank of boundary_{q+1} on the complex itself
    bettis.append(counts[top] - rank)
    euler = sum(c if q % 2 == 0 else -c for q, c in enumerate(counts))
    return BettiProfile(betti=tuple(bettis), euler_characteristic=euler)


def betti0_linkage(points, threshold: float) -> ClusterEstimate:
    """Component count of the graph with edges at distance <= threshold.

    Vectorised hook-and-compress (Shiloach and Vishkin 1982) over the sweep's
    pairs, left in sorted positions since labels do not change a count.
    Each block of pairs is hooked into one forest as soon as it is tested:
    each round hooks every root onto the largest higher root it shares an
    edge with, then pointer-jumps to stars, until no edge joins two roots.
    Roots lie above their members, so a block reads and compresses only the
    positions from its first edge up to the furthest end any block has
    reached, and no later block reads below its first edge.  Blocks after
    the first drop the candidates whose ends the forest has already joined
    before testing them.  Memory is one block of at most _BLOCK_FLOATS
    words plus the forest and the sweep's arrays of one entry a point; no
    point budget.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    pts = _as_point_array(points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    parent = np.arange(n)
    top = 0
    for first, second in _sweep(pts, threshold, parent)[1]:
        if not first.size:
            continue
        top = max(top, int(second.max()) + 1)
        span = parent[first[0] : top]
        while True:
            root_a, root_b = parent[first], parent[second]
            joins = root_a != root_b
            if not joins.any():
                break
            first, second = first[joins], second[joins]
            # parent[v] >= v throughout, so hooking never closes a cycle
            np.maximum.at(parent, np.minimum(root_a, root_b)[joins], np.maximum(root_a, root_b)[joins])
            while not np.array_equal(hop := parent[span], span):
                span[:] = hop
    roots = int(np.count_nonzero(parent == np.arange(n)))
    return ClusterEstimate(threshold=float(threshold), cluster_count=roots)


def _budgeted_profile(points, scale: float, max_dim: int, point_budget: int) -> BettiProfile:
    """Full complex profile within the point budget, else the one-entry beta_0 collapse."""
    if not 1 <= int(max_dim) <= MAX_COMPLEX_DIM:
        raise ValueError(f"max_dim must lie in 1..{MAX_COMPLEX_DIM}")
    pts = _as_point_array(points)
    if pts.shape[0] <= point_budget:
        return betti(rips(pts, scale, int(max_dim), max_points=point_budget))
    clusters = betti0_linkage(pts, scale).cluster_count
    return BettiProfile(betti=(clusters,), euler_characteristic=clusters)


def homology_estimator(
    pack: SpherePack,
    samples: SampleSet,
    scale: float,
    *,
    max_dim: int | None = None,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> BettiProfile:
    """Plug-in Betti estimate of the sampled space at a connectivity scale.

    The scale must stay inside (0, 2*radius): the inter-sphere gap is
    2*radius, so anything at or above it would merge distinct spheres.
    Within the point budget the full complex profile is computed (top
    dimension defaulting to min(d+1, 3)); above it only the component
    count is, and the profile collapses to its degree-zero part, whose
    Euler characteristic is that of the component-collapsed space.
    """
    if not 0.0 < scale < 2.0 * pack.radius:
        raise ValueError(
            f"scale {scale!r} outside (0, {2.0 * pack.radius!r}); spheres would merge or nothing connects"
        )
    if samples.n == 0:
        raise ValueError("cannot estimate homology from an empty sample")
    dim = min(pack.intrinsic_dim + 1, MAX_COMPLEX_DIM) if max_dim is None else max_dim
    return _budgeted_profile(samples.points, scale, dim, point_budget)
