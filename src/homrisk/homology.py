"""Point-cloud homology: neighborhood complexes, GF(2) Betti numbers, clusters.

The full route builds the scale-r neighborhood (clique) complex and reads
Betti numbers off boundary ranks over the two-element field.  That blows
up combinatorially, so it carries dimension and point budgets.  When a
check finds a complex to be the clique complex of its edges, as rips
builds it, the ranks come from a far smaller core: edges dominated by a
common neighbour are collapsed away (Boissonnat and Pritam 2020), which
keeps every Betti number below the top, and the top one follows from the
simplex counts.  Any other complex is reduced whole.  The component
count alone has a cheap route with no budget, vectorised
hook-and-compress labelling over the same scale-graph edge list.  Both
take that list from one sweep over the points sorted on an axis, which
tests only the pairs that axis leaves within reach.  A pair is an edge when
its squares, added in axis order, sum to at most the squared scale, so the
edge set is the same on every numpy build.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .geometry import SampleSet, SpherePack

MAX_COMPLEX_DIM = 3
DEFAULT_POINT_BUDGET = 2000

# Words of working memory in one block of candidate pairs of _scale_edges, about eight a pair
# when every candidate is an edge and six when few are: the neighbour pass's memory cap.
_BLOCK_FLOATS = 1 << 21


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices per dimension 0..max_dim, each a sorted vertex tuple."""

    vertex_count: int
    simplices: tuple[tuple[tuple[int, ...], ...], ...]
    scale: float
    max_dim: int

    @property
    def simplex_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)


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


def _scale_edges(pts: np.ndarray, scale: float) -> np.ndarray:
    """Pairs i < j with |pts[i] - pts[j]| <= scale as a (2, E) array, sorted by (i, j).

    A pair is an edge when its squares, added in axis order, sum to at most
    scale * scale.  That one rule fixes the summation order, so the edge set
    is the same on every numpy build.  A sweep over the points sorted on
    axis 0 (Bentley, Stanat and Williams 1977): each point meets only the
    later points whose axis-0 coordinate lies within scale of its own, plus a
    few ulps, so that rounding drops no pair the rule accepts.  Candidate
    pairs run in blocks of at most _BLOCK_FLOATS // 8.
    """
    n, dims = pts.shape
    if dims == 0:  # no coordinates: every pair is at distance 0
        return np.stack(np.triu_indices(n, 1))
    order = np.argsort(pts[:, 0], kind="stable")
    cols = pts[order].T.copy()
    x = cols[0]
    reach = x + scale + 4.0 * (np.spacing(np.abs(x)) + np.spacing(scale))
    counts = np.searchsorted(x, reach, side="right") - np.arange(1, n + 1)
    ends = np.cumsum(counts)
    s2 = scale * scale
    keys = [np.empty(0, dtype=int)]
    lo = 0
    while lo < n:
        base = ends[lo - 1] if lo else 0
        # a point whose window alone exceeds the cap is a block of its own
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK_FLOATS // 8, side="right")))
        per_point = counts[lo:hi]
        first = np.repeat(np.arange(lo, hi), per_point)
        second = first + 1 + np.arange(first.size) - np.repeat(ends[lo:hi] - per_point - base, per_point)
        d = cols[0][first] - cols[0][second]
        d2 = d * d
        for col in cols[1:]:
            d = col[first] - col[second]
            d2 += d * d
        near = d2 <= s2
        i, j = order[first[near]], order[second[near]]
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
        del first, second, d, d2, near, i, j  # else the last block stays alive through the closing sort
        lo = hi
    return np.stack(np.divmod(np.sort(np.concatenate(keys)), n))


def rips(points, scale: float, max_dim: int, *, max_points: int = DEFAULT_POINT_BUDGET) -> SimplicialComplex:
    """Neighborhood complex at the given scale.

    A q-simplex is any (q+1)-subset of points with all pairwise distances
    at or below the scale, so the complex is the clique expansion of the
    scale graph and is closed under faces by construction.  Levels grow
    through upper-neighbour sets up[i] = {j > i : i ~ j} (Zomorodian 2010).

    Args:
        points: array-like of shape (n, dim).
        scale: connectivity distance, positive.
        max_dim: top simplex dimension to enumerate, between 1 and 3.
        max_points: point budget; larger inputs are rejected.

    Returns:
        SimplicialComplex with simplices for every dimension 0..max_dim.
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
    return SimplicialComplex(
        vertex_count=n,
        simplices=_clique_levels(n, list(zip(first.tolist(), second.tolist())), int(max_dim)),
        scale=float(scale),
        max_dim=int(max_dim),
    )


def _clique_levels(n: int, edges: Sequence[tuple[int, int]], max_dim: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Levels 0..max_dim of the clique complex of n vertices and edges i < j in lexicographic order.

    Each level grows from the one below through upper-neighbour sets: a
    simplex extends by every vertex above it that neighbours all of its
    vertices, so each level comes in lexicographic order too.
    """
    up: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        up[i].add(j)
    levels: list[Sequence[tuple[int, ...]]] = [[(i,) for i in range(n)], edges]
    for _ in range(2, max_dim + 1):
        grown: list[tuple[int, ...]] = []
        for simplex in levels[-1]:
            common = up[simplex[0]].intersection(*(up[v] for v in simplex[1:]))
            grown.extend(simplex + (v,) for v in sorted(common))
        levels.append(grown)
    return tuple(tuple(level) for level in levels)


def _lexicographic_rows(level: tuple[tuple[int, ...], ...], width: int, n: int) -> np.ndarray | None:
    """level as a (len, width) array if each simplex is width vertices in range(n)
    and the simplices are distinct and in increasing lexicographic order, else None."""
    if set(map(len, level)) - {width}:
        return None
    rows = np.fromiter(chain.from_iterable(level), dtype=np.int64, count=width * len(level)).reshape(-1, width)
    step = np.diff(rows, axis=0)
    ordered = (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all()
    return rows if ordered and ((rows >= 0) & (rows < n)).all() else None


def _is_clique_complex(complex_: SimplicialComplex) -> bool:
    """Whether complex_ is the clique complex of its edges up to max_dim, listed as rips lists it.

    Level 0 must be the vertices in order, and level 1 distinct edges i < j.
    Each level above must list distinct simplices in lexicographic order,
    every vertex pair of each an edge, and as many as the graph has cliques
    of that size, so it lists them all.  The level below counts those as
    the sum of (up[s0] & up[s1] & ...).bit_count(), with up[i] the bitmask
    of the neighbours above i.  A complex not closed under faces fails,
    since one of its simplices is no clique.
    """
    n = complex_.vertex_count
    levels = complex_.simplices
    if len(levels) < 2 or levels[0] != tuple((i,) for i in range(n)):
        return False
    edges = _lexicographic_rows(levels[1], 2, n)
    if edges is None or not (edges[:, 0] < edges[:, 1]).all():
        return False
    edge_keys = edges[:, 0] * n + edges[:, 1]
    up = [0] * n
    for i, j in levels[1]:
        up[i] |= 1 << j
    for q in range(2, len(levels)):
        rows = _lexicographic_rows(levels[q], q + 1, n)
        if rows is None or not all(
            np.isin(rows[:, a] * n + rows[:, b], edge_keys).all() for a, b in combinations(range(q + 1), 2)
        ):
            return False
        cliques = 0
        for simplex in levels[q - 1]:
            common = -1
            for v in simplex:
                common &= up[v]
            cliques += common.bit_count()
        if cliques != len(levels[q]):
            return False
    return True


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


def betti(complex_: SimplicialComplex) -> BettiProfile:
    """Betti numbers over GF(2) from boundary ranks of the edge-collapsed core.

    beta_q = (#q-simplices) - rank(boundary_q) - rank(boundary_{q+1}),
    with the boundary below dimension zero and above the top dimension
    both zero.  When the complex is the clique complex of its edges up to
    max_dim, as rips builds it, the ranks are read off a smaller core:
    dominated edges are collapsed away (Boissonnat and Pritam 2020), which
    keeps the homotopy type of the clique complex and so every beta_q below
    the top, and the core's clique levels up to max_dim are reduced.  The
    ranks of the complex itself then follow from its simplex counts c_q:
    r_1 = c_0 - beta_0, r_{q+1} = c_q - r_q - beta_q, and the top entry is
    c_top - r_top.  Any other complex is its own core.  The Euler
    characteristic is the alternating simplex-count sum and always equals
    the alternating Betti sum.

    Raises:
        ValueError: the complex has other than max_dim + 1 levels, or a
            simplex lacks one of its faces.
    """
    counts = complex_.simplex_counts
    top = complex_.max_dim
    core = complex_.simplices
    if len(core) != top + 1:
        raise ValueError(f"complex lists {len(core)} levels of simplices, not max_dim + 1 = {top + 1}")
    if _is_clique_complex(complex_):
        n = complex_.vertex_count
        core = _clique_levels(n, _collapse_edges(n, core[1]), top)
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

    Vectorised hook-and-compress (Shiloach and Vishkin) over the edge list:
    each round hooks every root onto the smallest lower root it shares an edge
    with, then pointer-jumps to stars, until no edge joins two roots.
    Candidate pairs run in bounded blocks, so memory is the edge list; no point budget.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    pts = _as_point_array(points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    first, second = _scale_edges(pts, threshold)
    parent = np.arange(n)
    while True:
        root_a, root_b = parent[first], parent[second]
        joins = root_a != root_b
        if not joins.any():
            break
        first, second = first[joins], second[joins]
        # parent[v] <= v throughout, so hooking never closes a cycle
        np.minimum.at(parent, np.maximum(root_a, root_b)[joins], np.minimum(root_a, root_b)[joins])
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
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
