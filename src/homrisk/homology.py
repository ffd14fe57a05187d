"""Point-cloud homology: neighborhood complexes, GF(2) Betti numbers, clusters.

rips returns the scale-r neighborhood (clique) complex as a RipsComplex,
its vertex count and its edge list.  It builds the closed-neighbourhood
bitmasks once, in numpy from the edge array, counts every level from them,
by popcounts over the level below, before it builds the edge tuples, and
lists the levels only when they are read.
betti collapses such a complex directly, with no check and on a copy of
the same masks: edges dominated by a common neighbour are collapsed away
(Boissonnat and Pritam 2020), the vertex that dominated the last one
tried first, which keeps every Betti number below the top.  The small
core gives those: the rank of its first boundary is its vertex count less
its component count, from a hook-and-compress forest, and the higher
ranks are taken over the two-element field; the top one follows from the
simplex counts.  A hand-built complex is reduced whole.  Cliques blow
up combinatorially, so the full route carries dimension and point
budgets, and no level beyond the simplex budget is listed or walked.  The
component count alone has a cheap route with no budget, vectorised
hook-and-compress labelling that takes each block of tested pairs into
one forest as soon as it is tested, so it holds one block and the forest.
rips takes its pairs from a sweep over the points sorted on an axis,
which tests only the pairs that axis leaves within reach; the component
count takes the same sweep's pairs, except on 2-D and 3-D clouds with
more than one block of candidates, and enough of them a point to pay for
the cells' offsets, where it counts over clique cells of side
scale/sqrt(D) and tests only pairs of cells that the forest has not yet
joined.  The count takes groups of equally many points and counts
each on its own, since no pair joins two groups: betti0_linkage is the
count of one group, and the Monte Carlo harness counts a batch of
estimator trials in one call, on the route that the batch's summed sweep
candidates choose.  On a pack of circles the estimator's trials are
counted from cyclic spacings instead: below the gap between circles no
edge joins two circles, and on one circle the components are the
neighbour pairs in angle order that fail the edge rule, or one when none
does.  One angle argsort and one stable pass over the (trial, circle)
groups order a batch; points of equal angle come in either order, which
no certified count reads, and a trial whose pairs or points come too
close to a tie for the count to be certified falls back to the grouped
count.  A pair is an edge when its squares, added in axis order, sum to
at most the squared scale, so the edge set is the same on every numpy
build, and every route counts the same components.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry
from .geometry import SampleSet, SpherePack

MAX_COMPLEX_DIM = 3
DEFAULT_POINT_BUDGET = 2000

# Words of working memory in one block of candidate pairs, about eight a pair when every
# candidate is an edge and six when few are: the neighbour pass's memory cap, 2**14 pairs or
# about 1 MB, for rips' _scale_edges and both routes of the component count alike.
_BLOCK_FLOATS = 1 << 17

# Most candidate pairs the sweep may test in one group (see _sweep), counted before any is tested,
# also when the count then goes over cells; a batch of groups may hold more in all.  betti0_linkage
# holds no edge list, so this bounds its work: about 1.2 s at the 18 ns a candidate of a
# 40 000-point cloud whose candidates are rarely edges (one core of a 2-core VM).  The cells test
# only pairs under 3 sides, at most 2.13 scale, apart on axis 0: at most 7 times the sweep's
# candidates plus 3 a point, as slabs of width scale show.  The bench's 4000-point cloud has 3.0e6
# sweep candidates, of which the cells test 1.7e5, and rips' default point budget caps its own at
# 1 999 000.
_MAX_PAIRS = 1 << 26

# Cells an axis must span fewer of for the component count to go over cells (see _cell_components),
# with a batch's groups laid end to end on axis 0; a wider batch stays on the sweep.  A pair that
# passes the edge rule lies at most sqrt(D) <= sqrt(3) cells, plus a few ulps, apart on each axis,
# while a computed cell coordinate under 2**20 is off by under 2**-30 cells, far under the quarter
# cell that sqrt(3) leaves below 2, so no edge joins cells more than two apart.  The keys, with two
# cells of margin a side, stay below (2**20 + 5)**3 < 2**63.
_GRID_SPAN = 1 << 20

# Sweep candidates a point must have for each cell offset (see _cell_components), in a cloud or batch
# past one block of them, for the component count to go over cells.  Each offset searches every
# occupied cell, at most one a point, so the cells' cost grows with offsets times points, and the
# trials of a batch fill cells of their own.  In 3-space (62 offsets) batches of the d = 2 pack,
# tau = 1/8 and 1/16, cross over near 47 candidates a point: the sweep took 5.6 ms against the
# cells' 7.8 ms at 33, 7.3 against 7.3 at 47 and 8.6 against 6.3 at 62 (4000 points a batch, one
# core of a 2-core VM); in the plane (12 offsets) near 12.  A cloud of one group fills its cells
# and crosses earlier, so one block stays the floor.
_CANDIDATES_PER_OFFSET = 0.75

# Most simplices of one level that may be listed, or walked to count the level above (see
# rips): room for every complex the tests and the benchmark build, while a dense one, up to
# C(2000, 3) = 1.3e9 triangles under the default point budget, fails at once.
_SIMPLEX_BUDGET = 10**6

# Relative margin, about 1e-9, around the squared scale inside which a neighbour pair's squared
# distance leaves the estimator's circle count uncertified (see _circle_counts): far above the few
# units in the last place that the coordinates, the squares and arctan2 carry.
_CIRCLE_MARGIN = 2.0**-30


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
    def _ends(self) -> np.ndarray:
        """The edges as a (2, E) array; rips stores its own, so this builds only a hand-built complex's."""
        return np.array(self.edges, dtype=np.int64).reshape(-1, 2).T

    @cached_property
    def _closed(self) -> list[int]:
        """The closed neighbourhoods (see _closed_masks), built once and shared by counting, listing
        and betti's collapse, which works on a copy."""
        return _closed_masks(self.vertex_count, self._ends)

    @cached_property
    def simplices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        levels = _clique_levels(self.vertex_count, self._ends, self._closed, self.max_dim)[0]
        return (levels[0], self.edges, *levels[2:])  # the edges themselves, so they are not held twice

    @cached_property
    def simplex_counts(self) -> tuple[int, ...]:
        return _clique_levels(self.vertex_count, self._ends, self._closed, self.max_dim, listed=False)[1]


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
    _check_finite(pts)
    return pts


def _check_finite(pts: np.ndarray) -> None:
    """Refuse the first point with a non-finite coordinate, the points being the rows of pts' last two
    axes, and name it by its row among them."""
    finite = np.isfinite(pts).all(axis=-1)
    if not finite.all():
        at = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(f"point {int(at[-1])} has a non-finite coordinate: {pts[at].tolist()}")


def _sweep(
    pts: np.ndarray, scale: float, forest: np.ndarray | None = None
) -> tuple[np.ndarray, int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """For points pts, (groups, n, D), with each group's rows laid end to end: the order that sorts
    each group on axis 0, the number of candidate pairs the sweep tests in all groups, and the pairs
    a < b of positions in that order whose points lie within scale, as blocks of two arrays of ends
    tested from at most _BLOCK_FLOATS // 8 candidate pairs.

    A pair is an edge when its squares, added in axis order, sum to at most
    scale * scale.  That one rule fixes the summation order, so the edge set
    is the same on every numpy build.  A sweep over the points sorted on
    axis 0 (Bentley, Stanat and Williams 1977): each point meets only the
    later points of its group whose axis-0 coordinate lies within scale of
    its own, plus a few ulps, so that rounding drops no pair the rule
    accepts.  A point whose window alone exceeds the cap is a block of its
    own.  Points with no coordinates sweep as one zero axis, where every
    pair is an edge.  A group with more than _MAX_PAIRS candidates is
    refused before any block is built.  Given a forest over sorted
    positions, each block after the first drops the candidates whose ends
    share a forest entry before testing them; the caller updates the forest
    in place between blocks.
    """
    groups, n, dims = pts.shape
    if dims == 0:
        pts, dims = np.zeros((groups, n, 1)), 1
    order = np.argsort(pts[:, :, 0], axis=1, kind="stable")
    x = np.take_along_axis(pts[:, :, 0], order, axis=1)
    with np.errstate(over="ignore"):  # a window past the float range reaches every later point
        reach = x + scale + 4.0 * (np.spacing(np.abs(x)) + np.spacing(scale))
    ends = np.array([np.searchsorted(row, row_reach, side="right") for row, row_reach in zip(x, reach)])
    counts = ends - np.arange(1, n + 1)
    per_group = counts.sum(axis=1)
    _check_pairs(int(per_group[np.argmax(per_group > _MAX_PAIRS)]))  # the first group over the limit, if any
    order = (order + n * np.arange(groups)[:, None]).ravel()

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rows = np.arange(groups * n)
        cols = pts.reshape(groups * n, dims)[order].T.copy()
        yield from _tested_blocks(cols, rows, rows + 1, counts.ravel(), scale * scale, forest)

    return order, int(per_group.sum()), blocks()


def _check_pairs(count: int) -> None:
    if count > _MAX_PAIRS:
        raise ValueError(f"{count} candidate pairs, above the limit of {_MAX_PAIRS}")


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[t], starts[t] + 1, ..., starts[t] + lengths[t] - 1 for each t in turn, as one array."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.size)
    return out


def _tested_blocks(
    cols: np.ndarray, rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray, s2: float, forest: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The edges among the candidate pairs (rows[t], starts[t] + j), j < lengths[t], of the points
    cols holds one axis a row, as pairs of arrays tested from at most _BLOCK_FLOATS // 8 candidates;
    a row whose run alone exceeds that is a block of its own.  Given a forest, each block after the
    first drops the candidates whose ends share a forest entry before testing them."""
    ends = np.cumsum(lengths)
    lo = 0
    while lo < rows.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK_FLOATS // 8, side="right")))
        yield _near_pairs(cols, rows[lo:hi], starts[lo:hi], lengths[lo:hi], s2, forest if lo else None)
        lo = hi


def _near_pairs(
    cols: np.ndarray, rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray, s2: float, forest: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs at most sqrt(s2) apart, as two arrays of k ends, among the candidates (rows[t], starts[t] + j),
    j < lengths[t], of the points cols holds one axis a row.  A candidate whose ends share an entry of
    forest, when given, is dropped untested.  The candidates live only inside this call, so they are
    freed before the caller goes on."""
    first = np.repeat(rows, lengths)
    second = _ranges(starts, lengths)
    if forest is not None:
        apart = forest[first] != forest[second]
        first, second = first[apart], second[apart]
    with np.errstate(over="ignore"):  # an overflowed square is inf, above any s2, so not an edge
        d2 = cols[0][first]
        d2 -= cols[0][second]
        d2 *= d2
        for col in cols[1:]:
            d = col[first]
            d -= col[second]
            d *= d
            d2 += d
    near = d2 <= s2
    del d2
    return first[near], second[near]


def _scale_edges(pts: np.ndarray, scale: float) -> np.ndarray:
    """Pairs i < j with |pts[i] - pts[j]| <= scale as a (2, E) array, sorted by (i, j):
    the sweep's pairs relabelled to row indices and sorted once through the key i * n + j."""
    n = pts.shape[0]
    order, _, blocks = _sweep(pts[None], scale)
    keys = [np.minimum(i, j) * n + np.maximum(i, j) for i, j in ((order[a], order[b]) for a, b in blocks)]
    return np.stack(np.divmod(np.sort(np.concatenate([np.empty(0, dtype=int), *keys])), n))


def _check_budget(q: int, count: int) -> None:
    if count > _SIMPLEX_BUDGET:
        raise ValueError(f"level {q} holds {count} simplices, above the simplex budget of {_SIMPLEX_BUDGET}")


def rips(points, scale: float, max_dim: int, *, max_points: int = DEFAULT_POINT_BUDGET) -> RipsComplex:
    """Neighborhood complex at the given scale, as its vertex count and its edges.

    A q-simplex is any (q+1)-subset of points with all pairwise distances
    at or below the scale, so the complex is the clique expansion of the
    scale graph and is closed under faces by construction.  The closed
    neighbourhoods are built once as bitmasks, from the sorted edge array,
    and every level is counted from them, by popcounts over the level below,
    before the edge tuples are built; a level that is only counted keeps no
    mask.  The result carries the sorted edges with the masks and counts, so
    its simplices, listed only when read, and betti, which collapses it
    without a check and without listing any of its levels, rebuild neither.

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
    ends = _scale_edges(pts, scale)
    _check_budget(1, ends.shape[1])
    closed = _closed_masks(n, ends)
    # every level counted before any edge tuple is built, so a complex beyond the simplex budget fails here
    counts = _clique_levels(n, ends, closed, int(max_dim), listed=False)[1]
    complex_ = RipsComplex(n, tuple(_pairs(ends)), float(scale), int(max_dim))
    vars(complex_).update(_ends=ends, _closed=closed, simplex_counts=counts)  # kept, so nothing is rebuilt
    return complex_


def _closed_masks(n: int, ends: np.ndarray) -> list[int]:
    """Closed neighbourhoods N[i], vertex i and its neighbours, as int bitmasks, for the edges of the
    (2, E) array ends: each edge sets one bit in each of two rows of n // 64 + 1 little-endian words,
    in one vectorised pass a direction, and each row becomes one int."""
    words = np.zeros((n, n // 64 + 1), dtype="<u8")
    for rows, cols in ((np.arange(n), np.arange(n)), ends, ends[::-1]):
        np.bitwise_or.at(words, (rows, cols >> 6), np.uint64(1) << (cols & 63).astype(np.uint64))
    raw, size = words.tobytes(), words.shape[1] * 8
    return [int.from_bytes(raw[at : at + size], "little") for at in range(0, n * size, size)]


def _pairs(ends: np.ndarray) -> Iterator[tuple[int, int]]:
    """The edges of the (2, E) array ends as int pairs, converted one block of columns at a time."""
    for lo in range(0, ends.shape[1], _BLOCK_FLOATS // 8):
        yield from zip(*ends[:, lo : lo + _BLOCK_FLOATS // 8].tolist())


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_levels(
    n: int, ends: np.ndarray, closed: Sequence[int], top: int, *, listed: bool = True
) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], tuple[int, ...]]:
    """Levels 0..top of the clique complex of n vertices, with the edges i < j of the (2, E) array
    ends in lexicographic order and closed neighbourhoods closed (see _closed_masks), and their
    sizes; without listed, no level comes back and every level is only counted.

    Each simplex s carries a bitmask, up[s0] & up[s1] & ..., of the
    vertices above it that neighbour all of its vertices, with up[i] the
    neighbours above i, closed[i] with its bits up to i cleared.  It extends
    by each of those in increasing order (Zomorodian 2010), so every level
    comes in lexicographic order, and the popcounts of its masks add up to
    the size of the level above.  That size is taken in one pass that keeps
    no mask, before the masks of a level are listed, so a level that is
    listed, or walked for its masks to count the level above, is refused
    when it holds more than _SIMPLEX_BUDGET simplices before any of its
    masks is kept; a level that is only counted keeps none.  Counting level
    q costs an and and a popcount of at most n / 64 + 1 words for each
    simplex of level q - 1, and listing or walking level q - 1 that pass again.
    """
    levels = [tuple((i,) for i in range(n)), tuple(_pairs(ends))] if listed else []
    counts = [n, ends.shape[1]]
    up = [mask >> i + 1 << i + 1 for i, mask in enumerate(closed)]
    lower: list[int] | None = None  # the kept masks of level q - 2; level 1's come from the edges

    def masks() -> Iterator[int]:  # the masks of level q - 1, in one pass
        if lower is None:
            return (up[i] & up[j] for i, j in _pairs(ends))
        return (mask & up[v] for mask in lower for v in _bits(mask))

    for q in range(2, top + 1):
        counts.append(sum(mask.bit_count() for mask in masks()))
        if not (listed or q < top):
            break
        _check_budget(q, counts[q])
        kept = list(masks())
        if listed:
            levels.append(tuple(s + (v,) for s, mask in zip(levels[-1], kept) for v in _bits(mask)))
        lower = kept
    return tuple(levels), tuple(counts)


def _collapse_edges(n: int, edges: Sequence[tuple[int, int]], closed: Sequence[int]) -> list[tuple[int, int]]:
    """The edges left when no remaining edge is dominated, in their given order, for the closed
    neighbourhoods closed of the n vertices (see _closed_masks), which it reads and leaves as they are.

    An edge uv is dominated by a vertex w other than u and v when
    N[u] & N[v] is a subset of N[w], for closed neighbourhoods N held as
    int bitmasks.  Removing a dominated edge, with every simplex on it, is a
    collapse of the clique complex (Boissonnat and Pritam, "Edge collapse
    and persistence of flag complexes", SoCG 2020), so its homotopy type
    stays.  Each test reads the neighbourhoods left by every removal before
    it, on a copy of closed, and passes over the edges repeat until one
    removes nothing.  Domination is existential, so the order in which the
    candidates w are tried changes no removal: the vertex that dominated the
    last removed edge is tried first, and neighbouring edges often share
    it.  Otherwise a dominating vertex neighbours every vertex of
    N[u] & N[v], so each refuted w narrows the search to its own neighbours.
    Each w tried costs an and, a compare and a mask update of n / 64 + 1 words.
    """
    nbr = list(closed)
    bit = [1 << i for i in range(n)]
    last = 0  # the last dominating vertex
    while True:
        kept = []
        for u, v in edges:
            common = nbr[u] & nbr[v]
            if last == u or last == v or common & nbr[last] != common:
                others = common ^ bit[u] ^ bit[v]
                while others:
                    w = others.bit_length() - 1
                    if common & nbr[w] == common:
                        last = w
                        break
                    others &= nbr[w] ^ bit[w]
                else:
                    kept.append((u, v))
                    continue
            nbr[u] ^= bit[v]
            nbr[v] ^= bit[u]
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
    both zero.  A RipsComplex, which rips returns, is collapsed directly,
    with no check and none of its levels listed: dominated edges are
    collapsed away (Boissonnat and Pritam 2020; see _collapse_edges), which
    keeps the homotopy type of the clique complex and so every beta_q below
    the top.  The core's rank of boundary_1 is its vertex count less its
    component count, the roots of a hook-and-compress forest over its edges
    (see _hook), and its clique levels up to max_dim give the higher ranks.
    The ranks of the complex itself then
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
        collapsed = RipsComplex(n, tuple(_collapse_edges(n, complex_.edges, complex_._closed)), complex_.scale, top)
        core = collapsed.simplices
        forest = np.arange(n)
        _hook(forest, *collapsed._ends, forest)
        ranks = [0, n - int(np.count_nonzero(forest == np.arange(n))), *map(_boundary_rank, core[1:], core[2:])]
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


def _hook(parent: np.ndarray, first: np.ndarray, second: np.ndarray, span: np.ndarray) -> None:
    """Hook the edges first[i] -- second[i] into the forest parent, in place, by vectorised
    hook-and-compress (Shiloach and Vishkin 1982): each round hooks every root onto the largest
    higher root it shares an edge with, then pointer-jumps span, a view of parent holding every
    entry whose root may change and every root it may reach, to stars, until no edge joins two
    roots.  parent[v] >= v throughout, so hooking never closes a cycle."""
    while True:
        root_a, root_b = parent[first], parent[second]
        joins = root_a != root_b
        if not joins.any():
            return
        root_a, root_b = root_a[joins], root_b[joins]
        np.maximum.at(parent, np.minimum(root_a, root_b), np.maximum(root_a, root_b))
        first, second = first[joins], second[joins]
        while ((hop := parent[span]) != span).any():
            span[:] = hop


def _cell_offsets(dims: int) -> np.ndarray:
    """The cell offsets o in {-2..2}^dims whose first non-zero entry is positive, one a row, nearest
    first: by the least squared gap between two cells o apart, in cells, then by |o|^2."""
    half = [o for o in itertools.product(range(-2, 3), repeat=dims) if o > (0,) * dims]
    half.sort(key=lambda o: (sum(max(abs(c) - 1, 0) ** 2 for c in o), sum(c * c for c in o)))
    return np.array(half, dtype=np.int64)


_CELL_OFFSETS = {dims: _cell_offsets(dims) for dims in (2, 3)}


def _cell_components(pts: np.ndarray, scale: float) -> np.ndarray | None:
    """Components of the scale graph of each group of pts, (groups, n, D) in 2 or 3 dimensions,
    counted over clique cells, or None when the groups' grids, laid end to end on axis 0, span
    _GRID_SPAN cells or more on an axis.

    Cells of side scale / sqrt(D) (Bentley, Stanat and Williams 1977; de Berg,
    Gunawan and Speckmann 2019), each group's from its own lowest corner,
    keyed by int64 cell coordinates with the group in the most significant
    part.  A cell whose bounding box passes the edge rule is one unit of the
    forest: rounding is monotone, so every pair in it passes the same rule.
    Each point of a cell that fails the check is a unit of its own, and the
    cell's pairs are tested first.  Every edge joins cells at most two apart
    on each axis (see _GRID_SPAN), so the offsets in {-2..2}^D, nearest
    first, cover them all, and two cells of margin a side keep every offset
    inside its group's keys.  For each offset the cell pairs whose units the
    forest already joins are dropped before any point pair is made, and the
    rest are tested with the one edge rule in blocks of at most
    _BLOCK_FLOATS // 8 candidates.
    """
    groups, n, dims = pts.shape
    with np.errstate(over="ignore"):  # a cloud whose extent overflows spans inf cells
        cells = np.floor((pts - pts.min(axis=1, keepdims=True)) / (scale / math.sqrt(dims)))
    span = cells.max(axis=(0, 1))
    rise = span[0] + 5  # axis-0 cells of one group's grid with its margins
    if not (np.append(groups * rise - 5, span[1:]) < _GRID_SPAN).all():
        return None
    # two cells of margin on each side, so no offset carries a coordinate into the next axis or group
    strides = np.append(np.cumprod(span[:0:-1].astype(np.int64) + 5)[::-1], 1)
    keys = (cells.astype(np.int64) + 2) @ strides + np.arange(groups)[:, None] * (int(rise) * int(strides[0]))
    del cells
    order = np.argsort(keys.ravel(), kind="stable")
    keys = keys.ravel()[order]
    cols = pts.reshape(groups * n, dims)[order].T.copy()
    del order
    starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    sizes = np.diff(np.append(starts, groups * n))
    keys = keys[starts]
    s2 = scale * scale
    box = 0.0
    with np.errstate(over="ignore"):  # as in _near_pairs
        for col in cols:
            d = np.maximum.reduceat(col, starts) - np.minimum.reduceat(col, starts)
            box = box + d * d
    whole = box <= s2
    fresh = np.repeat(~whole, sizes)
    fresh[starts] = True
    unit = np.cumsum(fresh) - 1
    parent = np.arange(unit[-1] + 1)
    rep = unit[starts]

    def hook(rows: np.ndarray, run_starts: np.ndarray, lengths: np.ndarray) -> None:
        for first, second in _tested_blocks(cols, rows, run_starts, lengths, s2):
            first, second = unit[first], unit[second]
            # the edges of one row, or of all rows of a whole cell, repeat one pair of units
            new = np.ones(first.size, dtype=bool)
            new[1:] = (first[1:] != first[:-1]) | (second[1:] != second[:-1])
            _hook(parent, first[new], second[new], parent)
            del first, second  # freed before the next block is tested

    split = np.flatnonzero(~whole)
    if split.size:
        rows = _ranges(starts[split], sizes[split])
        hook(rows, rows + 1, np.repeat(starts[split] + sizes[split], sizes[split]) - rows - 1)
    last = keys.size - 1
    for step in _CELL_OFFSETS[dims] @ strides:
        near = keys + step
        at = np.minimum(np.searchsorted(keys, near), last)
        a = np.flatnonzero(keys[at] == near)
        b = at[a]
        apart = (parent[rep[a]] != parent[rep[b]]) | ~whole[a] | ~whole[b]
        a, b = a[apart], b[apart]
        if a.size:
            hook(_ranges(starts[a], sizes[a]), np.repeat(starts[b], sizes[a]), np.repeat(sizes[b], sizes[a]))
    # sorted positions keep the groups in order, n each; a root is counted at its unit's first point
    return np.count_nonzero((fresh & (parent[unit] == unit)).reshape(groups, n), axis=1)


def _components(pts: np.ndarray, scale: float) -> np.ndarray:
    """Component count of the scale graph of each group of pts, (groups, n, D) with n >= 1.

    Vectorised hook-and-compress (Shiloach and Vishkin 1982) over the sweep's
    pairs, left in sorted positions since labels do not change a count; no
    pair joins two groups, so each group's roots are its count.  Each block
    of pairs is hooked into one forest as soon as it is tested.  Roots lie
    above their members, so a block reads and compresses only the positions
    from its first edge up to the furthest end any block has reached, and
    no later block reads below its first edge.  Blocks after the first drop
    the candidates whose ends the forest has already joined before testing
    them.  In 2 or 3 dimensions, when the sweep would test more than one
    block of candidates in all groups together, and more than
    _CANDIDATES_PER_OFFSET a point for each cell offset, the count is taken
    over clique cells instead (see _cell_components), which tests far fewer
    pairs on large clouds; groups too wide for the cells' int64 keys stay
    on the sweep.  Either way memory is one block of at most _BLOCK_FLOATS
    words plus arrays of a few entries a point.
    """
    groups, n, dims = pts.shape
    parent = np.arange(groups * n)
    _, candidates, blocks = _sweep(pts, scale, parent)
    if dims in (2, 3) and candidates > max(
        _BLOCK_FLOATS // 8, _CANDIDATES_PER_OFFSET * len(_CELL_OFFSETS[dims]) * groups * n
    ):
        counts = _cell_components(pts, scale)
        if counts is not None:
            return counts
    top = 0
    for first, second in blocks:
        if first.size:
            top = max(top, int(second.max()) + 1)
            _hook(parent, first, second, parent[first[0] : top])
        del first, second  # freed before the next block is tested
    return np.count_nonzero((parent == np.arange(groups * n)).reshape(groups, n), axis=1)


def betti0_linkage(points, threshold: float) -> ClusterEstimate:
    """Component count of the graph with edges at distance <= threshold.

    The points are one group of the grouped count (see _components): the
    neighbour sweep's pairs, or in 2 or 3 dimensions past its threshold of
    sweep candidates the clique cells', hooked into one forest block by
    block.  Memory is one block of at most _BLOCK_FLOATS words plus arrays
    of a few entries a point; no point budget.  More than _MAX_PAIRS sweep
    candidates are refused before any pair is tested.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    pts = _as_point_array(points)
    if pts.shape[0] == 0:
        raise ValueError("no points to cluster")
    return ClusterEstimate(threshold=float(threshold), cluster_count=int(_components(pts[None], threshold)[0]))


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
    _check_estimate(pack, scale, samples.n)
    dim = min(pack.intrinsic_dim + 1, MAX_COMPLEX_DIM) if max_dim is None else max_dim
    return _budgeted_profile(samples.points, scale, dim, point_budget)


def _check_estimate(pack: SpherePack, scale: float, n: int) -> None:
    if not 0.0 < scale < 2.0 * pack.radius:
        raise ValueError(
            f"scale {scale!r} outside (0, {2.0 * pack.radius!r}); spheres would merge or nothing connects"
        )
    if n == 0:
        raise ValueError("cannot estimate homology from an empty sample")


def _circle_counts(pack: SpherePack, points: np.ndarray, scale: float) -> np.ndarray:
    """_components(points, scale) for trials drawn on a pack of circles (d = 1), (trials, n, D) with
    n >= 1, counted from cyclic spacings; a trial whose count this cannot certify goes to _components.

    Each point is labelled with its circle by assign_points' arithmetic.  One argsort of the angles
    about the circles' centers, then one stable argsort of the (trial, circle) keys in the least
    unsigned type that holds trials * m (numpy radix-sorts 8- and 16-bit keys), order the batch by
    trial, circle and angle.  Points of equal angle may come in either order: a certified count is
    _components' whatever the order of equal keys, and every other trial goes to _components, so
    the result does not depend on it.  Each cyclic neighbour pair of a
    (trial, circle) group is tested with the one edge rule.  On one circle the components are the
    runs between the pairs that fail it, so a group whose k pairs fail has max(k, 1) components
    (Stevens 1939; Fisher 1940), and a trial's count is the sum over its groups.  The count equals
    _components' for a certified trial (see _spacing_counts), whatever the last bits of arctan2
    are, and every other trial is counted by _components, so the result never depends on them.  A
    trial is certified when every point has zeros past axis 1 and lies within a tolerance of its
    circle, and no neighbour pair's d2 lies within a relative _CIRCLE_MARGIN of s2.  The whole batch
    goes to _components at scales outside [2**-12 r, (1 - _CIRCLE_MARGIN)(G - 2r)], G the least
    gap between centers, and when a trial of n points could have more than _MAX_PAIRS candidate
    pairs, so that _components refuses it as it always has.  The spacing count's arrays, a dozen
    words a point, are freed before any trial falls back.
    """
    n, r = points.shape[1], pack.radius
    gap = float(np.diff(pack.centers[:, 0]).min(initial=math.inf)) - 2.0 * r
    if n * (n - 1) // 2 > _MAX_PAIRS or not 2.0**-12 * r <= scale <= (1.0 - _CIRCLE_MARGIN) * gap:
        return _components(points, scale)
    counts, unsure = _spacing_counts(pack, points, scale)
    if unsure.any():
        counts[unsure] = _components(points[unsure], scale)
    return counts


def _spacing_counts(pack: SpherePack, points: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's count from its cyclic spacings, and which trials that count does not certify (see
    _circle_counts), at a scale inside the window _circle_counts checks."""
    trials, n, dims = points.shape
    r, m = pack.radius, pack.count
    flat = points.reshape(trials * n, dims)
    label = geometry._nearest(pack, flat)
    dx = flat[:, 0] - pack.centers[label, 0]
    dy = flat[:, 1] - pack.centers[0, 1]
    group = np.repeat(np.arange(trials) * m, n) + label
    order = np.argsort(np.arctan2(dy, dx))
    order = order[np.argsort(group[order].astype(np.min_scalar_type(trials * m - 1)), kind="stable")]
    group = group[order]
    starts = np.flatnonzero(np.append(True, group[1:] != group[:-1]))
    after = np.arange(1, trials * n + 1)
    after[np.append(starts[1:], trials * n) - 1] = starts  # each group's last point is followed by its first
    x, y = flat[order, 0], flat[order, 1]
    d2 = x - x[after]  # squares added in axis order, as _near_pairs adds them; the zero axes add nothing
    d2 *= d2
    d = y - y[after]
    d *= d
    d2 += d
    s2 = scale * scale
    counts = np.bincount(group[starts] // m, np.maximum(np.add.reduceat(d2 > s2, starts), 1), trials).astype(int)
    # Why a certified count is _components': with u = 2**-53 and mu = _CIRCLE_MARGIN,
    # 1. the residual dx**2 + dy**2 - r**2 carries an error of at most 6 u r**2, so a point that passes
    #    the check below lies within mu s / 32 + 6 u r <= mu s / 16 of its circle, as s >= 2**-12 r;
    # 2. the pairs of a run pass the edge rule itself, so each run is connected;
    # 3. d2 and s2 carry relative errors of at most 4u and u, so a failed pair, d2 > (1 + mu) s2, lies
    #    more than (1 + 0.45 mu) s apart, and its projections on the circle more than (1 + 0.32 mu) s,
    #    an angle D with 2 r sin(D / 2) > (1 + 0.32 mu) s;
    # 4. arctan2 of dx and dy, each off by a relative u, is within eps = 2**-48 rad (8 ulps of pi) of the
    #    true angle.  For two points of different runs, both arcs between their keys hold a failed pair's,
    #    so both arcs between their angles exceed D - 4 eps.  As sin is 1-Lipschitz and 4 eps r <= mu s / 16,
    #    their projections lie more than (1 + 0.26 mu) s apart, they lie more than (1 + 0.13 mu) s apart,
    #    and their d2 exceeds s2;
    # 5. points of two circles lie at least G - 2r - mu s / 8 >= (1 + 0.8 mu) s apart, so their d2 exceeds s2;
    # 6. none of this reads how equal keys are ordered (by 3 and 4 a failed pair's keys differ), so a
    #    certified count is _components' for every order the two sorts may give ties.
    unsure = np.zeros(trials, dtype=bool)
    unsure[group[np.abs(d2 - s2) <= _CIRCLE_MARGIN * s2] // m] = True
    off = np.abs(dx * dx + dy * dy - r * r) > _CIRCLE_MARGIN * scale * r / 32.0
    if dims > 2:
        off |= (flat[:, 2:] != 0.0).any(axis=1)
    return counts, unsure | off.reshape(trials, n).any(axis=1)


def _estimator_counts(pack: SpherePack, points: np.ndarray, scale: float) -> np.ndarray:
    """beta_0 of each trial's sample in points, (trials, n, D), after homology_estimator's checks: for
    each trial, the one entry of homology_estimator(pack, its sample, scale, point_budget=0).  Trials
    on a pack of circles are counted from their cyclic spacings (see _circle_counts)."""
    _check_estimate(pack, scale, points.shape[1])
    _check_finite(points)
    if pack.intrinsic_dim == 1:
        return _circle_counts(pack, points, scale)
    return _components(points, scale)
