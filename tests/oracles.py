"""Slow, independently-derived reference computations used to pin test values.

Everything here favors exact arithmetic (Fraction, int) and brute force over
cleverness, so the main package can be checked against code that shares no
logic with it.
"""

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from homrisk.geometry import sample


def compositions(n, m):
    """Yield all tuples (c_1..c_m) of nonnegative ints summing to n."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def empty_count_law(m, n):
    """Exact distribution of the number of empty bins after n uniform throws.

    Returns a list p[0..m] of Fractions. Built by summing multinomial
    weights over occupancy compositions, which is independent of the
    inclusion-exclusion route used by the package.
    """
    weights = [0] * (m + 1)
    fact = [math.factorial(i) for i in range(n + 1)]
    for comp in compositions(n, m):
        w = fact[n]
        for c in comp:
            w //= fact[c]
        empties = sum(1 for c in comp if c == 0)
        weights[empties] += w
    total = m ** n
    assert sum(weights) == total, (m, n)
    return [Fraction(w, total) for w in weights]


def empty_count_law_literal(m, n):
    """Same law by enumerating all m**n assignment sequences. Tiny inputs only."""
    counts = [0] * (m + 1)
    for seq in itertools.product(range(m), repeat=n):
        empties = m - len(set(seq))
        counts[empties] += 1
    total = m ** n
    assert sum(counts) == total
    return [Fraction(c, total) for c in counts]


def empty_count_numerators(m, n):
    """Assignments of n draws into m bins leaving exactly k empty, index k = 0..m.

    Integer throw recurrence on the occupied count j: a draw either lands
    in one of the j occupied bins or opens one of the m - j + 1 others,
    s[j] <- j*s[j] + (m-j+1)*s[j-1].  Every term is a nonnegative
    integer, so it shares nothing with the alternating inclusion-exclusion
    sum of the package.
    """
    s = [1] + [0] * m
    for _ in range(n):
        s = [0] + [j * s[j] + (m - j + 1) * s[j - 1] for j in range(1, m + 1)]
    assert sum(s) == m ** n, (m, n)
    return s[::-1]


def full_throw_recurrence(m):
    """law(n) for n that never falls: the float throw recurrence on all m + 1 occupied levels.

    Each entry takes the same float operations as in the package's banded
    stepper, a product by the stay probability plus a product by the entry
    probability, but every level is stepped, subnormal entries included;
    the result is indexed by empty count.
    """
    j = np.arange(m + 1, dtype=float)
    stay = j / m
    enter = (m - j + 1.0) / m
    state = np.zeros(m + 1)
    state[0] = 1.0
    stepped = 0

    def law(n):
        nonlocal state, stepped
        while stepped < n:
            nxt = state * stay
            nxt[1:] += state[:-1] * enter[1:]
            state, stepped = nxt, stepped + 1
        return state[::-1]

    return law


def log_series_law(m, n):
    """P(K = k), k = 0..m, from the whole inclusion-exclusion series in log magnitudes.

    Term j of entry k is C(m,k) C(m-k,j) ((m-k-j)/m)**n with sign (-1)**j;
    every one of the m - k + 1 terms of every entry is scaled by the peak
    and summed with math.fsum, with no window over k and no cut in j.
    fsum is exact before its one rounding, so leaving out the terms that
    scale to exactly 0.0 changes nothing but the time.  The float
    operations on each kept term are those of the occupancy log route,
    which the route must match byte for byte wherever it applies.
    """
    lf = np.asarray([math.lgamma(i + 1.0) for i in range(m + 1)], dtype=float)
    with np.errstate(divide="ignore"):
        log_pow = n * (np.log(np.arange(m + 1.0)) - math.log(m))
    probs = np.zeros(m + 1)
    for k in range(m + 1):
        w = m - k
        log_mag = lf[m] - lf[k] - lf[: w + 1] - lf[w::-1] + log_pow[w::-1]
        peak = float(np.max(log_mag))
        if peak == -math.inf:
            continue
        scaled = np.exp(log_mag - peak)
        scaled[1::2] *= -1.0
        s = math.fsum(scaled[scaled != 0.0].tolist())
        if s > 0.0:
            probs[k] = math.exp(min(peak + math.log(s), 0.0))
    return probs


def all_occupied_prob(m, n):
    return empty_count_law(m, n)[0]


def deletion_ratio(m, n, k):
    """Exact rational value of the deletion-mixture likelihood ratio at k empties."""
    return Fraction(k, m) * Fraction(m, m - 1) ** n


def ratio_test_risk(m, n):
    """Exact (type_I, type_II) for the reject-iff-ratio>1 rule, all rational.

    Null side: K empties out of m bins. Mixture side: one bin is removed
    before throwing, so K = 1 + (empties among the remaining m-1 bins).
    """
    null_law = empty_count_law(m, n)
    type_one = sum(
        (p for k, p in enumerate(null_law) if deletion_ratio(m, n, k) > 1),
        Fraction(0),
    )
    alt_law = empty_count_law(m - 1, n)
    type_two = sum(
        (p for kp, p in enumerate(alt_law) if deletion_ratio(m, n, kp + 1) <= 1),
        Fraction(0),
    )
    return type_one, type_two


def first_passing_size(risk, epsilon, sizes):
    """First n in sizes with risk(n) <= epsilon, or None: one full risk call per candidate.

    The per-candidate scan that sample_complexity ran before it stepped
    the occupancy laws; the caller passes the risk, for instance the total
    of exact_lrt_risk(m, n), so this module stays free of package code.
    """
    for n in sizes:
        if risk(n) <= epsilon:
            return n
    return None


def gf2_rank(rows):
    """Rank over GF(2) by full Gaussian elimination on a list of 0/1 rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(mat):
            break
    return rank


def boundary_matrix(faces, simplices):
    """0/1 boundary matrix rows=faces, cols=simplices, face deleting one vertex."""
    index = {f: i for i, f in enumerate(faces)}
    mat = [[0] * len(simplices) for _ in faces]
    for j, simplex in enumerate(simplices):
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1:]
            mat[index[face]][j] = 1
    return mat


def betti_numbers(levels):
    """Betti numbers over GF(2) of a complex given as its levels of sorted vertex tuples.

    Dense boundary matrices over every simplex, ranked by full Gaussian
    elimination, with no collapse: beta_q = c_q - rank_q - rank_{q+1}.
    """
    ranks = [0, *(gf2_rank(boundary_matrix(faces, simplices)) for faces, simplices in zip(levels, levels[1:])), 0]
    return tuple(len(level) - ranks[q] - ranks[q + 1] for q, level in enumerate(levels))


def collapse_edges_unpruned(n, edges):
    """The edges homology._collapse_edges keeps, by its loop before the domination search was pruned.

    Each edge uv, in the given order, is removed when some vertex w other
    than u and v has N[u] & N[v] inside N[w], testing every such w from the
    highest down, against the neighbourhoods left by every removal before
    it; passes repeat until one removes nothing.
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


def rips_cliques(points, scale, max_dim):
    """Every (q+1)-subset, q = 0..max_dim, whose pairs all lie within the scale.

    Squared distances by an explicit coordinate sum, compared with
    scale**2; subsets from itertools.combinations, so each level comes in
    lexicographic order.
    """
    pts = [[float(x) for x in p] for p in points]
    s2 = scale * scale
    near = {
        (i, j)
        for i, j in itertools.combinations(range(len(pts)), 2)
        if sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])) <= s2
    }
    return tuple(
        tuple(
            c
            for c in itertools.combinations(range(len(pts)), q + 1)
            if all(pair in near for pair in itertools.combinations(c, 2))
        )
        for q in range(max_dim + 1)
    )


def scale_edges_blocked(pts, scale, block_floats=1 << 21):
    """Pairs i < j with |pts[i] - pts[j]| <= scale as a (2, E) array, sorted by (i, j).

    An all-pairs pass in the shape homology._scale_edges had before it
    became a sweep: each row block meets only the rows from its own start
    on, the upper triangle, with the squared distances summed axis by axis.
    """
    rows = max(1, block_floats // max(1, pts.shape[0] * pts.shape[1]))
    pairs = [np.empty((2, 0), dtype=int)]
    for start in range(0, pts.shape[0], rows):
        diffs = pts[start : start + rows, None, :] - pts[None, start:, :]
        d2 = np.zeros(diffs.shape[:2])
        for k in range(diffs.shape[2]):
            d2 += diffs[:, :, k] ** 2
        pairs.append(np.stack(np.nonzero(np.triu(d2 <= scale * scale, 1))) + start)
    return np.concatenate(pairs, axis=1)


def component_count(points, scale):
    """Components of the graph linking points at distance <= scale.

    Squared distances by an explicit coordinate sum, compared with
    scale**2, then breadth-first search from each unvisited point.
    """
    pts = [[float(x) for x in p] for p in points]
    s2 = scale * scale
    seen = [False] * len(pts)
    count = 0
    for origin in range(len(pts)):
        if seen[origin]:
            continue
        count += 1
        seen[origin] = True
        queue = deque([origin])
        while queue:
            u = queue.popleft()
            for v in range(len(pts)):
                if not seen[v] and sum((a - b) ** 2 for a, b in zip(pts[u], pts[v])) <= s2:
                    seen[v] = True
                    queue.append(v)
    return count


def nearest_centers(points, centers):
    """Nearest center (0-based) and its squared distance, per point, by brute force.

    Squared distances by an explicit coordinate sum to every center; a later
    center wins only when strictly closer, so ties take the lowest index.
    """
    out = []
    for p in points:
        best, best_d2 = None, math.inf
        for j, c in enumerate(centers):
            d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(p, c))
            if d2 < best_d2:
                best, best_d2 = j, d2
        out.append((best, best_d2))
    return out


def count_side_rejections(pack, hypothesis, seeds, n, k_reject):
    """Trials whose empty-sphere count exceeds k_reject, one full point sample per seed.

    Each trial synthesises its n points with geometry.sample, assigns each
    to its brute-force nearest center and counts the spheres left with no
    point, so it shares no draw or tally code with the batched count path.
    """
    rejections = 0
    for seed in seeds:
        points = sample(pack, hypothesis, n, seed).points
        hit = {best for best, _ in nearest_centers(points, pack.centers)}
        rejections += pack.count - len(hit) > k_reject
    return rejections


def min_center_distance(centers):
    """Smallest distance over all pairs of centers; inf below two centers."""
    d2 = math.inf
    for i, j in itertools.combinations(range(len(centers)), 2):
        d2 = min(d2, sum((float(a) - float(b)) ** 2 for a, b in zip(centers[i], centers[j])))
    return math.sqrt(d2)


def circle_component_law(k, a):
    """Exact law of the component count of k uniform points on one circle.

    Two points link when the arc between them is at most the fraction a
    of the circle, 0 < a < 1.  The components are the J spacings longer
    than a, or a single one when there is none; J has the Stevens (1939) /
    Fisher (1940) law
        P(J = j) = sum_i (-1)^(i-j) C(i,j) C(k,i) (1 - i a)_+^(k-1).
    Returns a list p[0..] of Fractions indexed by component count; k = 0
    gives the point mass at 0.
    """
    a = Fraction(a)
    assert 0 < a < 1, a
    if k == 0:
        return [Fraction(1)]
    top = min(k, max(i for i in range(k + 1) if i * a < 1))
    powers = [(1 - i * a) ** (k - 1) for i in range(top + 1)]
    law = [Fraction(0)] * (top + 1)
    for j in range(top + 1):
        p_j = sum(
            (-1) ** (i - j) * math.comb(i, j) * math.comb(k, i) * powers[i]
            for i in range(j, top + 1)
        )
        law[max(1, j)] += p_j
    assert sum(law) == 1, (k, a)
    return law


def plugin_test_risk(m, n, a):
    """(type_I, type_II) of the plug-in homology test on m circles, as floats.

    n uniform points fall on the m circles (null) or on m-1 of them
    (deletion mixture; which circle is gone does not matter), points link
    at arc fraction a, and the test rejects when it sees fewer than m
    components.  Per-circle laws are exact rationals, rounded once.  The
    circles are combined over the multinomial split one at a time: with
    t circles and r points, the first holds k ~ Binomial(r, 1/t) and the
    other t-1 share the rest.  Those sums have positive terms only, so
    float evaluation loses nothing to cancellation.  Component totals are
    capped at m, which is all the decision reads.
    """
    laws = []
    for k in range(n + 1):
        capped = [Fraction(0)] * (m + 1)
        for c, p in enumerate(circle_component_law(k, a)):
            capped[min(c, m)] += p
        laws.append([(c, float(p)) for c, p in enumerate(capped) if p > 0])
    by_circles = {1: laws}
    for t in range(2, m + 1):
        prev = by_circles[t - 1]
        table = {}
        for r in range(n + 1) if t < m else (n,):
            out = [0.0] * (m + 1)
            den = t**r
            for k in range(r + 1):
                w = math.comb(r, k) * (t - 1) ** (r - k) / den
                for c1, p1 in laws[k]:
                    wp = w * p1
                    for c2, p2 in prev[r - k]:
                        out[min(c1 + c2, m)] += wp * p2
            table[r] = [(c, p) for c, p in enumerate(out) if p > 0.0]
        by_circles[t] = table
    null = dict(by_circles[m][n])
    alt = dict(by_circles[m - 1][n])
    type_one = math.fsum(p for c, p in null.items() if c < m)
    type_two = alt.get(m, 0.0)
    return type_one, type_two
