"""Occupancy laws for uniform draws into equal bins, exact and limiting.

The inclusion-exclusion sums behind these laws alternate, and their
terms can dwarf the result, so evaluation picks one of three routes.
Small problems run in exact integers, and every probability is the
correctly rounded ratio C(m, k) onto(m - k) / m**n, where onto(w), the
draws that hit each of w given bins, is the alternating sum of
C(w, j)(w - j)**n over j.  From the collection threshold n >= m log m up,
the series terms fall off like a Poisson tail of rate at most one, so
each entry is summed only until two partial sums bracket one float
(_onto_rounded), and only the powers i**n its terms read are formed: at
(256, 1500) the law sums 1339 terms over 125 powers for the 119 entries
its bound keeps above float underflow, and P(K = 0) 17 terms.  P(K = 0)
takes that one sum at every size, at most m terms.  Below the threshold
a full law builds the forward-difference table of the m + 1 powers
instead, whose heads are the surjection counts: about m**2/2 big-integer
subtractions, 32 896 at m = 256.  On the same threshold a log-magnitude
route with compensated summation loses at most a digit to cancellation; against
a 60-digit reference its P(K = 0) is still off by 3.8e-12 at
(m, n) = (1000, 6908) and 5.7e-11 at (10000, 92104), most likely from
lgamma log-factorials of magnitude about m log m.  Its leading term
bounds each entry, so it sums only the entries that bound keeps above
float underflow, 156 of 4096 at (4096, 36909), and each entry's series
only up to term _SERIES_TERMS = 181, past which every term scales to
exactly 0.0.  Its cost is an O(m) set-up, one lgamma log-factorial and one
log a bin, plus at most _SERIES_TERMS + 1 = 182 series terms per entry
summed: every entry the bound keeps for the law, one for P(K = 0); it
refuses more than _LOG_BINS bins.  Everything else (n
below m log m at large m, where cancellation exceeds float precision)
runs a one-throw-at-a-time recurrence on the empty-bin count, which has
only positive coefficients and so cannot cancel at all; it refuses
problems above _RECURRENCE_WORK bin updates instead of running for minutes.
It steps only the band of counts whose probability is a normal float:
P(K = m - j) = C(m, j) j! S(n, j) / m**n is log-concave in j, since the
Stirling numbers of the second kind S(n, j) are (Harper 1967), so the
entries below the smallest normal float lie only at the band's two ends.
Flushing them to 0 spares each step the subnormal arithmetic (slow on
x86) that was most of its cost: at (2000, 10000) the full state holds
1000 non-zero entries, 719 of them subnormal, and the band 281.  That
recurrence has one home, _recurrence(m, pair): its law(n) makes the work
check, steps forward to n and returns the law by empty count.  A pair
carries the m- and (m-1)-bin laws that the ratio test's two tails read in
one interleaved array, so one step's three ufunc calls and bookkeeping,
most of a step's cost, serve both, where two laws stepped apart take six
calls a throw.  The router asks a one-row stepper for one n;
exact_lrt_risk asks one pair for both laws when the router would send
both to this route; the sample-complexity scan beside it and sweep_n
keep one stepper across their increasing sizes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .geometry import SampleSet, SpherePack, assign_points

# Exact-integer route bounds, on integers of about n*log2(m) bits.  A law past the collection
# threshold and P(K = 0) sum about a dozen terms an entry; at the corner (512, 3900) the law sums
# 1286 terms over 126 powers, and P(K = 0) 13.  The most work left under the bounds is an untame
# law just below the threshold, which builds the difference table: at (512, 3190) its 513 powers
# of up to 28 700 bits and 131 328 subtractions.
_EXACT_BINS = 512
_EXACT_WORK = 2_000_000

# Most m*n bin updates the throw recurrence runs for one law; a pair checks its m-bin law's m*n and
# steps both laws.  A step is three ufunc calls on the band's window, for one law or a pair, so a
# law at the limit steps n = 2**30 / m throws: 8192 at m = 131072, 2**20 at m = 1024.
_RECURRENCE_WORK = 1 << 30

# Most bins the log route serves.  Its cost is the O(m) set-up, m + 1 lgamma calls in
# _log_factorials and m + 1 logs, plus at most _SERIES_TERMS + 1 terms per entry summed:
# at m = 2**21 and n = m ln m + m, 2**21 + 1 of each and 149 entries for the full law.
_LOG_BINS = 1 << 21

# Log magnitudes below this give math.exp(...) == 0.0 (underflow starts
# near -745.13), with room for rounding in the log terms.
_LOG_UNDERFLOW = -760.0

# Last series term the log route sums per entry, 182 terms in all: term j is at
# most the peak / j!, so from this first j with log j! above -_LOG_UNDERFLOW on,
# every term scales to exactly 0.0 (_empty_exactly_log).
_SERIES_TERMS = next(j for j in range(1000) if math.lgamma(j + 1.0) > -_LOG_UNDERFLOW)

# Smallest normal float (np.finfo(float).tiny); the throw recurrence flushes band ends below it.
_TINY = sys.float_info.min

# Counts of zeros the throw recurrence's window keeps below its bands, and lets pile up above them,
# before it is sliced again: an extra entry adds one element to each of a step's three ufunc calls,
# while a new slice builds five views, the cost of about a thousand such elements.
_WINDOW_SLACK = 32


def _series_is_tame(m: int, n: int) -> bool:
    """True when cancellation in the log route stays within one digit.

    Past the first few indices the series terms decay like a Poisson
    tail of rate lam = m(1-1/m)^n, and cancellation inflates the summed
    rounding error by about e^(2 lam); lam <= 1 keeps that inflation
    within one decimal digit.  Every other empty count has a smaller
    rate, so checking the leading one covers the full law.  The error
    left grows with m instead (module docstring: 5.7e-11 at m = 10000).
    One bin is filled by any draw, so its rate is 0.
    """
    return m == 1 or math.log(m) + n * math.log1p(-1.0 / m) <= 0.0


@dataclass(frozen=True)
class OccupancySummary:
    """Per-bin hit counts of one sample, with the empty-bin total."""

    m: int
    n: int
    counts: np.ndarray  # length m, read-only
    empty_count: int


@dataclass(frozen=True)
class OccupancyDistribution:
    """Law of the number of empty bins K for n uniform draws into m bins."""

    m: int
    n: int
    probs: np.ndarray  # index k = 0..m, read-only

    def __post_init__(self) -> None:
        total = float(math.fsum(self.probs.tolist()))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"occupancy law for m={self.m}, n={self.n} lost precision "
                f"(total mass {total!r}); this parameter corner cancels beyond float range"
            )
        self.probs.flags.writeable = False

    def prob(self, k: int) -> float:
        if not 0 <= k <= self.m:
            raise ValueError(f"empty count {k} outside 0..{self.m}")
        return float(self.probs[k])


@dataclass(frozen=True)
class CouponQuery:
    """A (bins, failure level) pair with its derived offset c = log(delta)."""

    m: int
    delta: float
    c: float = field(init=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one bin")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        object.__setattr__(self, "c", math.log(self.delta))

    @property
    def sample_size(self) -> int:
        return threshold_sample_size(self.m, self.delta)

    @property
    def limit_miss_probability(self) -> float:
        return coupon_limit(self.c)


def summarize(pack: SpherePack, samples: SampleSet) -> OccupancySummary:
    """Hit counts per sphere for one sample set."""
    if samples.n:
        assigned = assign_points(pack, samples.points) - 1
        counts = np.bincount(assigned, minlength=pack.count)
    else:
        counts = np.zeros(pack.count, dtype=int)
    counts.flags.writeable = False
    return OccupancySummary(
        m=pack.count,
        n=samples.n,
        counts=counts,
        empty_count=int(np.count_nonzero(counts == 0)),
    )


def _log_factorials(m: int) -> np.ndarray:
    return np.fromiter(map(math.lgamma, range(1, m + 2)), float, m + 1)


def _empty_exactly_log(lf: np.ndarray, log_pow: np.ndarray, m: int, k: int) -> float:
    """Log-magnitude route for P(K = k); peak-scaled compensated signed sum.

    Term j is C(m,k) C(m-k,j) ((m-k-j)/m)**n with sign (-1)**j; lf holds
    log i! and log_pow holds n log(i/m) for i = 0..m.  Only the terms
    j <= _SERIES_TERMS are summed, and the rest would scale to exactly 0.0.
    With w = m - k, the ratio of term j + 1 to term j is
    r_j = (w-j)/(j+1) * (1 - 1/(w-j))**n, and x(1 - 1/x)**n increases in x,
    so r_j <= m(1 - 1/m)**n / (j+1) = lam/(j+1) <= 1/(j+1) on this route
    (_series_is_tame).  Term 0 is then the peak and term j is at most
    term 0 / j!, so every dropped term lies below e**-760 of the peak, and
    np.exp of its scaled log is exactly 0.0 whether it is summed or not.
    """
    w = m - k
    j = min(w, _SERIES_TERMS)
    log_mag = lf[m] - lf[k] - lf[: j + 1] - lf[w - j : w + 1][::-1] + log_pow[w - j : w + 1][::-1]
    peak = float(np.max(log_mag))
    if peak == -math.inf:
        return 0.0
    scaled = np.exp(log_mag - peak)
    scaled[1::2] *= -1.0
    s = math.fsum(scaled.tolist())
    if s <= 0.0:
        return 0.0
    return math.exp(min(peak + math.log(s), 0.0))


def _onto_rounded(w: int, n: int, comb: int, denom: int, powers: list) -> float:
    """comb * onto(w) / denom, correctly rounded, onto(w) = sum_j (-1)**j C(w,j)(w-j)**n for n >= 1.

    onto(w) counts the draws that hit each of w given bins (Feller vol. 1,
    IV.2).  Term j + 1 is at most lam/(j+1) times term j, lam = w(1-1/w)**n
    (_empty_exactly_log), so from the first j with j + 1 >= lam the terms
    do not grow, and the alternating tail from term j on lies between 0
    and term j: the count lies between the partial sums before and after
    term j.  Rounding is monotone and int / int rounds correctly, so once
    both ends of that bracket give one float, that float is the entry (Ziv
    1991).  The test cuts the ends and denominator to their top 128 bits
    or more, rounding the bracket outward, so it costs two small
    divisions, and it runs only once a term falls below about 2**-52 of
    the sum.  Otherwise the loop runs to the last term and the sum is
    exact.  powers caches i**n, formed only when a term reads it.
    """
    lam = w * (1.0 - 1.0 / w) ** n * (1.0 + 1e-6)  # above the true rate despite the float's rounding
    total, c = 0, 1
    for j in range(w):  # term w is 0**n = 0
        i = w - j
        if powers[i] is None:  # (2**s * odd)**n is odd**n shifted by s*n bits
            s = (i & -i).bit_length() - 1
            powers[i] = (i >> s) ** n << s * n
        term = c * powers[i]
        c = c * i // (j + 1)
        previous, total = total, total - term if j & 1 else total + term
        # a term above about 2**-52 of the sum moves a normal float, so only a smaller one is tested
        if j + 1 >= lam and term.bit_length() + 52 <= previous.bit_length():
            lo, hi = sorted((previous, total))  # both > 0: they bracket a count > 0, and differ by less
            r = max(min(lo.bit_length(), denom.bit_length()) - 128, 0)
            low = comb * (lo >> r) / ((denom >> r) + (r > 0))
            if low == comb * ((hi >> r) + (r > 0)) / (denom >> r):
                return low
    return comb * total / denom


def _recurrence(m: int, pair: bool = False) -> Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """law(n): P(K = k), index k = 0..m, after n throws into m bins, for n that never falls.

    One forward Markov step per throw on the empty-bin count k: a ball lands
    in one of the m - k occupied bins with probability (m-k)/m, or fills one
    of k + 1 empty bins and lowers the count from k + 1 to k.  Every
    coefficient is positive, so this route is immune to the cancellation
    that limits the series routes.  Each call refuses m*n above
    _RECURRENCE_WORK, then steps only as far as its n, so a law never asked
    for past some n is never stepped past it; the arrays are built by the
    first call that passes, so a refusal allocates nothing.

    With pair, the same stepper also carries the (m-1)-bin law, which is
    the empty count less one under a deletion, and law(n, deleted=True)
    returns (m-bin law, (m-1)-bin law).  The two rows share one array,
    entry k of the (m-r)-bin law at 2k + r, so a throw is still three
    ufunc calls on one window for both laws, and each row's entries take
    exactly the float operations they take alone.  A call without deleted
    drops the (m-1)-bin row for good, and the stepper goes on as a
    one-row one: a scan asks for that row only while floor(t) > 0, and t
    only falls as n grows.

    Each row is 0 outside its band of counts lo..hi-1, and the window each
    throw steps covers every band, with count lo - 1 below each band while
    lo > 0.  The entries the window holds beyond a band are 0 and stay 0
    (a 0 above a band adds exactly 0.0 to its top entry), so an entry rounds
    as in a full step.  The window is re-sliced only when a band grows
    below it or the highest band top falls more than _WINDOW_SLACK counts
    below the window's.
    While lo > 0 a band gains count lo - 1 on each step.  After each step
    every entry at either end below _TINY, the smallest normal float, is
    flushed to 0 and that end moves inward, by a walk from each end that
    stops at its first normal entry, so a flush costs the entries it
    removes rather than a scan of the band (at (2000, 10000) it runs on
    2454 of the 10000 steps and removes one or two); once lo = 0 only the
    top end is checked, as P(K = 0) only rises with n.  The band ends are
    read through a memoryview, as Python floats.  A step is a Markov
    kernel, so it never enlarges an L1 error, and each flush removes less
    than _TINY: a count leaves from the top once and from the bottom at
    most once a step, so in exact arithmetic every law lies within
    (2m + n) * _TINY of the full-state one in L1.  In floats a flush can
    also flip the last bit of a neighbour, and the flip travels on: at
    (2000, 5833) an entry of 7.1e-288 moves by one ulp, 1.5e-303, and the
    L1 distance passes that bound.  No entry of 1e-280 or more has moved at
    any size checked (every n up to m ln m + 3m for m up to 2000, n up to
    20000 at m = 5000).  Each call returns copies, so callers may keep them.
    """
    rows = 2 if pair else 1
    ends = [[rows * (m - r) + r] * 2 for r in range(rows)]  # index of each band's lowest and highest entry
    stepped = start = stop = 0
    state = stay = fill = values = parts = None  # built by the first call that passes the work check

    def views() -> tuple[int, int, tuple[np.ndarray, ...]]:
        # the window the next step writes: each band, count lo - 1 below it while lo > 0, slack below
        low = min(bottom - rows if bottom >= rows else bottom for bottom, _ in ends)
        start, stop = max(low - rows * _WINDOW_SLACK, 0), max(top for _, top in ends) + 1
        window = state[start:stop]
        return start, stop, (window, window[rows:], window[:-rows], stay[start:stop], fill[start : stop - rows])

    def law(n: int, deleted: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        nonlocal state, stay, fill, rows, ends, stepped, start, stop, parts, values
        if m * n > _RECURRENCE_WORK:
            raise ValueError(
                f"throw recurrence for m={m}, n={n} needs {m * n} bin updates, above the limit of {_RECURRENCE_WORK}"
            )
        if deleted and rows == 1:
            raise ValueError(f"the throw recurrence for m={m} carries no (m-1)-bin law")
        if rows == 2 and not deleted:  # drop the (m-1)-bin row: row 0 alone, one entry a count
            rows, ends = 1, [[index // 2 for index in ends[0]]]
            if state is not None:
                state, stay, fill = state[::2].copy(), stay[::2].copy(), fill[::2].copy()
                values = memoryview(state)
                start, stop, parts = views()
        if state is None:
            # entry k of the (m - r)-bin row at rows * k + r; a row starts with all its bins empty
            state, stay, fill = np.zeros(rows * m + 1), np.empty(rows * m + 1), np.empty(rows * m + 1)
            for r in range(rows):
                k = np.arange(m - r + 1, dtype=float)
                stay[r::rows] = (m - r - k) / (m - r)
                fill[r::rows] = (k + 1.0) / (m - r)  # from count k + 1 down to k
                state[rows * (m - r) + r] = 1.0
            values = memoryview(state)
            start, stop, parts = views()
        while stepped < n:
            window, upper, lower, stay_w, fill_w = parts
            filled = upper * fill_w
            window *= stay_w
            lower += filled
            stepped += 1
            reslice = shrunk = False
            for end in ends:
                bottom, top = end
                if bottom >= rows:  # lo > 0: the step wrote count lo - 1; walk up to its first normal entry
                    bottom -= rows
                    while values[bottom] < _TINY:
                        values[bottom] = 0.0
                        bottom += rows
                    end[0] = bottom
                    reslice = reslice or rows <= bottom < start + rows
                while values[top] < _TINY:
                    values[top] = 0.0
                    top -= rows
                    shrunk = True
                end[1] = top
            if reslice or shrunk and max(top for _, top in ends) + rows * _WINDOW_SLACK < stop:
                start, stop, parts = views()
        if rows == 2:
            return state[::2].copy(), state[1::2].copy()
        return state.copy()

    return law


def _route(m: int, n: int) -> str:
    """The route _empty_probs takes at (m, n), n >= 1: "exact", "log" or "recurrence"."""
    if m <= _EXACT_BINS and m * n <= _EXACT_WORK:
        return "exact"
    return "log" if _series_is_tame(m, n) else "recurrence"


def _empty_probs(m: int, n: int, k_stop: int) -> np.ndarray:
    """P(K = k) for k = 0..m, evaluated below k_stop and left zero above.

    The one place that checks (m, n) and picks a route.  On the exact
    route P(K = k) is C(m,k) over m**n times the surjection count onto
    w = m-k bins (Feller vol. 1, IV.2).  P(K = 0) alone (k_stop = 1), and
    every entry of a law past the collection threshold, is summed only
    until its float is certain (_onto_rounded), and an entry whose bound
    C(m,k)(w/m)**n lies below 2**-1090 is left 0.0 without a term.  A law
    below the threshold reads every count off the forward-difference table
    of [i**n for i = 0..m], the count onto w the head after w passes, and
    its numerators must sum to m**n.
    """
    if m < 1:
        raise ValueError("need at least one bin")
    if n < 0:
        raise ValueError("draw count must be >= 0")
    probs = np.zeros(m + 1)
    if n == 0:
        probs[m] = 1.0
        return probs
    ks = range(max(0, m - n), min(k_stop, m))
    if not ks:
        return probs
    route = _route(m, n)
    if route == "exact" and (k_stop == 1 or _series_is_tame(m, n)):
        denom, powers = m**n, [None] * (m + 1)
        for k in ks:
            comb = math.comb(m, k)
            # C(m,k)(w/m)**n bounds the entry: far below 2**-1075 it rounds to 0.0
            if comb.bit_length() + n * (math.log2(m - k) - math.log2(m)) >= -1090:
                probs[k] = _onto_rounded(m - k, n, comb, denom, powers)
    elif route == "exact":
        row = [0, 1]  # m >= 1 and n >= 1 here
        for i in range(2, m + 1):  # (2j)**n is j**n shifted by n bits: half the powers cost a shift
            row.append(i**n if i & 1 else row[i >> 1] << n)
        onto = [row[0]]  # onto[w]: draws that hit each of w given bins
        for _ in range(m):
            row = [b - a for a, b in zip(row, row[1:])]
            onto.append(row[0])
        denom = m**n
        total = 0
        for k in ks:
            numer = math.comb(m, k) * onto[m - k]
            total += numer
            probs[k] = numer / denom
        assert total == denom
    elif route == "log":
        if m > _LOG_BINS:
            raise ValueError(f"log route for m={m}, n={n} is above the limit of {_LOG_BINS} bins")
        lf = _log_factorials(m)
        with np.errstate(divide="ignore"):
            log_pow = n * (np.log(np.arange(m + 1.0)) - math.log(m))
        # Term ratios are at most lam <= 1 here, so the j = 0 term is the
        # peak and the scaled sum is at most w + 1: below -760 the entry's
        # math.exp gives exactly 0.0, so only k above that bound are summed.
        kv = np.arange(ks.start, ks.stop)
        w = m - kv
        bound = lf[m] - lf[kv] - lf[w] + log_pow[w] + np.log(w + 1.0)
        for k in kv[bound >= _LOG_UNDERFLOW].tolist():
            probs[k] = _empty_exactly_log(lf, log_pow, m, k)
    else:
        probs[:k_stop] = _recurrence(m)(n)[:k_stop]
    return probs


def prob_all_occupied(m: int, n: int) -> float:
    """Probability that n uniform draws into m bins leave none empty.

    The value of P(K = 0); structurally zero whenever n < m.  Routed
    like the full law: exact integers, log series, or the throw
    recurrence, by size and conditioning.
    """
    return float(_empty_probs(m, n, 1)[0])


def _all_occupied_probs(m: int, sizes: Iterable[int]) -> Iterator[float]:
    """prob_all_occupied(m, n) for each n of the increasing sizes, one throw-recurrence stepper for them all.

    Every n the router sends to the recurrence (n >= m, as P(K = 0) is 0
    below m) is read off one stepper that never steps back, with the same
    bits as a fresh one; every other n calls prob_all_occupied.  The
    stepper allocates nothing until its first call.
    """
    law = _recurrence(m)
    for n in sizes:
        if n >= m >= 1 and _route(m, n) == "recurrence":
            yield float(law(n)[0])
        else:
            yield prob_all_occupied(m, n)


def empty_count_distribution(m: int, n: int) -> OccupancyDistribution:
    """Full law of the empty-bin count K after n uniform draws into m bins.

    Support is k in [max(0, m-n), m-1] for n >= 1 (at most n bins can be
    hit, and at least one is) plus the point mass at m for n = 0.  Below the
    collection threshold the exact route's numerators must sum to m**n;
    past it each exact entry is certified alone, and the float routes rely
    on the constructor's mass check.
    """
    return OccupancyDistribution(m=m, n=n, probs=_empty_probs(m, n, m))


def coupon_limit(c: float) -> float:
    """Limiting miss probability 1 - exp(-exp(c)) for n = m log m - cm draws."""
    if math.isnan(c):
        raise ValueError("offset c must be a number, got nan")
    try:
        return -math.expm1(-math.exp(c))
    except OverflowError:
        return 1.0


def threshold_sample_size(m: int, delta: float) -> int:
    """Draw count ceil(m log m + m log(1/delta)) aimed at miss level delta."""
    if m < 1:
        raise ValueError("need at least one bin")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return max(0, math.ceil(m * math.log(m) + m * math.log(1.0 / delta)))
