"""Occupancy laws for uniform draws into equal bins, exact and limiting.

The inclusion-exclusion sums behind these laws alternate, and their
terms can dwarf the result, so evaluation picks one of three routes.
Small problems run in exact integers without alternating sums: the
surjection counts are the heads of one forward-difference table over
the m + 1 powers i**n, built with about m**2/2 big-integer subtractions,
and every probability is one correctly rounded division by m**n.  From the
collection threshold n >= m log m up, the series terms fall off like a
Poisson tail of rate at most one, so a log-magnitude route with
compensated summation loses at most a digit to cancellation; against
a 60-digit reference its P(K = 0) is still off by 3.8e-12 at
(m, n) = (1000, 6908) and 5.7e-11 at (10000, 92104), most likely from
lgamma log-factorials of magnitude about m log m.  Its leading term
bounds each entry, so it sums only the entries that bound keeps above
float underflow: 156 of 4096 at (4096, 36909).  Everything else (n
below m log m at large m, where cancellation exceeds float precision)
runs a one-throw-at-a-time recurrence on the occupied-bin count, which
has only positive coefficients and so cannot cancel at all; it refuses
problems above _RECURRENCE_WORK bin updates instead of running for hours.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SampleSet, SpherePack, assign_points

# Exact-integer route bounds.  A law costs m + 1 powers of about
# n*log2(m) bits plus the difference table's m**2/2 subtractions of such
# integers; the corner m = 512, n = 3900 takes about 0.4 s per law on a
# 2-core machine.
_EXACT_BINS = 512
_EXACT_WORK = 2_000_000

# Most m*n bin updates the throw recurrence runs: 6 to 10 s at the 5 to 10 ns per
# update measured on a 2-core machine ((10**5, 10**4) took 5.4 s, (10000, 64472) 6.2 s).
_RECURRENCE_WORK = 1 << 30

# Log magnitudes below this give math.exp(...) == 0.0 (underflow starts
# near -745.13), with room for rounding in the log terms.
_LOG_UNDERFLOW = -760.0


def _series_is_tame(m: int, n: int) -> bool:
    """True when cancellation in the log route stays within one digit.

    Past the first few indices the series terms decay like a Poisson
    tail of rate lam = m(1-1/m)^n, and cancellation inflates the summed
    rounding error by about e^(2 lam); lam <= 1 keeps that inflation
    within one decimal digit.  Every other empty count has a smaller
    rate, so checking the leading one covers the full law.  The error
    left grows with m instead (module docstring: 5.7e-11 at m = 10000).
    """
    return math.log(m) + n * math.log1p(-1.0 / m) <= 0.0


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
    return np.asarray([math.lgamma(i + 1.0) for i in range(m + 1)], dtype=float)


def _empty_exactly_log(lf: np.ndarray, log_pow: np.ndarray, m: int, k: int) -> float:
    """Log-magnitude route for P(K = k); peak-scaled compensated signed sum.

    Term j is C(m,k) C(m-k,j) ((m-k-j)/m)**n with sign (-1)**j; lf holds
    log i! and log_pow holds n log(i/m) for i = 0..m.
    """
    w = m - k
    log_mag = lf[m] - lf[k] - lf[: w + 1] - lf[w::-1] + log_pow[w::-1]
    peak = float(np.max(log_mag))
    if peak == -math.inf:
        return 0.0
    scaled = np.exp(log_mag - peak)
    scaled[1::2] *= -1.0
    s = math.fsum(scaled.tolist())
    if s <= 0.0:
        return 0.0
    return math.exp(min(peak + math.log(s), 0.0))


def _occupied_counts_law(m: int, n: int) -> np.ndarray:
    """P(exactly j bins occupied) after n throws, index j = 0..m.

    One forward Markov step per throw: a ball lands in an occupied bin
    with probability j/m or opens a new one.  Every coefficient is
    positive, so this route is immune to the cancellation that limits
    the series routes; cost is O(n m) flops.
    """
    state = np.zeros(m + 1)
    state[0] = 1.0
    j = np.arange(m + 1, dtype=float)
    stay = j / m
    enter = (m - j + 1.0) / m  # entry into level j from j-1
    for _ in range(n):
        nxt = state * stay
        nxt[1:] += state[:-1] * enter[1:]
        state = nxt
    return state


def _empty_probs(m: int, n: int, k_stop: int) -> np.ndarray:
    """P(K = k) for k = 0..m, evaluated below k_stop and left zero above.

    The one place that checks (m, n) and picks a route.  On the exact
    route P(K = k) is C(m,k) over m**n times the surjection count onto
    w = m-k bins, the head of [i**n for i = 0..m] after w differencing
    passes (Feller vol. 1, IV.2); all m passes run even for one entry.
    When the whole support is evaluated the numerators must sum to m**n.
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
    if m <= _EXACT_BINS and m * n <= _EXACT_WORK:
        row = [i**n for i in range(m + 1)]
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
        assert k_stop < m or total == denom
    elif _series_is_tame(m, n):
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
        if m * n > _RECURRENCE_WORK:
            raise ValueError(
                f"throw recurrence for m={m}, n={n} needs {m * n} bin updates, above the limit of {_RECURRENCE_WORK}"
            )
        probs[:k_stop] = _occupied_counts_law(m, n)[::-1][:k_stop]
    return probs


def prob_all_occupied(m: int, n: int) -> float:
    """Probability that n uniform draws into m bins leave none empty.

    The value of P(K = 0); structurally zero whenever n < m.  Routed
    like the full law: exact integers, log series, or the throw
    recurrence, by size and conditioning.
    """
    return float(_empty_probs(m, n, 1)[0])


def empty_count_distribution(m: int, n: int) -> OccupancyDistribution:
    """Full law of the empty-bin count K after n uniform draws into m bins.

    Support is k in [max(0, m-n), m-1] for n >= 1 (at most n bins can be
    hit, and at least one is) plus the point mass at m for n = 0.  On the
    exact route the numerators must sum to m**n; the float routes instead
    rely on the constructor's mass check.
    """
    return OccupancyDistribution(m=m, n=n, probs=_empty_probs(m, n, m))


def coupon_limit(c: float) -> float:
    """Limiting miss probability 1 - exp(-exp(c)) for n = m log m - cm draws."""
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
