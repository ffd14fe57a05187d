"""Likelihood-ratio test for sphere deletion: reports, closed forms, exact risk.

Both hypotheses put uniform product densities on their supports, so the
ratio collapses to a function of the empty-sphere count alone.  That makes
the exact error probabilities of the test a pair of tail sums of the
occupancy law, and ties the whole bench to the collection threshold
m ln m + m ln(1/delta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .geometry import SampleSet, SpherePack, sphere_surface_measure
from .homology import BettiProfile
from . import occupancy
from .occupancy import OccupancyDistribution, _recurrence, empty_count_distribution, summarize

# The scan confirms a candidate whose float risk is at most epsilon * (1 + _SCREEN_MARGIN),
# or epsilon + _SCREEN_FLOOR where larger: near float underflow relative error means nothing.
_SCREEN_MARGIN = 1e-6
_SCREEN_FLOOR = 1e-300


@dataclass(frozen=True)
class LikelihoodReport:
    """Log likelihoods, their ratio, and the accept/reject decision."""

    log_L0: float
    log_L1: float
    ratio_L: float
    empty_count: int
    decision: int  # 1 = reject the full pack, 0 = accept


@dataclass(frozen=True)
class ExactRiskReport:
    """Exact error probabilities of the ratio test at one (m, n)."""

    m: int
    n: int
    k_threshold: float
    type_I: float
    type_II: float
    total: float


@dataclass(frozen=True)
class RateCurve:
    """Envelope values over a sample-size grid at fixed (radius, dim, delta)."""

    points: tuple[tuple[int, float], ...]
    radius: float
    dim: int
    delta: float


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _k_threshold(m: int, n: int) -> float:
    """Empty count above which the ratio test rejects: m(1-1/m)^n."""
    return m * (1.0 - 1.0 / m) ** n


def likelihood_ratio(pack: SpherePack, samples: SampleSet) -> LikelihoodReport:
    """Evaluate the deleted-sphere mixture against the full pack on one sample.

    The null density is 1/(m * area) per point; the mixture averages the
    m single-deletion densities, and a deletion contributes only when its
    sphere received no points.  With k empty spheres the ratio is
    (k/m) * (m/(m-1))^n.  Ties (ratio exactly 1) accept: the decision
    is k > m(1-1/m)^n, as in exact_lrt_risk, not the rounded ratio.

    Args:
        pack: the sphere pack, needing at least two spheres.
        samples: sample set whose points all assign to some sphere.

    Returns:
        LikelihoodReport with log likelihoods, ratio and decision.
    """
    m = pack.count
    if m < 2:
        raise ValueError("the deletion mixture needs at least two spheres")
    summary = summarize(pack, samples)
    n = summary.n
    k = summary.empty_count
    log_area = math.log(sphere_surface_measure(pack.intrinsic_dim)) + (
        pack.intrinsic_dim * math.log(pack.radius)
    )
    log_l0 = -n * (math.log(m) + log_area)
    if k == 0:
        log_l1 = -math.inf
        ratio = 0.0
    else:
        log_l1 = math.log(k) - math.log(m) - n * (math.log(m - 1) + log_area)
        ratio = _exp_or_inf(log_l1 - log_l0)
    return LikelihoodReport(
        log_L0=log_l0,
        log_L1=log_l1,
        ratio_L=ratio,
        empty_count=k,
        decision=1 if k > _k_threshold(m, n) else 0,
    )


def likelihood_ratio_closed_form(m: int, n: int, k: int) -> float:
    """Ratio value (k/m) * (m/(m-1))^n straight from the empty count."""
    if m < 2:
        raise ValueError("the deletion mixture needs at least two spheres")
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if not 0 <= k <= m:
        raise ValueError(f"empty count {k} outside 0..{m}")
    if k == 0:
        return 0.0
    return _exp_or_inf(math.log(k) - math.log(m) - n * math.log1p(-1.0 / m))


def t_mn(m: int, n: int) -> float:
    """Ratio value when exactly one sphere is empty: (1/m) * (1-1/m)^(-n).

    Once this exceeds 1/delta the test rejects whenever any sphere is
    empty, which pins the sample-size threshold of the whole problem.
    """
    return likelihood_ratio_closed_form(m, n, 1)


def _tails(k_threshold: float, null: np.ndarray, deleted: np.ndarray | None) -> tuple[float, float]:
    """Type I and type II of the ratio test from its two laws, indexed by empty count.

    The test rejects when the integer empty count exceeds t = m(1-1/m)^n, so
    false rejection is the m-bin law null above floor(t).  Under a deletion
    the empty count is 1 plus the (m-1)-bin one, so false acceptance is the
    law deleted below floor(t); it is read only when floor(t) > 0, and may
    be None when floor(t) = 0.
    """
    cut = math.floor(k_threshold)
    type_i = float(null[cut + 1 :].sum())
    type_ii = float(deleted[:cut].sum()) if cut else 0.0
    return min(1.0, max(0.0, type_i)), min(1.0, max(0.0, type_ii))


def exact_lrt_risk(m: int, n: int) -> ExactRiskReport:
    """Exact type I and II of the ratio test at (m, n): tails of the m- and (m-1)-bin empty-count laws."""
    return next(_risks_and_null_laws(m, (n,)))[0]


def _takes_pair(m: int, n: int) -> bool:
    """True when the router sends both laws of the risk at (m, n) to the throw recurrence.

    There m(1-1/m)^n > 1 (_series_is_tame fails), so floor(t) >= 1 (checked
    at the last such n of every m up to 2 * 10**5) and the (m-1)-bin law is
    always read.
    """
    return n >= 1 and occupancy._route(m, n) == occupancy._route(m - 1, n) == "recurrence"


def _risks_and_null_laws(m: int, sizes: Iterable[int]) -> Iterator[tuple[ExactRiskReport, np.ndarray]]:
    """exact_lrt_risk(m, n), with the m-bin empty-count law its type I is summed from, for each n of the
    increasing sizes.

    Every n whose two laws both take the throw recurrence reads them from
    one stepper pair that never steps back, bit for bit the router's laws,
    with the router's mass check on each; every other n calls the router.
    """
    if m < 2:
        raise ValueError("the deletion mixture needs at least two spheres")
    pair = None
    for n in sizes:
        if n < 0:
            raise ValueError("sample size must be >= 0")
        k_threshold = _k_threshold(m, n)
        if _takes_pair(m, n):
            pair = pair or _recurrence(m, pair=True)
            laws = pair(n, deleted=True)
            null, deleted = (OccupancyDistribution(m - r, n, probs).probs for r, probs in enumerate(laws))
        else:
            null = empty_count_distribution(m, n).probs
            deleted = empty_count_distribution(m - 1, n).probs if math.floor(k_threshold) else None
        type_i, type_ii = _tails(k_threshold, null, deleted)
        report = ExactRiskReport(
            m=m,
            n=n,
            k_threshold=k_threshold,
            type_I=type_i,
            type_II=type_ii,
            total=type_i + type_ii,
        )
        yield report, null


def _first_passing_size(m: int, epsilon: float, sizes: Iterable[int]) -> int | None:
    """First n in sizes with exact_lrt_risk(m, n).total <= epsilon, or None.

    One throw-recurrence stepper pair carries the m- and (m-1)-bin laws
    through n, under the router's work limit; the first candidate with
    floor(t) = 0 drops the (m-1)-bin row for good, as _tails no longer reads
    it and t only falls as n grows.  The float risk of each candidate,
    _tails of the two laws, screens out every n above the _SCREEN_MARGIN
    limit.  Float and exact risks agree to 3.4e-12 for m up to 2000 on all
    routes, bit for bit where both laws take the recurrence, so no passing n
    is dropped and exact_lrt_risk decides the rest: O(m * n_epsilon) flops,
    as a rule one exact call.
    """
    if m < 2:
        raise ValueError("the deletion mixture needs at least two spheres")
    limit = epsilon + max(_SCREEN_MARGIN * epsilon, _SCREEN_FLOOR)
    laws = _recurrence(m, pair=True)
    for n in sizes:
        if n < 0:
            raise ValueError("sample size must be >= 0")
        k_threshold = _k_threshold(m, n)
        if math.floor(k_threshold):
            null, deleted = laws(n, deleted=True)
        else:
            null, deleted = laws(n), None
        type_i, type_ii = _tails(k_threshold, null, deleted)
        if type_i + type_ii <= limit and exact_lrt_risk(m, n).total <= epsilon:
            return n
    return None


def risk_lower_bound(n: int, radius: float, dim: int, delta: float) -> float:
    """Rate envelope min((1/r^d) * exp(-n r^d), delta), constants set to one."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if not 0.0 < radius < 0.5:
        raise ValueError("radius must lie in (0, 1/2)")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    scale = radius**dim
    return min(math.exp(-n * scale) / scale, delta)


def rate_curve(
    n_values, radius: float, dim: int, delta: float
) -> RateCurve:
    """Evaluate the envelope over a grid of sample sizes."""
    pts = tuple((int(n), risk_lower_bound(int(n), radius, dim, delta)) for n in n_values)
    return RateCurve(points=pts, radius=float(radius), dim=int(dim), delta=float(delta))


def test_from_estimator(profile: BettiProfile, pack: SpherePack) -> int:
    """Plug-in decision: accept the full pack when the component count
    reaches the sphere count.

    Over-counting components (more than m) still accepts, since extra
    pieces come from sampling gaps on real spheres, not from a deletion.
    """
    return 0 if profile.betti[0] >= pack.count else 1
