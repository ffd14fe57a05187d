"""Monte Carlo experiment driver: risk estimation, sweeps, rate fits, CSV.

A trial batch runs the configured test on fresh draws under the full pack
and under a random-deletion mixture, with one substream per (trial,
side), so totals never depend on execution order.  A side hashes its
trial seeds in blocks and re-keys one generator per trial, which draws
exactly what a generator built from each seed would.  Measured risk here
is always over the constructed pack pair of hypotheses, not a worst case
over anything larger.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import geometry, lrt, occupancy
from .geometry import Hypothesis, SpherePack, derive_seed
from .homology import homology_estimator

TEST_KINDS = ("lrt", "occupancy", "estimator")

# Stream codes for the two trial sides; part of the substream contract.
_NULL_STREAM = 0
_MIXTURE_STREAM = 1

# Trial seeds hashed per vectorised call; bounds the seed memory of a side.
_SEED_BLOCK = 1024

# Trial indices are hashed as uint32 lanes; past this they would wrap and reuse substreams.
_MAX_TRIALS = 1 << 32

# Risk values outside this band are dropped before rate fitting: below it
# Monte Carlo noise dominates, above it the flat cap regime bends the line.
FIT_WINDOW = (1e-3, 0.5)

CSV_HEADER = (
    "m,n,tau,d,D,trials,test,type1_hat,type2_hat,risk_hat,stderr,"
    "exact_type1,exact_type2,miss_prob,rate_envelope"
)

# Envelope level used when a sweep is run without an explicit delta.
DEFAULT_DELTA = 0.5


@dataclass(frozen=True)
class TrialConfig:
    """One experiment identity: pack shape, sample size, test, seeding."""

    intrinsic_dim: int
    ambient_dim: int
    radius: float
    n: int
    trials: int
    master_seed: int
    test_kind: str = "lrt"
    scale: float | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.test_kind not in TEST_KINDS:
            raise ValueError(f"test_kind must be one of {TEST_KINDS}, got {self.test_kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"trials {self.trials} above the limit of {_MAX_TRIALS} substreams per side")
        if self.n < 0:
            raise ValueError("sample size must be >= 0")


@dataclass(frozen=True)
class RiskEstimate:
    """Empirical error rates of one batch, with exact companions when known."""

    type_I_hat: float
    type_II_hat: float
    risk_hat: float
    stderr: float
    trials: int
    exact_type_I: float | None = None
    exact_type_II: float | None = None


@dataclass(frozen=True)
class SweepRow:
    """One sample size of a sweep, in emission order."""

    m: int
    n: int
    tau: float
    d: int
    D: int
    trials: int
    test_kind: str
    type1_hat: float
    type2_hat: float
    risk_hat: float
    stderr: float
    exact_type1: float | None
    exact_type2: float | None
    miss_prob: float
    rate_envelope: float


class RateFit(NamedTuple):
    slope: float
    intercept: float


def trial_seed(master_seed: int, trial_index: int, stream_code: int) -> int:
    """Substream seed for one trial side; fixed scheme, see module docs."""
    return derive_seed(master_seed, trial_index, stream_code)


def _trial_seeds(master_seed: int, trials: int, stream_code: int) -> Iterator[int]:
    """trial_seed(master_seed, t, stream_code) for t = 0..trials-1, hashed in blocks."""
    for start in range(0, trials, _SEED_BLOCK):
        block = np.arange(start, min(start + _SEED_BLOCK, trials))
        yield from geometry._derive_seeds(master_seed, block, stream_code).tolist()


def _increasing_sizes(n_values: Sequence[int], empty_message: str) -> list[int]:
    """n_values as ints, checked non-empty and strictly increasing."""
    sizes = [int(n) for n in n_values]
    if not sizes:
        raise ValueError(empty_message)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sample sizes must be strictly increasing")
    return sizes


def _build(config: TrialConfig) -> SpherePack:
    return geometry.build_pack(config.intrinsic_dim, config.ambient_dim, config.radius)


def _estimator_scale(config: TrialConfig, pack: SpherePack) -> float:
    # The pack radius separates spheres while keeping within-sphere links;
    # callers may override anywhere in (0, 2*radius).
    return pack.radius if config.scale is None else float(config.scale)


def _side_frequency(
    config: TrialConfig, pack: SpherePack, hypothesis: Hypothesis, stream: int, k_reject: float
) -> float:
    """Fraction of trials on which the configured test rejects (count tests: k > k_reject)."""
    m = pack.count
    seeds = _trial_seeds(config.master_seed, config.trials, stream)
    rejections = 0
    if config.test_kind in ("lrt", "occupancy"):
        # Both tests are functions of the empty-sphere count alone, so the
        # index-only draw suffices; it shares the stream prefix with
        # sample(), hence decisions match full point synthesis bitwise.
        rng = None
        for seed in seeds:
            rng = geometry._keyed(seed, rng)
            chosen, _ = geometry._draw_spheres(pack, hypothesis, config.n, rng)
            k = int(np.count_nonzero(np.bincount(chosen, minlength=m) == 0))
            rejections += k > k_reject
    else:
        scale = _estimator_scale(config, pack)
        for seed in seeds:
            samples = geometry.sample(pack, hypothesis, config.n, seed)
            # Budget 0 keeps every trial on the component-count path; the
            # plug-in decision below only reads the leading Betti number.
            profile = homology_estimator(pack, samples, scale, point_budget=0)
            rejections += lrt.test_from_estimator(profile, pack)
    return rejections / config.trials


def mc_risk(config: TrialConfig) -> RiskEstimate:
    """Estimate both error rates of the configured test by seeded trials.

    Runs config.trials draws under the full pack (rejections count toward
    type I) and the same number under the mixture (acceptances count
    toward type II).  Component standard errors combine in quadrature.
    Exact companions are attached for the likelihood-ratio test, where
    the occupancy law gives them in closed form; its trials reject on the
    empty-count threshold the exact risk sums over.
    """
    pack = _build(config)
    exact1: float | None = None
    exact2: float | None = None
    k_reject = 0.0  # the occupancy test rejects whenever a sphere is empty
    if config.test_kind == "lrt":
        report = lrt.exact_lrt_risk(pack.count, config.n)
        exact1, exact2, k_reject = report.type_I, report.type_II, report.k_threshold
    type1 = _side_frequency(config, pack, Hypothesis.null(), _NULL_STREAM, k_reject)
    type2 = 1.0 - _side_frequency(config, pack, Hypothesis.mixture(), _MIXTURE_STREAM, k_reject)
    stderr = math.sqrt(
        type1 * (1.0 - type1) / config.trials + type2 * (1.0 - type2) / config.trials
    )
    return RiskEstimate(
        type_I_hat=type1,
        type_II_hat=type2,
        risk_hat=type1 + type2,
        stderr=stderr,
        trials=config.trials,
        exact_type_I=exact1,
        exact_type_II=exact2,
    )


def sweep_n(config: TrialConfig, n_values: Sequence[int]) -> tuple[SweepRow, ...]:
    """One mc_risk batch per sample size, annotated with exact columns.

    Substreams depend only on (master seed, trial, side), so rows share
    random numbers across sample sizes; that common-draw coupling lowers
    the variance of fitted slopes.  The envelope column uses the config
    delta, defaulting to 0.5.
    """
    sizes = _increasing_sizes(n_values, "no sample sizes to sweep")
    pack = _build(config)
    delta = DEFAULT_DELTA if config.delta is None else config.delta
    rows = []
    for n in sizes:
        est = mc_risk(replace(config, n=n))
        rows.append(
            SweepRow(
                m=pack.count,
                n=n,
                tau=pack.radius,
                d=pack.intrinsic_dim,
                D=pack.ambient_dim,
                trials=config.trials,
                test_kind=config.test_kind,
                type1_hat=est.type_I_hat,
                type2_hat=est.type_II_hat,
                risk_hat=est.risk_hat,
                stderr=est.stderr,
                exact_type1=est.exact_type_I,
                exact_type2=est.exact_type_II,
                miss_prob=1.0 - occupancy.prob_all_occupied(pack.count, n),
                rate_envelope=lrt.risk_lower_bound(n, pack.radius, pack.intrinsic_dim, delta),
            )
        )
    return tuple(rows)


def sample_complexity(config: TrialConfig, epsilon: float, n_values: Sequence[int]) -> int:
    """Smallest candidate sample size whose risk is at or below epsilon.

    Candidates must be strictly increasing, so the first that passes is
    the smallest.  The likelihood-ratio test scans its exact total risk;
    other tests scan the Monte Carlo estimate plus two standard errors, a
    one-sided upper confidence bound, so a noisy dip cannot satisfy the
    target.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    sizes = _increasing_sizes(n_values, "no candidate sample sizes")
    pack = _build(config)
    for n in sizes:
        if config.test_kind == "lrt":
            achieved = lrt.exact_lrt_risk(pack.count, n).total <= epsilon
        else:
            est = mc_risk(replace(config, n=n))
            achieved = est.risk_hat + 2.0 * est.stderr <= epsilon
        if achieved:
            return n
    raise ValueError(
        f"risk {epsilon:g} not achieved by any candidate up to n = {sizes[-1]}"
    )


def fit_rate(rows: Sequence[SweepRow], column: str = "exact_type1") -> RateFit:
    """Least-squares line through (n, log value) inside the fit window.

    column selects which risk column supplies the values, "exact_type1"
    or "risk_hat".  Rows whose value falls outside FIT_WINDOW, or is
    missing, are dropped; at least four must survive, at two or more
    sample sizes.
    """
    if column not in ("exact_type1", "risk_hat"):
        raise ValueError(f"unsupported fit column {column!r}")
    lo, hi = FIT_WINDOW
    xs, ys = [], []
    for row in rows:
        value = getattr(row, column)
        if value is not None and lo <= value <= hi:
            xs.append(row.n)
            ys.append(math.log(value))
    if len(xs) < 4:
        raise ValueError(
            f"only {len(xs)} rows fall in the fit window [{lo:g}, {hi:g}]; need at least 4"
        )
    if len(set(xs)) < 2:
        raise ValueError(f"the rows in the fit window all have n = {xs[0]}; need at least 2 sample sizes")
    slope, intercept = np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 1)
    return RateFit(slope=float(slope), intercept=float(intercept))


def _field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: Sequence[SweepRow], path) -> None:
    """Write sweep rows under the fixed header; floats keep full precision.

    repr of a float round-trips exactly, so parse-back equality is well
    inside the 1e-12 contract.  Lines end with a bare line feed on every
    platform.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_field(f) for f in astuple(row)) + "\n")
