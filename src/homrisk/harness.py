"""Monte Carlo experiment driver: risk estimation, sweeps, rate fits, CSV.

A trial batch runs the configured test on fresh draws under the full pack
and under a random-deletion mixture, with one substream per (trial,
side), so totals never depend on execution order.  Both kinds of side
run one loop over blocks of trials (_trial_blocks): it hashes the trial
seeds in blocks and re-keys one generator per trial, which draws exactly
what a generator built from each seed would.  The two count tests read
only the empty-sphere count, so a side draws each trial's sphere choices
once, at the largest sample size it needs, and reads every size off that
one draw: the first n choices of a longer draw are a draw of n.  The
sizes it needs end at the last one whose threshold the empty count's
range after n draws, [m - min(n, kept), m - min(n, 1)], leaves open; a
threshold outside the range answers its size as every trial or none
without a draw, so from the collection threshold on, where the ratio
test's t < 1, a mixture side draws nothing.
Count-test trials and estimator batches share one raw-word draw,
geometry._draw_words, which draws a trial its map cannot give again
itself: only these Monte Carlo batches read numpy internals, while
geometry.sample and sample_assignments, the references they match, make
Generator calls alone.  A block of count-test trials, of at most
_DRAW_BUFFER choices, takes one call, and a trial longer than the block
is drawn through geometry._draw_kept in block-wide pieces, on a side that
holds no word buffers.  A side refuses more than _MAX_DRAWS choices, and
an estimator side more than _MAX_POINTS points, before drawing any,
counted at the sizes asked for, whatever the range then spares; an
estimator sweep draws every row afresh, so it counts trials times the
summed sizes.  The estimator draws each batch of at most _BATCH_POINTS
points in one geometry._sample_batch call, each trial the bytes
geometry.sample gives its seed, and counts each batch's components in
one call, one group a trial: from each circle's cyclic spacings, one sort
a batch, on a pack of circles, and with the grouped component count on
every other pack and for any trial the spacing count cannot certify.
Measured risk here is always over the constructed pack pair of
hypotheses, not a worst case over anything larger.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import geometry, homology, lrt, occupancy
from .geometry import Hypothesis, SpherePack, _integer, derive_seed
from .homology import homology_estimator  # noqa: F401  kept as a harness name: bench/tracer.py rebinds it here

TEST_KINDS = ("lrt", "occupancy", "estimator")

# Stream codes for the two trial sides; part of the substream contract.
_NULL_STREAM = 0
_MIXTURE_STREAM = 1

# Trial seeds hashed per vectorised call; bounds the seed memory of a side.
_SEED_BLOCK = 1024

# Trial indices are hashed as uint32 lanes; past this they would wrap and reuse substreams.
_MAX_TRIALS = 1 << 32

# Most sphere choices one block of count-test draws holds: 2**16 int64s, 0.5 MB.
_DRAW_BUFFER = 1 << 16

# Most sphere choices a side draws, one a point: trials times the largest sample size for the count
# tests, which read every size off one draw, and trials times the summed sizes for the estimator,
# whose rows draw afresh.
_MAX_DRAWS = 1 << 32

# Most points an estimator side draws, counted as its sphere choices are: 128 times fewer than
# _MAX_DRAWS, since a point costs its d + 1 Gaussians, its placement and its share of its batch's
# component count (spacings on circles, else sweep or cell candidates), where a count-test choice
# costs half a raw word and one bincount entry.
_MAX_POINTS = 1 << 25

# Most points one batch of estimator trials holds, 4096: a batch's grouped component count holds
# arrays of a few words a point beside its one block of at most _BLOCK_FLOATS words, so at 32 times
# fewer points than block words those arrays stay a fraction of the block.  Twenty 200-point trials
# of the README m = 4 pack fill a batch, and a side traces 0.93 MB at this cap, 1.46 MB at twice it.
_BATCH_POINTS = homology._BLOCK_FLOATS // 32

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
        object.__setattr__(self, "n", _integer(self.n, "sample size"))
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "master_seed", geometry._seed(self.master_seed, "master seed"))
        if self.test_kind not in TEST_KINDS:
            raise ValueError(f"test_kind must be one of {TEST_KINDS}, got {self.test_kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"trials {self.trials} above the limit of {_MAX_TRIALS} substreams per side")
        if self.n < 0:
            raise ValueError("sample size must be >= 0")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")


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


def _trial_blocks(
    master_seed: int, trials: int, stream_code: int, rows: int
) -> Iterator[tuple[list[int], np.random.Generator]]:
    """The loop of a side's trials: trial_seed(master_seed, t, stream_code) for t = 0..trials-1 in blocks of
    at most rows, each with the side's one generator, which the draws re-key to each trial's seed.

    The seeds are hashed _SEED_BLOCK at a time, whatever rows is, which
    bounds their memory; re-keying draws what a generator built from the
    seed would (see geometry._keyed).
    """
    hashed = (
        geometry._derive_seeds(master_seed, np.arange(start, min(start + _SEED_BLOCK, trials)), stream_code).tolist()
        for start in range(0, trials, _SEED_BLOCK)
    )
    seeds = itertools.chain.from_iterable(hashed)
    rng = geometry._keyed(0)
    while block := list(itertools.islice(seeds, rows)):
        yield block, rng


def _increasing_sizes(n_values: Sequence[int], empty_message: str) -> Sequence[int]:
    """n_values as ints, checked non-empty, non-negative and strictly increasing; a range is kept lazy."""
    lazy = isinstance(n_values, range)
    sizes = n_values if lazy else [_integer(n, "sample size") for n in n_values]
    if not sizes:
        raise ValueError(empty_message)
    if len(sizes) > 1 and (sizes.step < 0 if lazy else any(b <= a for a, b in zip(sizes, sizes[1:]))):
        raise ValueError("sample sizes must be strictly increasing")
    if sizes[0] < 0:
        raise ValueError("sample size must be >= 0")
    return sizes


def _check_draws(config: TrialConfig, n: int, before: int = 0, at: str = "") -> int:
    """Refuse a side whose draws, before plus trials * n, pass a limit, before drawing any; return them.

    A side draws at most _MAX_DRAWS sphere choices, and an estimator side,
    one point a choice, at most _MAX_POINTS points.  at, when given, names
    the sizes n sums in the message.
    """
    total = before + config.trials * n
    limits = [(_MAX_DRAWS, "sphere choices", "")]
    if config.test_kind == "estimator":
        limits.append((_MAX_POINTS, "points", " for the estimator"))
    for limit, unit, owner in limits:
        if total > limit:
            earlier = f" after {before} on earlier candidates" if before else ""
            raise ValueError(
                f"{config.trials} trials at {at or f'n = {n}'} draw {config.trials * n} {unit} a side{earlier}, "
                f"above the limit of {limit}{owner}"
            )
    return total


def _build(config: TrialConfig) -> SpherePack:
    return geometry.build_pack(config.intrinsic_dim, config.ambient_dim, config.radius)


def _count_rejections(
    config: TrialConfig,
    pack: SpherePack,
    hypothesis: Hypothesis,
    stream: int,
    sizes: Sequence[int],
    k_rejects: Sequence[float],
) -> list[int]:
    """Trials whose empty count exceeds k_rejects[j] after sizes[j] draws, for strictly increasing sizes.

    Both count tests are functions of the empty-sphere count alone, so the
    index-only draw suffices; it makes the choices geometry._draw_kept does,
    hence decisions match full point synthesis bitwise.  Each trial draws
    once, at the largest size: on a keyed Philox stream the first n choices
    of a longer draw are a draw of n, so one draw is the trial at every
    size.  Rows of trials fill a block of at most _DRAW_BUFFER choices,
    drawn by one geometry._draw_words call into word buffers allocated once
    a side, which draws a trial its map flags again itself.  A trial
    longer than the block is drawn through _draw_kept and then
    Generator.integers, in block-wide pieces that continue its stream, so
    its side allocates no word buffers and holds one piece at a time.  Row
    i is offset by i*kept, and one bincount per span between consecutive
    sizes adds the span's hits to running per-trial counts.  A deleted
    sphere is never drawn, so the tally skips it and counts it as one more
    empty sphere.

    After n draws a trial's empty count lies in [m - min(n, kept),
    m - min(n, 1)]: n >= 1 draws fill at least one sphere and at most n.
    A threshold below that range rejects every trial, and one at or above
    its top none, so trials are drawn only up to the last size the range
    leaves open, and each later size is answered as trials or 0 without a
    draw; a side that leaves no size open draws nothing and hashes no seed.
    The draw limit is not relaxed by this: callers check sizes, as asked,
    with _check_draws before the side runs.
    """
    m = pack.count
    kept = geometry._kept(pack, hypothesis)
    answers = [config.trials if m - min(n, kept) > k else 0 for n, k in zip(sizes, k_rejects)]
    left_open = [j for j, (n, k) in enumerate(zip(sizes, k_rejects)) if m - min(n, kept) <= k < m - min(n, 1)]
    if not left_open:
        return answers
    drawn = left_open[-1] + 1
    sizes = sizes[:drawn]
    top = sizes[-1]
    # the cap bounds a block's draws, rows * width, and its per-trial hit counts, rows * kept
    rows = min(config.trials, max(1, _DRAW_BUFFER // max(top, kept, 1)))
    width = max(1, min(top, _DRAW_BUFFER))
    if top <= width:  # a longer trial draws no raw words, so its side holds no word buffers
        buffers = geometry._word_buffers(hypothesis, width, rows)
        chosen = buffers[1].view("<i8")  # bincount copies a uint64 input
        offsets = np.arange(rows)[:, None] * kept
    rejections = [0] * drawn + answers[drawn:]
    for keys, rng in _trial_blocks(config.master_seed, config.trials, stream, rows):
        block = len(keys)
        hits = np.zeros(block * kept, dtype=np.intp)
        tallied = j = 0
        for first in range(0, max(top, 1), width):
            draws = None  # let the last piece go before the next is allocated
            last = min(first + width, top)
            span = last - first
            if first:  # the one trial of the block goes on from its earlier pieces
                draws = rng.integers(0, kept, size=(1, span))
            elif top > width:  # a trial longer than the block, alone in it, is drawn through the reference whole
                draws = geometry._draw_kept(pack, hypothesis, span, geometry._keyed(keys[0], rng))[0][None]
            else:
                geometry._draw_words(pack, hypothesis, span, keys, rng, buffers)
                draws = chosen[:block, :span]
                draws += offsets[:block]
            # tally up to each size in this piece, recording it, then up to the piece's end
            while tallied < last or (j < len(sizes) and sizes[j] == tallied):
                stop = min(sizes[j], last)
                if stop > tallied:
                    hits += np.bincount(draws[:, tallied - first : stop - first].ravel(), minlength=block * kept)
                    tallied = stop
                if tallied == sizes[j]:
                    empty = np.count_nonzero(hits.reshape(block, kept) == 0, axis=1) + (m - kept)
                    rejections[j] += int(np.count_nonzero(empty > k_rejects[j]))
                    j += 1
    return rejections


def _estimator_rejections(config: TrialConfig, pack: SpherePack, hypothesis: Hypothesis, stream: int, n: int) -> int:
    """Trials on which the plug-in test rejects, one full point sample of size n each.

    Each batch of at most _BATCH_POINTS points, or one trial when n is
    larger, is drawn by one geometry._sample_batch call, each trial on its
    own keyed stream, and takes one component count (see
    homology._estimator_counts), with homology_estimator's checks: from
    cyclic spacings on a pack of circles, else grouped.  The edge rule
    reads two points only and no edge joins two trials, so each count is
    the one homology_estimator gives its trial on the component-count path.
    A trial rejects, as lrt.test_from_estimator does, when its count is
    below the sphere count.
    """
    # The pack radius separates spheres while keeping within-sphere links;
    # callers may override anywhere in (0, 2*radius).
    scale = pack.radius if config.scale is None else float(config.scale)
    rows = min(config.trials, max(1, _BATCH_POINTS // max(n, 1)))
    rejections = 0
    for keys, rng in _trial_blocks(config.master_seed, config.trials, stream, rows):
        points = geometry._sample_batch(pack, hypothesis, n, keys, rng)
        counts = homology._estimator_counts(pack, points, scale)
        rejections += int(np.count_nonzero(counts < pack.count))
    return rejections


def _estimate(
    rejected_null: int, rejected_mixture: int, trials: int, exact: lrt.ExactRiskReport | None = None
) -> RiskEstimate:
    """Both error rates from the rejection counts of the two sides.

    Component standard errors combine in quadrature; exact companions are
    attached when a report is given.
    """
    type1 = rejected_null / trials
    type2 = 1.0 - rejected_mixture / trials
    stderr = math.sqrt(type1 * (1.0 - type1) / trials + type2 * (1.0 - type2) / trials)
    return RiskEstimate(
        type_I_hat=type1,
        type_II_hat=type2,
        risk_hat=type1 + type2,
        stderr=stderr,
        trials=trials,
        exact_type_I=None if exact is None else exact.type_I,
        exact_type_II=None if exact is None else exact.type_II,
    )


def _estimates(
    config: TrialConfig, pack: SpherePack, sizes: Sequence[int], reports: Sequence[lrt.ExactRiskReport | None]
) -> list[RiskEstimate]:
    """mc_risk of the configured test at each of the strictly increasing sizes.

    reports[j] is the exact risk at sizes[j] for the likelihood-ratio test,
    whose trials reject above its k_threshold, else None.  The count tests
    read every size off one draw per trial and side, and the estimator
    draws its trials afresh at each size.
    """
    sides = ((Hypothesis.null(), _NULL_STREAM), (Hypothesis.mixture(), _MIXTURE_STREAM))
    if config.test_kind == "estimator":
        nulls, mixed = ([_estimator_rejections(config, pack, *side, n) for n in sizes] for side in sides)
    else:
        k_rejects = [0.0 if report is None else report.k_threshold for report in reports]
        nulls, mixed = (_count_rejections(config, pack, *side, sizes, k_rejects) for side in sides)
    return [_estimate(a, b, config.trials, report) for a, b, report in zip(nulls, mixed, reports)]


def mc_risk(config: TrialConfig) -> RiskEstimate:
    """Estimate both error rates of the configured test by seeded trials.

    Runs config.trials draws under the full pack (rejections count toward
    type I) and the same number under the mixture (acceptances count
    toward type II).  Component standard errors combine in quadrature.
    Exact companions are attached for the likelihood-ratio test, where
    the occupancy law gives them in closed form; its trials reject on the
    empty-count threshold the exact risk sums over.  The count tests tally
    each trial's sphere choices in blocks of at most _DRAW_BUFFER, and a
    side whose threshold lies outside the empty count's range after n
    draws answers without a draw: past the collection threshold every
    mixture trial rejects.  A side of more than _MAX_DRAWS choices at n, or
    an estimator side of more than _MAX_POINTS points, is refused before
    any draw, whether or not the range then spares it.
    """
    _check_draws(config, config.n)
    pack = _build(config)
    report = lrt.exact_lrt_risk(pack.count, config.n) if config.test_kind == "lrt" else None
    (estimate,) = _estimates(config, pack, [config.n], [report])
    return estimate


def sweep_n(config: TrialConfig, n_values: Sequence[int]) -> tuple[SweepRow, ...]:
    """One risk estimate per sample size, annotated with exact columns.

    Substreams depend only on (master seed, trial, side), so rows share
    random numbers across sample sizes; that common-draw coupling lowers
    the variance of fitted slopes.  For the count tests the rows are one
    draw per trial, made at the last size whose threshold the empty count's
    range leaves open and read at every size up to it, with the rows after
    it answered without a draw, so each row equals mc_risk at its size; the
    draw limit still counts the largest size.  The estimator draws every sphere
    choice before any Gaussian, so a longer sample does not extend a
    shorter one, and it draws each row afresh.  A side that would draw
    more than _MAX_DRAWS sphere choices, trials times the largest size for
    the count tests and trials times the summed sizes for the estimator,
    or an estimator side of more than _MAX_POINTS points, is refused before
    any draw.  On likelihood-ratio rows miss_prob is read off the null law
    the exact columns were summed from; the rows whose two laws both take
    the throw recurrence read them from one stepper pair, and occupancy
    rows on that route from one stepper, as n only grows.  The envelope
    column uses the config delta, defaulting to 0.5.
    """
    sizes = _increasing_sizes(n_values, "no sample sizes to sweep")
    if config.test_kind == "estimator":  # each row draws afresh; a range is summed in closed form
        total = len(sizes) * (sizes[0] + sizes[-1]) // 2 if isinstance(sizes, range) else sum(sizes)
        _check_draws(config, total, at=f"{len(sizes)} sizes summing to {total}")
    else:
        _check_draws(config, sizes[-1])
    pack = _build(config)
    m = pack.count
    delta = DEFAULT_DELTA if config.delta is None else config.delta
    reports, misses = [], []
    if config.test_kind == "lrt":
        for report, null_law in lrt._risks_and_null_laws(m, sizes):
            reports.append(report)
            misses.append(1.0 - float(null_law[0]))
    else:
        reports = [None] * len(sizes)
        misses = [1.0 - p for p in occupancy._all_occupied_probs(m, sizes)]
    estimates = _estimates(config, pack, sizes, reports)
    return tuple(
        SweepRow(
            m=m,
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
            miss_prob=miss,
            rate_envelope=lrt.risk_lower_bound(n, pack.radius, pack.intrinsic_dim, delta),
        )
        for n, est, miss in zip(sizes, estimates, misses)
    )


def sample_complexity(config: TrialConfig, epsilon: float, n_values: Sequence[int]) -> int:
    """Smallest candidate sample size whose risk is at or below epsilon.

    Candidates must be strictly increasing, so the first that passes is
    the smallest; a range is scanned lazily, never listed.  Other tests
    scan the Monte Carlo estimate plus two standard errors, a one-sided
    upper confidence bound, so a noisy dip cannot satisfy the target, and
    refuse the candidate that would take a side's sphere choices, summed
    over the candidates so far, past _MAX_DRAWS, or an estimator side's
    points past _MAX_POINTS, before drawing it; the sum counts every
    candidate in full, though a count-test side whose threshold the empty
    count's range decides draws nothing, as in mc_risk.  The
    likelihood-ratio test answers exactly: see lrt._first_passing_size.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    sizes = _increasing_sizes(n_values, "no candidate sample sizes")
    pack = _build(config)
    if config.test_kind == "lrt":
        found = lrt._first_passing_size(pack.count, epsilon, sizes)
        if found is not None:
            return found
    else:
        drawn = 0
        for n in sizes:
            drawn = _check_draws(config, n, drawn)
            (est,) = _estimates(config, pack, [n], [None])
            if est.risk_hat + 2.0 * est.stderr <= epsilon:
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
