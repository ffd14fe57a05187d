"""Sphere-pack manifolds in the unit cube: construction, validation, sampling.

The null space is a grid of m disjoint d-spheres of common radius packed
into [0,1]^D with 4*radius spacing; each alternate deletes one sphere.
Sampling runs on numpy's Philox counter generator keyed directly by the
caller's seed, so draws are reproducible and independent of execution
layout.  Batch callers re-key one generator per stream and hash their
stream seeds in vectorised blocks: a seed has three parts, the master,
the trial index and the stream code, in at most four 32-bit words, so a
stream runs at most 2**32 trials.  One raw-word draw (_draw_words) gives
the count tests' sphere choices and the sampler's: each trial of a block
reads its bounded draws as raw Philox words, and one vectorised map turns
the block's words into the choices Generator.integers makes.  A batch of
samples is drawn on it in one pass (_sample_batch); sample is a batch of
one.  A trial the map cannot give is drawn through the reference,
_draw_kept for choices and _sample_reference for points.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy.random.bit_generator): a pool of four
# 32-bit words, filled by hashmix under _INIT_A, read out under _INIT_B.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Most values build_pack allocates for center coordinates, and sample for its
# n * (d + 1 + D) floats or sample_assignments for its n choices: 2**27 floats
# are 1 GiB, 16 times the largest pack the tests build (128**3 spheres in 4
# dimensions).
_MAX_PACK_FLOATS = 1 << 27

# Gaussian norm below which a point is drawn again, so that scaling it to the sphere stays finite.
_MIN_NORM = 1e-12


def sphere_surface_measure(d: int) -> float:
    """Surface measure of the unit d-sphere (2*pi at d=1, 4*pi at d=2)."""
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit d-ball, the coarser normalising convention.

    The exact per-sphere mass normaliser is the surface measure; this one
    is kept around so callers can report the density floor under either
    convention.
    """
    if d < 1:
        raise ValueError("ball dimension must be >= 1")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Hypothesis:
    """Sampling regime: the full pack, one fixed deletion, or a random one.

    kind is "null", "alternate" or "mixture"; index is the 1-based sphere
    to delete and only accompanies "alternate".
    """

    kind: str
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("null", "alternate", "mixture"):
            raise ValueError(f"unknown hypothesis kind {self.kind!r}")
        if self.kind == "alternate":
            if self.index is None or self.index < 1:
                raise ValueError("alternate hypothesis needs a sphere index >= 1")
        elif self.index is not None:
            raise ValueError("only the alternate hypothesis carries an index")

    @classmethod
    def null(cls) -> "Hypothesis":
        return cls("null")

    @classmethod
    def alternate(cls, index: int) -> "Hypothesis":
        return cls("alternate", int(index))

    @classmethod
    def mixture(cls) -> "Hypothesis":
        return cls("mixture")


@dataclass(frozen=True)
class SpherePack:
    """A grid of disjoint d-spheres of common radius inside [0,1]^D.

    The centers are the row-major product of grid_size strictly ascending
    coordinates on each of the first d axes, later coordinates shared.
    """

    intrinsic_dim: int
    ambient_dim: int
    radius: float
    grid_size: int
    count: int
    centers: np.ndarray  # shape (count, ambient_dim), read-only
    total_volume: float

    def __post_init__(self) -> None:
        d, g = self.intrinsic_dim, self.grid_size
        if not (
            self.count == g**d
            and self.centers.shape == (self.count, self.ambient_dim)
            and np.all(np.diff(axes := _axes(self), axis=1) > 0.0)
            and np.array_equal(self.centers[:, :d], np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d))
            and np.all(self.centers[:, d:] == self.centers[:1, d:])
        ):
            raise ValueError(
                f"pack centers must be the {g}**{d} rows of a row-major grid of strictly ascending "
                f"axis coordinates with later coordinates shared; got count {self.count}, shape {self.centers.shape}"
            )


def _axes(pack: SpherePack) -> np.ndarray:
    """(d, g) grid coordinates; axis i steps every g**(d-1-i) rows of the centers."""
    d, g = pack.intrinsic_dim, pack.grid_size
    return np.array([pack.centers[: g ** (d - i) : g ** (d - 1 - i), i] for i in range(d)]).reshape(d, g)


@dataclass(frozen=True)
class SampleSet:
    """Points drawn in one call, with the hypothesis and seed that made them."""

    points: np.ndarray  # shape (n, ambient_dim), read-only
    hypothesis: Hypothesis
    realized_removed_index: int | None
    seed: int

    @property
    def n(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class PackCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PackReport:
    checks: tuple[PackCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def build_pack(intrinsic_dim: int, ambient_dim: int, radius: float) -> SpherePack:
    """Build the axis-aligned grid pack.

    Centers sit at radius + 4*radius*k on each of the first d axes for
    k in 0..g-1, at radius on axis d+1, and at zero beyond; the grid size
    g = floor((1 - 2r)/(4r)) + 1 is the largest count per axis that keeps
    every sphere inside the cube at 4r spacing.

    Args:
        intrinsic_dim: sphere dimension d, at least 1.
        ambient_dim: embedding dimension, must exceed intrinsic_dim.
        radius: common sphere radius, in (0, 1/2).

    Returns:
        The constructed SpherePack with m = g**d spheres.

    Raises:
        ValueError: when the ambient dimension is too small, no sphere
            of the requested radius fits in the cube, or the center array
            would hold more than 2**27 coordinates.
    """
    d = int(intrinsic_dim)
    big_d = int(ambient_dim)
    r = float(radius)
    if d < 1:
        raise ValueError("intrinsic dimension must be >= 1")
    if big_d <= d:
        raise ValueError("ambient dimension must exceed the intrinsic dimension")
    if not 0.0 < r < 0.5:
        raise ValueError("radius must lie in (0, 1/2) so a sphere fits in the cube")
    g = int(math.floor((1.0 - 2.0 * r) / (4.0 * r))) + 1
    m = g**d
    if m * big_d > _MAX_PACK_FLOATS:
        raise ValueError(f"pack needs {m * big_d} center coordinates, above the limit of {_MAX_PACK_FLOATS}")
    centers = np.zeros((m, big_d))
    centers[:, :d] = r + 4.0 * r * np.indices((g,) * d).reshape(d, -1).T
    centers[:, d] = r
    centers.flags.writeable = False
    total = m * sphere_surface_measure(d) * r**d
    return SpherePack(
        intrinsic_dim=d,
        ambient_dim=big_d,
        radius=r,
        grid_size=g,
        count=m,
        centers=centers,
        total_volume=total,
    )


def validate_pack(pack: SpherePack) -> PackReport:
    """Report-only geometric checks: containment, separation, count bounds.

    In a grid the nearest centers differ along one axis only, so the
    separation is the smallest gap between consecutive axis coordinates.
    The count upper bound uses ceil(1/(4r)) per axis; the raw 1/(4r) bound
    fails for radii where 1/(4r) has fractional part above one half, even
    though the pack itself is valid, so the rounded form is what a correct
    grid actually guarantees.
    """
    r = pack.radius
    d = pack.intrinsic_dim
    varying = pack.centers[:, : d + 1]
    contained = bool(
        np.all(varying - r >= -1e-12)
        and np.all(varying + r <= 1.0 + 1e-12)
        and np.all(pack.centers >= -1e-12)
        and np.all(pack.centers <= 1.0 + 1e-12)
    )
    checks = [
        PackCheck(
            "containment",
            contained,
            f"varying-coordinate range [{varying.min():.6g}, {varying.max():.6g}], radius {r:.6g}",
        )
    ]
    min_dist = float(np.diff(_axes(pack), axis=1).min()) if pack.grid_size >= 2 else math.inf
    checks.append(
        PackCheck(
            "separation",
            min_dist >= 4.0 * r - 1e-9,
            f"min center distance {min_dist:.6g} against 4*radius = {4.0 * r:.6g}",
        )
    )
    lower = 1.0 / (8.0 * r) ** d
    upper = float(math.ceil(1.0 / (4.0 * r))) ** d
    checks.append(
        PackCheck(
            "count_bounds",
            lower <= pack.count <= upper,
            f"count {pack.count} inside [{lower:.6g}, {upper:.6g}]",
        )
    )
    checks.append(
        PackCheck(
            "grid_structure",
            bool(np.all(pack.centers[:, d] == r))
            and bool(np.all(pack.centers[:, d + 1 :] == 0.0)),
            f"count {pack.count} = grid {pack.grid_size}**{d}, offset axis at radius, trailing axes zero",
        )
    )
    return PackReport(checks=tuple(checks))


def density_floor(pack: SpherePack) -> float:
    """Lower bound on the sampling density: one over the total surface mass."""
    if pack.total_volume <= 0.0:
        raise ValueError("pack has no surface mass")
    return 1.0 / pack.total_volume


def _kept(pack: SpherePack, hypothesis: Hypothesis) -> int:
    """Spheres a choice ranges over: m, or m - 1 once a sphere is removed.

    Refuses an alternate index outside 1..m, and a deletion from a pack of
    one sphere, before any draw.
    """
    m = pack.count
    if hypothesis.kind == "alternate" and not 1 <= int(hypothesis.index) <= m:
        raise ValueError(f"alternate index {hypothesis.index} outside 1..{m}")
    if hypothesis.kind == "null":
        return m
    if m < 2:
        raise ValueError("deleting a sphere requires at least two spheres")
    return m - 1


def _draw_kept(
    pack: SpherePack, hypothesis: Hypothesis, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, int | None]:
    """Removed-index draw (mixture only), then n raw choices among the kept spheres.

    This is the leading segment of the sample() stream, and the reference
    for its order: the raw-word draw (_draw_words) must match it, and falls
    back to it, so that index-only consumers agree bitwise with full point
    synthesis.  Choices lie in [0, kept), kept = m, or m - 1 once a sphere
    is removed; Generator.integers calls on rng afterwards continue the
    same choices.  _sphere_labels turns them into sphere indices.
    """
    kept = _kept(pack, hypothesis)
    removed: int | None = None
    if hypothesis.kind == "alternate":
        removed = int(hypothesis.index)
    elif hypothesis.kind == "mixture":
        removed = int(rng.integers(1, pack.count + 1))
    return rng.integers(0, kept, size=n), removed


def _word_buffers(hypothesis: Hypothesis, n: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work arrays for _draw_words calls of up to rows trials of n choices: the raw Philox outputs, the
    choices and the removed indices, which hold the alternate's index throughout."""
    lead = int(hypothesis.kind == "mixture")
    return (
        np.zeros((rows, (lead + n + 1) // 2), dtype="<u8"),
        np.empty((rows, n), dtype="<u8"),
        np.full((rows, 1), hypothesis.index or 0, dtype="<u8"),
    )


def _draw_words(
    pack: SpherePack, hypothesis: Hypothesis, n: int, seeds: Sequence[int], rng: np.random.Generator | None,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray], gauss: np.ndarray | None = None,
) -> np.ndarray:
    """_draw_kept for each seed, read from raw Philox words; True on the rows that need the reference.

    buffers, from _word_buffers, hold at least len(seeds) rows of n choices.
    Each trial re-keys rng (see _keyed; a new generator when None) and makes
    one random_raw call, two 32-bit words an output, low half first: a
    mixture's removed index, then the choices, none when one sphere is kept,
    as numpy draws no word on a range of one.  Given gauss, each trial then
    fills its row with standard_normal, which never reads the half an odd
    word count leaves buffered, so these are sample's Gaussians.  One Lemire
    map (_lemire) a block gives the choices and a mixture's 1-based removed
    index, and flags a row with a word in a rejection zone, where numpy
    would draw again.  The word order, the map and the Gaussians that follow
    raw words are numpy internals, pinned by golden tests.
    """
    b = len(seeds)
    words, chosen, removed = buffers
    kept = _kept(pack, hypothesis)
    lead = int(hypothesis.kind == "mixture")
    outputs = (lead + (n if kept > 1 else 0) + 1) // 2
    for i, seed in enumerate(seeds):
        keyed = _keyed(seed, rng)
        words[i, :outputs] = keyed.bit_generator.random_raw(outputs)
        if gauss is not None:
            keyed.standard_normal(out=gauss[i])
    halves = words[:b].view("<u4")
    redo = _lemire(halves[:, lead : lead + n], kept, chosen[:b, :n])
    if lead:
        redo |= _lemire(halves[:, :1], pack.count, removed[:b])
        removed[:b] += np.uint64(1)
    return redo


def _in_zone(products: np.ndarray, bound: int) -> np.ndarray:
    """Rows of word * bound products that hold one Generator.integers would reject.

    numpy draws a word again when its product's low 32 bits fall below
    2**32 mod bound; those are the even halves of a little-endian uint64.
    """
    threshold = (1 << 32) % bound
    if not threshold:
        return np.zeros(len(products), dtype=bool)
    return products.view("<u4")[:, ::2].min(axis=1, initial=threshold) < threshold


def _lemire(words: np.ndarray, bound: int, out: np.ndarray) -> np.ndarray:
    """Map rows of 32-bit words onto [0, bound) into the '<u8' array out; True where a row needs a redraw.

    This is the map Generator.integers applies to each 32-bit word of a
    bounded draw below 2**32 (Lemire 2019): choice (word * bound) >> 32,
    unless the word falls in the rejection zone, where numpy draws again and
    every later word shifts.  With bound 1 numpy draws no word at all, and
    the map gives 0 from any word, so the choices agree.
    """
    np.multiply(words, np.uint64(bound), out=out, dtype=np.uint64)
    redraw = _in_zone(out, bound)
    np.right_shift(out, np.uint64(32), out=out)
    return redraw


def _sphere_labels(chosen: np.ndarray, removed: int | np.ndarray | None) -> np.ndarray:
    """0-based sphere index of each raw choice among the kept spheres.

    Index c of the m - 1 kept spheres names sphere c below the removed one
    and c + 1 from it on: np.delete(np.arange(m), removed - 1)[c].  A batch
    passes one removed index a row, as a column.
    """
    return chosen if removed is None else chosen + (chosen >= removed - 1)


def _check_sample_size(n: int, per_point: int) -> None:
    """Refuse a negative n, or one whose arrays hold more than _MAX_PACK_FLOATS values, before any draw."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if n * per_point > _MAX_PACK_FLOATS:
        raise ValueError(f"{n} points need {n * per_point} array values, above the limit of {_MAX_PACK_FLOATS}")


def _keyed(seed: int, rng: np.random.Generator | None = None) -> np.random.Generator:
    """A new generator on the Philox stream keyed by seed, or rng re-keyed to it.

    Counter 0, key [seed mod 2**64, 0] and an empty buffer are the state a
    fresh Philox(key=seed) starts in, so a re-keyed generator draws what
    a new one would.  Re-keying sets one state and allocates nothing, where
    a new generator builds a bit generator and a Generator around it.  So
    a count-test trial costs one re-key and one random_raw call of about
    n / 2 words, and an estimator trial in a batch one re-key and its
    random_raw and standard_normal calls.
    """
    if rng is None:
        return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(seed) & _MASK64, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sample_assignments(pack: SpherePack, hypothesis: Hypothesis, n: int, seed: int) -> np.ndarray:
    """0-based sphere choice per point, skipping point synthesis.

    Consumes the same leading stream state as sample() with equal
    arguments, so these choices match assign_points on the corresponding
    full SampleSet exactly (that one reports 1-based indices).  Meant for
    bulk runs where only per-sphere counts matter.  Refuses more than
    _MAX_PACK_FLOATS choices before drawing any.
    """
    _check_sample_size(n, 1)
    chosen, removed = _draw_kept(pack, hypothesis, n, _keyed(seed))
    return _sphere_labels(chosen, removed)


def sample(pack: SpherePack, hypothesis: Hypothesis, n: int, seed: int) -> SampleSet:
    """Draw n points i.i.d. and uniform on the pack under the hypothesis.

    Each point picks an allowed sphere uniformly and then a uniform
    position on it, via a normalised Gaussian in the d+1 varying
    coordinates scaled to the sphere radius.  Under "mixture" the deleted
    sphere is drawn once per call, before any point.  The generator is
    Philox keyed by the seed, so equal arguments give bitwise-equal
    output whatever else is running.  Refuses an n whose n * (d + 1 + D)
    floats exceed _MAX_PACK_FLOATS before drawing any.
    """
    points, removed = _sample_batch(pack, hypothesis, n, [seed], None)
    points = points[0]
    points.flags.writeable = False
    return SampleSet(
        points=points,
        hypothesis=hypothesis,
        realized_removed_index=None if removed is None else int(removed[0]),
        seed=int(seed),
    )


def _sample_batch(
    pack: SpherePack, hypothesis: Hypothesis, n: int, seeds: Sequence[int], rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """sample for each seed: the (len(seeds), n, D) points and, but under the null, the 1-based removed indices.

    Each trial draws from rng re-keyed to its seed (see _keyed), or from a
    new generator when rng is None.  After sample's checks, with its
    messages, each call allocates its own arrays: reusing them across an
    estimator side's batches measured no faster, while the count path keeps
    its _word_buffers a side, as allocating them per block measured slower
    at m = 1024.  One _draw_words call draws the batch's choices, removed indices and
    Gaussians, three generator calls a trial; the labels, the norms and the
    placement, with sample's arithmetic, are done once a batch.  A trial
    _draw_words flags, or with a Gaussian norm below _MIN_NORM, is drawn
    again by _sample_reference, so every row holds the bytes sample gives
    its seed.
    """
    d = pack.intrinsic_dim
    _check_sample_size(n, d + 1 + pack.ambient_dim)
    _kept(pack, hypothesis)
    b = len(seeds)
    words, chosen, removed = _word_buffers(hypothesis, n, b)
    gauss = np.empty((b, n, d + 1))
    points = np.zeros((b, n, pack.ambient_dim))  # coordinates past d + 1 stay zero
    redo = _draw_words(pack, hypothesis, n, seeds, rng, (words, chosen, removed), gauss)
    spheres = _sphere_labels(chosen.view("<i8"), None if hypothesis.kind == "null" else removed.view("<i8"))
    norms = np.linalg.norm(gauss, axis=-1)
    short = norms < _MIN_NORM
    redo |= short.any(axis=1)
    norms[short] = 1.0  # those trials are drawn again below; keeps the division finite
    # sample's centers + radius * gauss / norms, operand for operand; take gathers faster than indexing
    place = points[..., : d + 1]
    np.multiply(gauss, pack.radius, out=place)
    place /= norms[..., None]
    place += np.take(pack.centers[:, : d + 1], spheres, axis=0)
    for i in np.flatnonzero(redo).tolist():
        drawn = _sample_reference(pack, hypothesis, n, seeds[i], rng)
        points[i] = drawn.points
        if hypothesis.kind == "mixture":
            removed[i] = drawn.realized_removed_index
    return points, None if hypothesis.kind == "null" else removed[:, 0]


def _sample_reference(
    pack: SpherePack, hypothesis: Hypothesis, n: int, seed: int, rng: np.random.Generator | None
) -> SampleSet:
    """sample drawn through Generator calls, from rng re-keyed to seed, or from a new generator when rng is
    None: the reference _sample_batch must match, and falls back to."""
    d = pack.intrinsic_dim
    _check_sample_size(n, d + 1 + pack.ambient_dim)
    rng = _keyed(seed, rng)
    chosen, removed = _draw_kept(pack, hypothesis, n, rng)
    spheres = _sphere_labels(chosen, removed)
    gauss = rng.standard_normal((n, d + 1))
    norms = np.linalg.norm(gauss, axis=1)
    while np.any(norms < _MIN_NORM):  # essentially unreachable; keeps the map total
        redo = norms < _MIN_NORM
        gauss[redo] = rng.standard_normal((int(redo.sum()), d + 1))
        norms = np.linalg.norm(gauss, axis=1)
    points = np.zeros((n, pack.ambient_dim))
    points[:, : d + 1] = pack.centers[spheres, : d + 1] + pack.radius * gauss / norms[:, None]
    points.flags.writeable = False
    return SampleSet(
        points=points,
        hypothesis=hypothesis,
        realized_removed_index=removed,
        seed=int(seed),
    )


def assign_points(pack: SpherePack, points: np.ndarray) -> np.ndarray:
    """Nearest-center index (1-based) for each row of points.

    In a grid the nearest center is nearest on each axis, found among the
    midpoints of consecutive coordinates in O(n*D); ties take the lowest
    index.  Rows farther than radius/2 from every sphere surface, or with
    a NaN, are rejected: no plausible noise level puts them on the pack.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != pack.ambient_dim:
        raise ValueError(
            f"points have {pts.shape[1]} coordinates, pack is in dimension {pack.ambient_dim}"
        )
    nearest = _nearest(pack, pts)
    diffs = pts - pack.centers[nearest]
    surface_gap = np.abs(np.sqrt(np.einsum("ij,ij->i", diffs, diffs)) - pack.radius)
    bad = ~(surface_gap <= 0.5 * pack.radius)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"point {i} sits {surface_gap[i]:.6g} from the nearest sphere surface, "
            f"beyond the radius/2 tolerance {0.5 * pack.radius:.6g}"
        )
    return nearest + 1


def _nearest(pack: SpherePack, pts: np.ndarray) -> np.ndarray:
    """0-based index of the center nearest each row of pts on every axis of the grid, unchecked:
    assign_points' arithmetic, which the estimator's circle count reads too."""
    nearest = np.zeros(len(pts), dtype=int)
    for i, axis in enumerate(_axes(pack)):
        nearest = nearest * pack.grid_size + np.searchsorted(0.5 * (axis[:-1] + axis[1:]), pts[:, i])
    return nearest


def assign(pack: SpherePack, point) -> int:
    """1-based index of the sphere a single point belongs to."""
    return int(assign_points(pack, np.asarray(point, dtype=float)[None, :])[0])


def derive_seed(*parts: int) -> int:
    """Mix integer components into one 64-bit stream seed.

    Uses numpy's SeedSequence hash, which is stable across platforms, so
    (master, trial, stream) tuples map to fixed substream keys.
    """
    entropy = tuple(int(p) & _MASK64 for p in parts)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _derive_seeds(master: int, trials: np.ndarray, stream: int) -> np.ndarray:
    """derive_seed(master, t, stream) for each trial index t, as a uint64 array.

    SeedSequence's hash in uint32 lanes.  It reads a part mod 2**64 as one
    32-bit word below 2**32 and two from there on, so the master gives one
    or two words, the stream one and the trial indices (below 2**32) one
    lane: at most the four words of the pool, which is padded with zeros.
    A call costs about 140 array operations whatever its size: it pays for
    batches, and derive_seed stays the one-seed path and the reference.
    """
    master = int(master) & _MASK64
    fixed = [master & _MASK32, master >> 32] if master >> 32 else [master]
    # Fixed words as 1-element arrays: numpy scalars warn when uint32 products overflow.
    words = [np.array([w], dtype=np.uint32) for w in fixed]
    words += [np.asarray(trials).astype(np.uint32), np.array([stream], dtype=np.uint32)]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL - len(words))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    readout = _hashmix(_INIT_B, _MULT_B)
    low, high = (readout(value).astype(np.uint64) for value in pool[:2])
    return low | high << np.uint64(32)


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix: xor with a running constant, step it, multiply, fold."""

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return step


def save_points(path, points: np.ndarray) -> None:
    """Write one point per line as comma-separated decimals, no header."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", encoding="ascii") as fh:
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_points(path) -> np.ndarray:
    """Read a point file written by save_points (or by hand, same format)."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(f) for f in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"bad point on line {lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"no points in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows have inconsistent coordinate counts")
    out = np.asarray(rows, dtype=float)
    out.flags.writeable = False
    return out
