"""Workloads of the homrisk benchmark: seeded inputs, timed operations, output checks.

A workload is a fixed list of operations.  Each operation is one call a
user makes, either a README command through ``cli.main`` ("cli") or a
direct library call ("api").  Its raw result is turned into named
outputs after the timed region; the outputs are digested and compared
with references recorded for the default seed, and checked against
invariants that hold on every seed.

Library calls go through attribute lookups on ``homrisk`` and
``homrisk.cli`` at call time, so a tracer that rebinds those names sees
every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

import calibration
import homrisk
from homrisk import cli

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A Monte Carlo rate may sit this many standard errors from its exact value.
SE_BAND = 4.0

# (regime, m, n) of the isolated exact queries.  "small" runs the
# exact-integer route, "past_threshold" the log series (n >= m ln m) and
# "below_threshold" the throw recurrence.
EXACT_CASES = (
    ("small", 64, 311),
    ("small", 256, 1500),
    ("past_threshold", 1000, 7601),
    ("past_threshold", 4096, 36909),
    ("below_threshold", 2000, 10000),
)
COMPLEXITY_ARGV = "complexity --d 1 --D 2 --tau 0.00390625 --epsilon 0.25 --n-max 2000"
COMPLEXITY_M, COMPLEXITY_EPSILON = 64, 0.25

MC_TRIALS = 5000  # per side, README risk-mc pair at m=64, n=311
MC_M, MC_N = 64, 311
BIG_MC = (1, 2, 1 / 4096, 7808, 800)  # d, D, tau, n, trials: m=1024 at its delta=1/2 threshold
SWEEP_SIZES = tuple(range(200, 601, 25))
SWEEP_TRIALS = 200

ESTIMATOR = (1, 2, 1 / 16, 200, 200)  # d, D, tau, n, trials on the README m=4 pack


def derive(seed: int, label: str) -> int:
    """Master seed or cloud seed for one input, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class Op:
    """One timed user call and how to judge what it returned.

    run takes the workload inputs and returns the raw result (timed);
    outputs turns that into named values (untimed); check returns the
    invariants the outputs break.  fixed names the outputs that do not
    depend on the seed (None: all of them), whose digest is compared with
    the reference on every seed.
    """

    name: str
    kind: str  # "cli" or "api"
    run: Callable[[dict], Any]
    outputs: Callable[[Any, dict], dict[str, Any]]
    check: Callable[[dict[str, Any], dict], list[str]]
    fixed: tuple[str, ...] | None = None
    task: str | None = None  # exact_query, scan, trials, homology, pack
    case: str = ""  # span label; the regime for exact queries
    trials: int = 0  # Monte Carlo trials on both sides

    @property
    def label(self) -> str:
        return self.case or self.name


# ---------------------------------------------------------------- digests


def _canon(value) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return repr(float(value)).encode()
    if value is None:
        return b"None"
    if isinstance(value, np.ndarray):
        return str(value.shape).encode() + value.astype(float).tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_canon(v) for v in value) + b")"
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(outs: dict[str, Any], keys=None) -> str:
    """Hash of the named outputs: float reprs, stdout and file bytes."""
    h = hashlib.sha256()
    for key in sorted(outs if keys is None else keys):
        h.update(key.encode() + b"=" + _canon(outs[key]) + b"\n")
    return h.hexdigest()[:20]


def _fields(obj) -> dict[str, Any]:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


# ---------------------------------------------------------------- helpers


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_outputs(raw, inputs) -> dict[str, Any]:
    rc, stdout = raw
    return {"rc": rc, "stdout": stdout}


def _kv(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line and not line.startswith("#"))


def _rc_ok(outs) -> list[str]:
    return [] if outs["rc"] == 0 else [f"exit code {outs['rc']}"]


def _within_se(name: str, hat: float, exact: float, trials: int) -> list[str]:
    se = math.sqrt(exact * (1.0 - exact) / trials)
    if abs(hat - exact) <= SE_BAND * se:
        return []
    return [f"{name} {hat!r} is more than {SE_BAND:g} SE ({se:.3g}) from exact {exact!r}"]


def _risk_within_se(hat1, hat2, exact1, exact2, trials) -> list[str]:
    return _within_se("type I", hat1, exact1, trials) + _within_se("type II", hat2, exact2, trials)


def _rates_ok(outs, keys) -> list[str]:
    return [f"{k}={outs[k]!r} outside [0, 1]" for k in keys if not 0.0 <= float(outs[k]) <= 1.0]


# ---------------------------------------------------------------- exact


def _risk_check(outs, inputs) -> list[str]:
    problems = _rates_ok(outs, ("type_I", "type_II"))
    if outs["total"] != outs["type_I"] + outs["type_II"]:
        problems.append("total differs from type_I + type_II")
    return problems


def _prob_check(outs, inputs) -> list[str]:
    return _rates_ok(outs, ("p",))


def _complexity_check(outs, inputs) -> list[str]:
    problems = _rc_ok(outs)
    n = int(_kv(outs["stdout"])["n_epsilon"])
    # The scan answers the first n with exact risk <= epsilon; the answer
    # must meet the target and its predecessor must miss it.  record.py
    # checks the whole scan once when it records the reference.
    if homrisk.exact_lrt_risk(COMPLEXITY_M, n).total > COMPLEXITY_EPSILON:
        problems.append(f"risk at n_epsilon={n} exceeds epsilon")
    if n > 0 and homrisk.exact_lrt_risk(COMPLEXITY_M, n - 1).total <= COMPLEXITY_EPSILON:
        problems.append(f"n={n - 1} already meets epsilon")
    return problems


def _exact_ops() -> list[Op]:
    ops = []
    for regime, m, n in EXACT_CASES:
        ops.append(Op(
            f"exact_lrt_risk.m{m}.n{n}", "api",
            run=lambda inputs, m=m, n=n: homrisk.exact_lrt_risk(m, n),
            outputs=lambda raw, inputs: _fields(raw),
            check=_risk_check, task="exact_query", case=regime,
        ))
        ops.append(Op(
            f"prob_all_occupied.m{m}.n{n}", "api",
            run=lambda inputs, m=m, n=n: homrisk.prob_all_occupied(m, n),
            outputs=lambda raw, inputs: {"p": raw},
            check=_prob_check, task="exact_query", case=regime,
        ))
    ops.append(Op(
        "cli.risk-exact", "cli",
        run=lambda inputs: _cli("risk-exact --m 64 --n 311".split()),
        outputs=_cli_outputs, check=lambda outs, inputs: _rc_ok(outs),
        task="exact_query", case="small",
    ))
    ops.append(Op(
        "cli.coupon", "cli",
        run=lambda inputs: _cli("coupon --exact --m 64 --n 311".split()),
        outputs=_cli_outputs, check=lambda outs, inputs: _rc_ok(outs),
        task="exact_query", case="small",
    ))
    ops.append(Op(
        "cli.complexity", "cli",
        run=lambda inputs: _cli(COMPLEXITY_ARGV.split()),
        outputs=_cli_outputs, check=_complexity_check, task="scan", case="scan",
    ))
    return ops


# ---------------------------------------------------------------- mc_count


def _risk_mc_argv(test: str, seed: int) -> list[str]:
    return (
        f"risk-mc --d 1 --D 2 --tau 0.00390625 --n {MC_N} --trials {MC_TRIALS} "
        f"--seed {seed} --test {test}"
    ).split()


def _risk_mc_outputs(raw, inputs) -> dict[str, Any]:
    rc, stdout = raw
    exact = "".join(line + "\n" for line in stdout.splitlines() if line.startswith("exact_"))
    return {"rc": rc, "stdout": stdout, "exact": exact}


def _risk_mc_lrt_check(outs, inputs) -> list[str]:
    kv = _kv(outs["stdout"])
    return _rc_ok(outs) + _risk_within_se(
        float(kv["type_I_hat"]), float(kv["type_II_hat"]),
        float(kv["exact_type_I"]), float(kv["exact_type_II"]), MC_TRIALS,
    )


def _risk_mc_occupancy_check(outs, inputs) -> list[str]:
    # The occupancy test rejects whenever a sphere is empty: type I is the
    # miss probability, and a deletion always leaves one sphere empty.
    kv = _kv(outs["stdout"])
    miss = 1.0 - homrisk.prob_all_occupied(MC_M, MC_N)
    return _rc_ok(outs) + _risk_within_se(
        float(kv["type_I_hat"]), float(kv["type_II_hat"]), miss, 0.0, MC_TRIALS,
    )


def _big_mc_run(inputs):
    d, big_d, tau, n, trials = BIG_MC
    config = homrisk.TrialConfig(d, big_d, tau, n, trials, inputs["seeds"]["mc_risk.m1024"])
    return homrisk.mc_risk(config)


def _big_mc_check(outs, inputs) -> list[str]:
    return _risk_within_se(
        outs["type_I_hat"], outs["type_II_hat"], outs["exact_type_I"], outs["exact_type_II"], outs["trials"]
    )


def _sweep_argv(inputs) -> list[str]:
    return (
        "sweep --d 1 --D 2 --tau 0.00390625 --n-min 200 --n-max 600 --n-step 25 "
        f"--trials {SWEEP_TRIALS} --seed {inputs['seeds']['cli.sweep']} --test lrt --delta 0.5"
    ).split() + ["--out", str(inputs["csv"])]


# CSV columns that do not depend on the seed.
_SWEEP_FIXED_COLUMNS = (0, 1, 2, 3, 4, 5, 6, 11, 12, 13, 14)


def _sweep_outputs(raw, inputs) -> dict[str, Any]:
    rc, stdout = raw
    data = Path(inputs["csv"]).read_bytes()
    rows = [line.split(",") for line in data.decode().splitlines()]
    fixed = "".join(",".join(row[i] for i in _SWEEP_FIXED_COLUMNS) + "\n" for row in rows)
    return {
        "rc": rc,
        "stdout": stdout.replace(str(inputs["csv"]), "<out>"),
        "csv": data,
        "exact_columns": fixed,
    }


def _sweep_check(outs, inputs) -> list[str]:
    problems = _rc_ok(outs)
    lines = outs["csv"].decode().splitlines()
    if lines[0] != homrisk.CSV_HEADER:
        problems.append("sweep CSV header changed")
    rows = [line.split(",") for line in lines[1:]]
    if tuple(int(row[1]) for row in rows) != SWEEP_SIZES:
        problems.append(f"sweep wrote {len(rows)} rows, not the sizes {SWEEP_SIZES[0]}..{SWEEP_SIZES[-1]}")
    for row in rows:
        if not all(0.0 <= float(v) <= 1.0 for v in (row[7], row[8])):
            problems.append(f"sweep row n={row[1]} has a rate outside [0, 1]")
    return problems


def _mc_count_ops() -> list[Op]:
    return [
        Op(
            "cli.risk-mc.lrt", "cli",
            run=lambda inputs: _cli(_risk_mc_argv("lrt", inputs["seeds"]["cli.risk-mc.lrt"])),
            outputs=_risk_mc_outputs, check=_risk_mc_lrt_check, fixed=("rc", "exact"),
            task="trials", trials=2 * MC_TRIALS,
        ),
        Op(
            "cli.risk-mc.occupancy", "cli",
            run=lambda inputs: _cli(_risk_mc_argv("occupancy", inputs["seeds"]["cli.risk-mc.occupancy"])),
            outputs=_risk_mc_outputs, check=_risk_mc_occupancy_check, fixed=("rc", "exact"),
            task="trials", trials=2 * MC_TRIALS,
        ),
        Op(
            "mc_risk.m1024", "api",
            run=_big_mc_run,
            outputs=lambda raw, inputs: _fields(raw),
            check=_big_mc_check, fixed=("exact_type_I", "exact_type_II", "trials"),
            task="trials", trials=2 * BIG_MC[4],
        ),
        Op(
            "cli.sweep", "cli",
            run=lambda inputs: _cli(_sweep_argv(inputs)),
            outputs=_sweep_outputs, check=_sweep_check, fixed=("rc", "stdout", "exact_columns"),
            task="trials", trials=2 * SWEEP_TRIALS * len(SWEEP_SIZES),
        ),
    ]


# ---------------------------------------------------------------- points


def _pack_check(outs, inputs) -> list[str]:
    problems = _rc_ok(outs)
    if "m=4096\n" not in outs["stdout"] or ": FAIL" in outs["stdout"]:
        problems.append("pack report lost m=4096 or failed a check")
    return problems


def _sample_lr_run(inputs):
    samples = homrisk.sample(inputs["big_pack"], homrisk.Hypothesis.mixture(), 2000, inputs["seeds"]["sample"])
    return samples, homrisk.likelihood_ratio(inputs["big_pack"], samples)


def _sample_lr_outputs(raw, inputs) -> dict[str, Any]:
    samples, report = raw
    outs = _fields(report)
    outs["points"] = samples.points
    outs["removed"] = samples.realized_removed_index
    return outs


def _sample_lr_check(outs, inputs) -> list[str]:
    # sample_assignments shares the stream prefix of sample(), so it gives
    # the empty count without the nearest-centre search.
    pack = inputs["big_pack"]
    spheres = homrisk.sample_assignments(pack, homrisk.Hypothesis.mixture(), 2000, inputs["seeds"]["sample"])
    problems = []
    k = pack.count - int(np.unique(spheres).size)
    if outs["empty_count"] != k:
        problems.append(f"empty count {outs['empty_count']} differs from the assignments' {k}")
    closed = homrisk.likelihood_ratio_closed_form(pack.count, 2000, k)
    if not math.isclose(outs["ratio_L"], closed, rel_tol=1e-9):
        problems.append(f"ratio {outs['ratio_L']!r} differs from the closed form {closed!r}")
    return problems


def _estimator_run(inputs):
    d, big_d, tau, n, trials = ESTIMATOR
    config = homrisk.TrialConfig(
        d, big_d, tau, n, trials, inputs["seeds"]["mc_risk.estimator"], test_kind="estimator", scale=tau
    )
    return homrisk.mc_risk(config)


def _estimator_check(outs, inputs) -> list[str]:
    problems = _rates_ok(outs, ("type_I_hat", "type_II_hat"))
    if outs["trials"] != ESTIMATOR[4] or outs["exact_type_I"] is not None:
        problems.append("estimator batch reports wrong trials or an exact companion")
    return problems


def _rips_betti_run(inputs):
    complex_ = homrisk.rips(inputs["cloud600"], 1 / 8, 2)
    return complex_.simplex_counts, homrisk.betti(complex_)


def _rips_betti_check(outs, inputs) -> list[str]:
    problems = []
    if outs["betti"][0] != 4:
        problems.append(f"betti_0={outs['betti'][0]} on a null cloud of the m=4 pack")
    alternating = sum(c if q % 2 == 0 else -c for q, c in enumerate(outs["simplices"]))
    if outs["euler"] != alternating or sum(b if q % 2 == 0 else -b for q, b in enumerate(outs["betti"])) != alternating:
        problems.append("Euler characteristic disagrees with simplex or Betti counts")
    return problems


def _homology_cli_check(outs, inputs) -> list[str]:
    problems = _rc_ok(outs)
    if _kv(outs["stdout"]).get("betti_0") != "4":
        problems.append("homology command did not find the 4 circles of the null cloud")
    return problems


def _points_ops() -> list[Op]:
    return [
        Op(
            "cli.pack", "cli",
            run=lambda inputs: _cli("pack --d 2 --D 3 --tau 0.00390625".split()),
            outputs=_cli_outputs, check=_pack_check, task="pack",
        ),
        Op(
            "sample.likelihood_ratio", "api",
            run=_sample_lr_run, outputs=_sample_lr_outputs, check=_sample_lr_check, fixed=(),
        ),
        Op(
            "mc_risk.estimator", "api",
            run=_estimator_run, outputs=lambda raw, inputs: _fields(raw),
            check=_estimator_check, fixed=("trials", "exact_type_I", "exact_type_II"),
            task="trials", trials=2 * ESTIMATOR[4],
        ),
        Op(
            "rips.betti", "api",
            run=_rips_betti_run,
            outputs=lambda raw, inputs: {
                "simplices": raw[0], "betti": raw[1].betti, "euler": raw[1].euler_characteristic,
            },
            check=_rips_betti_check, fixed=(), task="homology",
        ),
        Op(
            "cli.homology", "cli",
            run=lambda inputs: _cli(
                ["homology", "--input", str(inputs["points_file"]), "--scale", "0.0625", "--max-dim", "2"]
            ),
            outputs=_cli_outputs, check=_homology_cli_check, fixed=("rc",), task="homology",
        ),
        Op(
            "betti0_linkage", "api",
            run=lambda inputs: homrisk.betti0_linkage(inputs["cloud4000"], 1 / 8),
            outputs=lambda raw, inputs: _fields(raw),
            check=lambda outs, inputs: [] if outs["cluster_count"] == 4 else [
                f"{outs['cluster_count']} clusters on a null cloud of the m=4 pack"
            ],
            fixed=("threshold",), task="homology",
        ),
    ]


OPS: dict[str, Callable[[], list[Op]]] = {
    "exact": _exact_ops,
    "mc_count": _mc_count_ops,
    "points": _points_ops,
}
WORKLOADS = tuple(OPS)


def ops(workload: str) -> list[Op]:
    return OPS[workload]()


def setup(workload: str, seed: int, outdir) -> dict:
    """Build the packs, point clouds and files one workload reads."""
    if workload not in OPS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, Any] = {"seed": seed, "seeds": {op.name: derive(seed, op.name) for op in ops(workload)}}
    if workload == "mc_count":
        inputs["csv"] = outdir / "sweep.csv"
    elif workload == "points":
        null = homrisk.Hypothesis.null()
        inputs["seeds"]["sample"] = derive(seed, "sample")
        inputs["big_pack"] = homrisk.build_pack(2, 3, 1 / 256)
        four = homrisk.build_pack(2, 3, 1 / 8)
        inputs["cloud600"] = homrisk.sample(four, null, 600, derive(seed, "cloud600")).points
        inputs["cloud4000"] = homrisk.sample(four, null, 4000, derive(seed, "cloud4000")).points
        circles = homrisk.build_pack(1, 2, 1 / 16)
        inputs["points_file"] = outdir / "points.csv"
        homrisk.save_points(inputs["points_file"], homrisk.sample(circles, null, 400, derive(seed, "circles")).points)
    return inputs


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    """One run of every operation of a workload, in order.

    times are wall seconds, in the order the operations ran; kernel_s
    are the times of the reference kernel (see calibration.py) run before
    each operation and once after the last, so each operation sits
    between two of them.
    """

    times: dict[str, float]
    kernel_s: list[float]
    raws: dict[str, Any]
    errors: dict[str, str]

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    @property
    def scales(self) -> dict[str, float]:
        """Per operation, the factor from seconds to reference seconds,
        from the mean of the two kernel runs around it."""
        return dict(zip(self.times, calibration.scale_factors(self.kernel_s)))

    def ref_s(self, ops) -> float:
        """Reference seconds spent in the given operations."""
        scales = self.scales
        return sum(self.times[op.name] * scales[op.name] for op in ops)


def run_pass(op_list: list[Op], inputs: dict, tracer=None) -> Pass:
    """Run each operation once, with the reference kernel before each and after the last.

    With a tracer, spans are labelled by the operation's name and case.
    """
    times, kernel_s, raws, errors = {}, [], {}, {}
    clock = time.perf_counter
    for op in op_list:
        kernel_s.append(calibration.time_kernel())
        if tracer is not None:
            tracer.op, tracer.case = op.name, op.label
        t0 = clock()
        try:
            raws[op.name] = op.run(inputs)
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        times[op.name] = clock() - t0
    kernel_s.append(calibration.time_kernel())
    return Pass(times, kernel_s, raws, errors)


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def evaluate(op: Op, p: Pass, inputs: dict, reference: dict) -> tuple[str | None, list[str]]:
    """Digest of one operation's outputs in a pass, and what is wrong with them.

    The reference maps an operation name to its digests at the default
    seed: "all" over every output, "fixed" over the seed-free ones.
    """
    if op.name in p.errors:
        return None, [p.errors[op.name]]
    try:
        outs = op.outputs(p.raws[op.name], inputs)
        full = digest(outs)
        fixed = digest(outs, op.fixed)
        problems = op.check(outs, inputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [f"unreadable output: {type(exc).__name__}: {exc}"]
    ref = reference.get(op.name)
    if ref is None:
        problems.append("no reference digest recorded")
    else:
        if fixed != ref["fixed"]:
            problems.append(f"seed-free outputs digest {fixed} differs from reference {ref['fixed']}")
        if inputs["seed"] == DEFAULT_SEED and full != ref["all"]:
            problems.append(f"outputs digest {full} differs from reference {ref['all']}")
    return full, problems
