"""homrisk benchmark runner.

    python3 bench/run.py --workload {exact,mc_count,points} [--seed N]
                         [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.

Run from the repository root.  The package is imported from ./src, with
BLAS and OpenMP pinned to one thread.  It first times set-up
(a fresh interpreter importing the package and building the workload's
inputs) several times in child processes, then repeats passes over the
workload's operations until --seconds have gone, checking every output.

Every time reported is in reference seconds (see calibration.py),
which takes out the drift of a shared host: each operation and each
set-up runs between two runs of a reference kernel, and its wall time
is scaled by REFERENCE_S over the mean time of those two runs.  A span
takes the factor of the operation it ran in.  Unscaled times go to the
result file.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, as
medians over passes.  --trace 1 alternates untraced and traced passes
and reports the per-layer metrics instead: span times from the traced
passes, task timings from the untraced ones, and their ratio as the
tracing overhead.  Spans of the first traced pass (unscaled) and a
result file with the machine details go to bench/out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The exit code is 0 once a result is printed; without the
package source it is 2 and nothing is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
MIN_PASSES = 3  # untraced passes of a run without tracing
MIN_TRACE_PASSES = 2  # passes of each kind in a traced run

# A child process that imports the package and builds one workload's inputs.
SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_commit() -> str | None:
    # The ceiling keeps git from taking the commit of a repository that
    # merely contains this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def time_setup(workload: str, seed: int, outdir: Path) -> tuple[list[float], list[float]]:
    """Wall and reference-speed times of fresh child interpreters that set the workload up."""
    import calibration

    times, kernel_s = [], []
    for repeat in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), str(SRC),
                workload, str(seed), str(outdir / f"setup{repeat}")]
        kernel_s.append(calibration.time_kernel())
        start = time.perf_counter()
        # No timeout: waiting with one polls in sleeps of up to 50 ms,
        # which would round the measured time up.
        subprocess.run(argv, check=True, env=os.environ.copy(), stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    kernel_s.append(calibration.time_kernel())
    return times, [t * f for t, f in zip(times, calibration.scale_factors(kernel_s))]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def task_times(op_list, passes) -> dict[str, float]:
    """Medians over passes of the user-facing task timings, at reference speed."""
    def per_pass(task):
        return [p.ref_s([op for op in op_list if op.task == task]) for p in passes]

    trial_ops = [op for op in op_list if op.trials]
    trials = sum(op.trials for op in trial_ops)
    rates = [trials / p.ref_s(trial_ops) for p in passes] if trial_ops else [0.0]
    return {
        "exact_query_s": _median(per_pass("exact_query")),
        "scan_s": _median(per_pass("scan")),
        "trials_per_s": _median(rates),
        "homology_s": _median(per_pass("homology")),
        "pack_s": _median(per_pass("pack")),
    }


def end_to_end(op_list, passes, setup_times) -> dict[str, float]:
    """Medians over passes at reference speed; setup_times are at reference speed too."""
    def kind_time(kind):
        return _median([p.ref_s([op for op in op_list if op.kind == kind]) for p in passes])

    return {
        "wall_s": _median([p.ref_s(op_list) for p in passes]),
        "cli_s": kind_time("cli"),
        "api_s": kind_time("api"),
        "setup_s": _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    spec = load_spec()
    args = _parse(argv, spec)
    _pin_threads()
    if not (SRC / "homrisk" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'homrisk'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import homrisk

    if Path(homrisk.__file__).resolve().parent != (SRC / "homrisk").resolve():
        print(f"error: imported homrisk from {homrisk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_wall, setup_times = time_setup(args.workload, args.seed, run_dir)
    inputs = workloads.setup(args.workload, args.seed, run_dir)
    op_list = workloads.ops(args.workload)
    reference = workloads.load_reference().get("ops", {}).get(args.workload, {})

    plain, traced, layer_runs = [], [], []
    first_spans = None
    attempted, failures = 0, []
    first_digests: dict[str, str | None] = {}
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        if use_trace:
            tracer = tracing.Tracer()
            with tracer:
                p = workloads.run_pass(op_list, inputs, tracer)
            layer_runs.append(tracing.layer_metrics(tracer.spans, p.scales))
            if first_spans is None:
                first_spans = tracer.spans
            traced.append(p)
        else:
            p = workloads.run_pass(op_list, inputs)
            plain.append(p)
        for op in op_list:
            attempted += 1
            full, problems = workloads.evaluate(op, p, inputs, reference)
            first = first_digests.setdefault(op.name, full)
            if full != first:
                problems.append(f"digest {full} differs from the run's first pass {first}")
            if problems:
                mode = "traced" if use_trace else "untraced"
                failures.append(f"{op.name} ({mode} pass {len(plain) + len(traced)}): " + "; ".join(problems))
        p.raws.clear()
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACE_PASSES
        else:
            enough = len(plain) >= MIN_PASSES
        if enough and elapsed * (done + 1) / done > args.seconds:
            break

    if args.trace:
        # A function the workload never calls has no spans: it reads 0.
        keys = {key for run in layer_runs for key in run} | {m["name"] for m in wanted}
        metrics = {key: _median([run.get(key, 0.0) for run in layer_runs]) for key in keys}
        metrics.update(task_times(op_list, plain))
        metrics["trace.overhead"] = _median([p.ref_s(op_list) for p in traced]) / _median(
            [p.ref_s(op_list) for p in plain]
        )
        tracing.write_spans(first_spans, run_dir / "spans.csv")
    else:
        metrics = end_to_end(op_list, plain, setup_times)
        metrics.update(task_times(op_list, plain))

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "machine": machine_info(),
        "wall_s_unscaled": _median([p.wall_s for p in plain]),
        "pass_wall_s": [p.wall_s for p in plain],
        "op_times_s": {op.name: [p.times[op.name] for p in plain] for op in op_list},
        "pass_kernel_s": [p.kernel_s for p in plain],
        "setup_wall_s": setup_wall,
        "metrics": metrics,
        "failures": failures,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "trace", "passes", "machine")}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
