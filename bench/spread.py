"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 bench/spread.py --workload exact --workload points --runs 10
                            [--first-seed 1] [--out bench/out/spread.json]

Runs bench/run.py once per seed, one run at a time, untraced and for
run_seconds of BENCHMARK.json.  For every end-to-end metric it prints
the median of the runs and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median.  That
share is what each end-to-end bound in BENCHMARK.json has to cover.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict[str, dict]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to take quartiles")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {}
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): "
                  f"correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = summarize(results)
        report[workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "all_correct": all(r["correct"] for r in results),
            "metrics": summary,
        }
        for name, s in summary.items():
            print(f"  {workload:9s} {name:14s} median {s['median']:.4g}  IQR/median {s['spread']:.4f}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
