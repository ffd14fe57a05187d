"""Record the reference output digests of every workload at the default seed.

    python3 bench/record.py

Runs one untraced pass of each workload, refuses to record if any
operation fails or breaks an invariant, checks the complexity scan
against a full scan of exact risks, and writes bench/reference.json.
Re-record only when a change is meant to alter the program's outputs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import homrisk  # noqa: E402
import workloads  # noqa: E402


def first_meeting_epsilon() -> int:
    for n in range(2001):
        if homrisk.exact_lrt_risk(workloads.COMPLEXITY_M, n).total <= workloads.COMPLEXITY_EPSILON:
            return n
    raise ValueError("no n up to 2000 meets epsilon")


def main() -> int:
    seed = workloads.DEFAULT_SEED
    recorded: dict[str, dict] = {}
    problems = []
    for workload in workloads.WORKLOADS:
        inputs = workloads.setup(workload, seed, BENCH_DIR / "out" / f"record-{workload}")
        op_list = workloads.ops(workload)
        p = workloads.run_pass(op_list, inputs)
        recorded[workload] = {}
        for op in op_list:
            if op.name in p.errors:
                problems.append(f"{workload}/{op.name}: {p.errors[op.name]}")
                continue
            outs = op.outputs(p.raws[op.name], inputs)
            problems += [f"{workload}/{op.name}: {msg}" for msg in op.check(outs, inputs)]
            recorded[workload][op.name] = {
                "all": workloads.digest(outs),
                "fixed": workloads.digest(outs, op.fixed),
            }
            if op.name == "cli.complexity":
                expected = f"n_epsilon={first_meeting_epsilon()}\n"
                if outs["stdout"] != expected:
                    problems.append(f"complexity printed {outs['stdout']!r}, full scan gives {expected!r}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = workloads.REFERENCE_PATH
    path.write_text(json.dumps({"seed": seed, "ops": recorded}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
