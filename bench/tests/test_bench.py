"""Self-tests of the benchmark: tracer hygiene, trace-invariant outputs, metric names.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import homrisk  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 2  # not the default seed, so only seed-free digests meet the reference


def bindings() -> dict[tuple[str, str], object]:
    return {(m.__name__, attr): obj for m in tracing.package_modules() for attr, obj in vars(m).items()}


def test_tracer_restores_every_binding():
    before = bindings()
    with tracing.Tracer():
        during = bindings()
    after = bindings()
    assert during.keys() == before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)
    rebound = {key for key in before if during[key] is not before[key]}
    # Names imported from another module are rebound where they are used.
    for key in [
        ("homrisk", "mc_risk"),
        ("homrisk.cli", "main"),
        ("homrisk.harness", "derive_seed"),
        ("homrisk.harness", "homology_estimator"),
        ("homrisk.lrt", "empty_count_distribution"),
        ("homrisk.occupancy", "assign_points"),
    ]:
        assert key in rebound
    assert not any(attr.startswith("_") for _, attr in rebound)


def test_tracer_restores_bindings_and_counts_errors_after_a_raise():
    before = bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError), tracer:
        homrisk.build_pack(0, 1, 0.1)
    after = bindings()
    assert all(after[key] is before[key] for key in before)
    assert tracing.layer_metrics(tracer.spans)["geometry.errors"] == 1


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def both_passes(request, tmp_path_factory):
    name = request.param
    inputs = workloads.setup(name, SEED, tmp_path_factory.mktemp(name))
    op_list = workloads.ops(name)
    plain = workloads.run_pass(op_list, inputs)
    tracer = tracing.Tracer()
    with tracer:
        traced = workloads.run_pass(op_list, inputs, tracer)
    return name, op_list, inputs, plain, traced, tracer.spans


def test_traced_and_untraced_outputs_are_identical(both_passes):
    name, op_list, inputs, plain, traced, _ = both_passes
    reference = workloads.load_reference()["ops"][name]
    for op in op_list:
        digest_plain, problems_plain = workloads.evaluate(op, plain, inputs, reference)
        digest_traced, problems_traced = workloads.evaluate(op, traced, inputs, reference)
        assert problems_plain == [] and problems_traced == [], op.name
        assert digest_plain == digest_traced, op.name


def test_self_times_fit_in_traced_wall(both_passes):
    _, _, _, _, traced, spans = both_passes
    layers = tracing.layer_metrics(spans)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= traced.wall_s


def test_metrics_of_a_pass_have_valid_names(both_passes):
    _, op_list, _, plain, _, spans = both_passes
    names = list(tracing.layer_metrics(spans)) + list(run.task_times(op_list, [plain]))
    names += list(run.end_to_end(op_list, [plain], [1.0]))
    assert all(NAME.fullmatch(n) for n in names)


def test_benchmark_metric_names_are_valid_and_produced():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(end_to_end) == set(run.end_to_end([], [workloads.Pass({}, [1.0], {}, {})], [1.0]))
    # Every per-layer name is one the traced run can produce, so a typo
    # cannot hide behind the zero that an uncalled function reads.
    producible = set(tracing.layer_metrics([])) | set(run.task_times([], [])) | {"trace.overhead"}
    labels = {op.label for name in workloads.WORKLOADS for op in workloads.ops(name)}
    producible |= {f"occupancy.{metric}.{label}" for metric in ("law_s", "law_support_frac") for label in labels}
    for _, name in tracing.public_functions().values():
        producible |= {f"{name}.s", f"{name}.self_s", f"{name}.calls"}
    assert set(per_layer) <= producible


def test_span_times_take_the_scale_of_their_operation():
    # (name, start, end, parent, op, case, error, extra)
    spans = [
        ("geometry.f", 0.0, 2.0, -1, "op1", "c", False, None),
        ("geometry.g", 0.5, 1.5, 0, "op1", "c", False, None),
        ("geometry.f", 3.0, 4.0, -1, "op2", "c", False, None),
    ]
    layers = tracing.layer_metrics(spans, {"op1": 0.5, "op2": 2.0})
    assert layers["geometry.f.s"] == pytest.approx(2.0 * 0.5 + 1.0 * 2.0)
    assert layers["geometry.f.self_s"] == pytest.approx(1.0 * 0.5 + 1.0 * 2.0)
    assert layers["geometry.g.s"] == pytest.approx(0.5)


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
