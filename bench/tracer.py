"""Spans around calls into homrisk's public functions, recorded from outside.

install() wraps every public function defined in a homrisk module and
rebinds it at every module attribute that holds it, found by object
identity; modules that import names directly (harness.derive_seed,
lrt.empty_count_distribution, occupancy.assign_points, ...) are covered
the same way as qualified calls.  remove() puts the original objects
back.  Spans stay in memory as tuples until the caller writes them out.
Each span carries the benchmark operation it ran in, so its time can be
put on the reference scale of that operation (see calibration.py).
"""
from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

PACKAGE = "homrisk"
LAYERS = ("geometry", "occupancy", "lrt", "homology", "harness", "cli")

# Fields of a span tuple.
NAME, START, END, PARENT, OP, CASE, ERROR, EXTRA = range(8)

# Law entries below this carry no mass a float risk can see.
SUPPORT_FLOOR = 1e-18


def package_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions() -> dict[int, tuple[types.FunctionType, str]]:
    """Each public function of a layer module, by identity, with its span name."""
    found = {}
    for module in package_modules():
        for obj in vars(module).values():
            if (
                isinstance(obj, types.FunctionType)
                and not obj.__name__.startswith("_")
                and obj.__module__.startswith(PACKAGE + ".")
            ):
                layer = obj.__module__.rsplit(".", 1)[1]
                found[id(obj)] = (obj, f"{layer}.{obj.__name__}")
    return found


def _law_extra(law) -> tuple[int, int]:
    probs = law.probs
    return int(probs.size), int((probs >= SUPPORT_FLOOR).sum())


def _rips_extra(complex_) -> int:
    return int(sum(complex_.simplex_counts))


# Work counts read off a function's result after its span has ended.
HOOKS = {
    "occupancy.empty_count_distribution": _law_extra,
    "homology.rips": _rips_extra,
}


class Tracer:
    """Records (name, start, end, parent, op, case, error, extra) per traced call.

    op (the operation's name) and case (its label) are set by the caller
    before each operation; parent is the index of the enclosing span, or
    -1.  Use as a context manager around the calls to trace.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = ""
        self.case = ""
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {key: (fn, self._wrap(fn, name)) for key, (fn, name) in public_functions().items()}
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def remove(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, self.case, error, None)
            if hook is not None:
                spans[index] = (name, start, end, parent, self.op, self.case, error, hook(result))
            return result

        return traced


def layer_metrics(spans: list[tuple], scales: dict[str, float] | None = None) -> dict[str, float]:
    """Per-function inclusive and self time, call counts and work counts.

    Self time is a span's duration minus that of its direct children.
    Inclusive time sums only the outermost span of a name, so recursion
    is not counted twice.  With scales (operation name -> factor, as
    Pass.scales gives them), each duration is multiplied by the factor
    of the operation it ran in.  Law support is given over all laws and
    per case label.
    """
    durations = [(span[END] - span[START]) * (scales[span[OP]] if scales else 1.0) for span in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += duration

    def has_ancestor(index: int, name: str) -> bool:
        parent = spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    out: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.errors"] = 0
    laws = entries = support = 0
    case_entries: dict[str, int] = defaultdict(int)
    case_support: dict[str, int] = defaultdict(int)
    scans = scan_laws = simplices = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = durations[index]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration - child_time[index]
        if not has_ancestor(index, name):
            out[f"{name}.s"] += duration
        if span[ERROR]:
            out[f"{name.split('.', 1)[0]}.errors"] += 1
        if name == "occupancy.empty_count_distribution":
            out[f"occupancy.law_s.{span[CASE]}"] += duration
            laws += 1
            entries += span[EXTRA][0]
            support += span[EXTRA][1]
            case_entries[span[CASE]] += span[EXTRA][0]
            case_support[span[CASE]] += span[EXTRA][1]
            if has_ancestor(index, "harness.sample_complexity"):
                scan_laws += 1
        elif name == "harness.sample_complexity":
            scans += 1
        elif name == "homology.rips":
            simplices += span[EXTRA]
    out["occupancy.laws"] = laws
    out["occupancy.law_entries"] = entries
    out["occupancy.law_support_frac"] = support / entries if entries else 0.0
    for case, count in case_entries.items():
        out[f"occupancy.law_support_frac.{case}"] = case_support[case] / count
    out["harness.sample_complexity.laws_per_answer"] = scan_laws / scans if scans else 0.0
    out["harness.trials"] = out["harness.trial_seed.calls"]
    out["homology.simplices"] = simplices
    out["trace.spans"] = len(spans)
    return dict(out)


def write_spans(spans: list[tuple], path: Path) -> None:
    """One CSV line per span; times in seconds from the first span's start."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,name,start_s,end_s,parent,op,case,error\n")
        for index, span in enumerate(spans):
            fh.write(
                f"{index},{span[NAME]},{span[START] - origin:.9f},{span[END] - origin:.9f},"
                f"{span[PARENT]},{span[OP]},{span[CASE]},{int(span[ERROR])}\n"
            )
