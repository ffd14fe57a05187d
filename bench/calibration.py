"""Reference kernel that puts benchmark times on a fixed speed scale.

The benchmark host shares its cores with other machines, and its speed
drifts by 20-40% over tens of seconds (measured on a 2-core Xeon VM:
the same pass took 2.0 s in one run and 3.1 s in another, all of it
user time).  Each operation is therefore run between two runs of this
kernel, and its time t is reported as t * REFERENCE_S / k, with k the
mean time of those two runs: seconds at the speed at which the kernel
takes REFERENCE_S.  The kernel mixes the
work homrisk does (interpreter loops, small numpy calls and generator
set-up, vector arithmetic, big integers) and never calls homrisk, so a
change to the package cannot move it.  Every array it makes is small,
so its time does not depend on where the allocator of a process that
has just freed large arrays places them.
"""
from __future__ import annotations

import time

import numpy as np

# Kernel time on a quiet 2-core Xeon VM (python 3.11.7, numpy 2.4.6):
# its 20th percentile over 200 calls.
REFERENCE_S = 0.014

_FLOATS = np.linspace(0.0, 1.0, 4_000)
_BIG = 3**4000


def kernel() -> int:
    acc = 0
    table = {}
    for i in range(10_000):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    for key in range(150):
        rng = np.random.Generator(np.random.Philox(key=key))
        acc += int(np.unique(rng.integers(0, 300, 300)).size)
    for _ in range(300):
        acc += int(np.sqrt(_FLOATS * _FLOATS + 1.0).sum())
    x = _BIG
    for _ in range(50):
        x = x * _BIG % (_BIG + 7)
    return acc + x % 2


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale_factors(kernel_s: list[float]) -> list[float]:
    """Factor from seconds to reference seconds for each interval between
    two consecutive kernel runs, from the mean of those two runs."""
    return [2.0 * REFERENCE_S / (before + after) for before, after in zip(kernel_s, kernel_s[1:])]
