"""Host-speed reference for timings on a shared machine.

On a shared host other tenants slow the CPU for minutes at a time, by up
to ~1.6x, and a wall time taken in a slow stretch says more about the
neighbours than about bhsim.  The benchmark therefore brackets each timed
piece of work with ``reference_seconds()``, a fixed workload of the same
kind as bhsim's (dataclass copies, float math, dict stores, 4x4 numpy
algebra) that no bhsim change can touch, and scales the wall time by
``REF_S / reference``: the time the work would take at reference speed.
The raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

# reference_seconds() on the 2-core Xeon host the benchmark was tuned on,
# when nothing else ran on it; scaled times read as wall times there.
REF_S = 0.0045


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _reference_work() -> float:
    acc = 0.0
    p = _Point(0.0, 1.0)
    table: dict[int, float] = {}
    m = np.eye(4) * 2.0
    for i in range(1300):
        p = replace(p, x=p.x + 0.5)
        acc += math.hypot(p.x, p.y)
        table[i % 61] = acc
        if i % 4 == 0:
            acc += float((np.linalg.inv(m) @ m)[0, 0])
    return acc


def reference_seconds() -> float:
    """Median of three timings of the reference workload (~5 ms each)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
