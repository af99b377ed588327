"""Machine-speed calibration: why the benchmark's host times are steady.

The sandbox this benchmark runs in changes speed under the program: for
seconds to minutes at a time everything — a pure-Python loop as much as
a workload op — runs 20-30 % slower, in CPU time as much as in wall
time, and then recovers. Ten runs of one commit gave interquartile
spreads of 10-25 % of the median on every latency and throughput metric,
whatever estimator was used (medians, low quantiles, best windows): the
slow periods outlast a run. The figures are in ``bench/README.md``.

What does cancel the drift is measuring the machine's speed right next
to the work. Between segments of the timed loop (about every 0.1 s) the
harness runs a ~2 ms burst of fixed work — an interpreter loop and a few
NumPy bit operations on 256 KiB arrays, the two things the stack's host
time is made of — and divides each op's wall time by how much slower
than a fixed reference the bursts around it ran. Reported host times are
therefore *milliseconds at the reference speed*, and the same commit
reads the same to within a few percent (2-8 % interquartile on the
workloads above). The raw median and the slowdown factor are reported
beside them (``e2e.raw_call_ms_p50``, ``e2e.machine_slowdown_x``).

The calibration work is independent of the code under test, so a change
to the stack cannot move it; it only rescales both sides of a
comparison by the speed the machine had at that moment.
"""

from __future__ import annotations

from math import sqrt
from time import perf_counter

import numpy as np

#: Seconds the two halves of a burst take at the reference speed: what
#: they took between workload segments on the sandbox this benchmark was
#: written on, in its fast periods. Only ratios between runs matter;
#: these fix the unit.
REFERENCE_LOOP_S = 0.8e-3
REFERENCE_NUMPY_S = 0.68e-3

_A = np.arange(1 << 16, dtype=np.uint32)
_B = _A[::-1].copy()


def slowdown() -> float:
    """Run one calibration burst; how many times slower than the
    reference the machine is right now (geometric mean of both halves)."""
    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFF
    middle = perf_counter()
    for _ in range(16):
        c = ~(_A | _B)
        c = c & _A
    end = perf_counter()
    return sqrt(
        (middle - start) / REFERENCE_LOOP_S * (end - middle) / REFERENCE_NUMPY_S
    )
