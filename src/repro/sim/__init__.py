"""Bit-accurate, cycle-accurate digital PIM simulator (Section VI).

The simulator is a drop-in replacement for a physical PIM chip: its only
interface is the micro-operation stream produced by the host driver, it
executes operations one by one on an internal memory image, and it tracks
per-operation-type profiling counters.

The paper accelerates simulation with CUDA by (1) storing rows in a
condensed 32-bit strided format and (2) using bitwise word arithmetic for
semi-parallel partition operations. This implementation applies exactly the
same two optimizations with NumPy on the CPU (``docs/architecture.md`` §11).
"""

from repro.sim.memory import CrossbarMemory
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats, throughput

__all__ = ["CrossbarMemory", "Simulator", "SimStats", "throughput"]
