"""Profiling counters and the throughput derivation of Eq. (1).

The simulator counts micro-operations by type; following Section VI-B,
"PIM cycles" equals the number of micro-operations executed (each operation
is broadcast and completes in one clock). Throughput is then::

    throughput[ops/sec] = parallelism[ops] / latency[cycles] * f[cycles/sec]

where ``parallelism`` is the number of rows of the crossbar memory (64M for
the Table III configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimStats:
    """Cumulative micro-operation counters of a simulator instance.

    A PIM cycle is one micro-operation (:attr:`cycles` is
    :attr:`micro_ops`); ``htree_hop_cycles`` is the H-tree latency beyond
    one cycle per move (§III-F), itemized beside the count.
    """

    op_counts: Dict[str, int] = field(default_factory=dict)
    htree_hop_cycles: int = 0
    gates_executed: int = 0

    def record(self, kind: str, gates: int = 0) -> None:
        """Account one executed micro-operation."""
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1
        self.gates_executed += gates

    @property
    def micro_ops(self) -> int:
        """Total micro-operations executed."""
        return sum(self.op_counts.values())

    cycles = micro_ops

    def copy(self) -> "SimStats":
        return SimStats(dict(self.op_counts), self.htree_hop_cycles, self.gates_executed)

    def merge(self, delta: "SimStats") -> None:
        """Accumulate another counter set (used by batched accounting)."""
        for kind, count in delta.op_counts.items():
            self.op_counts[kind] = self.op_counts.get(kind, 0) + count
        self.htree_hop_cycles += delta.htree_hop_cycles
        self.gates_executed += delta.gates_executed

    def diff(self, earlier: "SimStats") -> "SimStats":
        """Counters accumulated since an earlier snapshot."""
        counts = {
            kind: count - earlier.op_counts.get(kind, 0)
            for kind, count in self.op_counts.items()
            if count - earlier.op_counts.get(kind, 0)
        }
        return SimStats(
            counts,
            self.htree_hop_cycles - earlier.htree_hop_cycles,
            self.gates_executed - earlier.gates_executed,
        )

    def summary(self) -> str:
        """Human-readable profile, used by ``pim.Profiler``."""
        lines = [f"PIM cycles (micro-ops): {self.cycles}"]
        for kind in sorted(self.op_counts):
            lines.append(f"  {kind:<14} {self.op_counts[kind]}")
        lines.append(f"  gates executed  {self.gates_executed}")
        return "\n".join(lines)


def throughput(parallelism: int, latency_cycles: int, frequency_hz: float) -> float:
    """Eq. (1): convert a latency in PIM cycles into operations per second.

    ``parallelism`` is the number of element-parallel operations completed
    per ``latency_cycles`` cycles — for element-wise macro-instructions this
    is the total row count of the memory.
    """
    if latency_cycles <= 0:
        raise ValueError("latency must be positive")
    return parallelism / latency_cycles * frequency_hz
