"""Shared benchmark infrastructure for the Figure 13 reproduction.

Each benchmark measures PIM cycles (micro-operations) for one workload on
the simulator and derives three series, exactly as the paper's Figure 13:

- **PyPIM**: Eq. (1) throughput of the measured end-to-end cycle count at
  Table III scale (64M-row parallelism, 300 MHz);
- **Theoretical PIM**: the same with framework overhead excluded (the
  productive NOR/NOT/move cycles only, see ``repro.theory``);
- **Host driver**: the throughput the chip could sustain if bounded only
  by the host's micro-op generation rate.

A row's cycle counts are deterministic and pinned by the test that
measures them; the row itself, with its wall-clock driver series, is
printed (``pytest -s`` shows it).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import repro.pim as pim
from repro.sim.stats import throughput as eq1
from repro.theory.counts import theoretical_cycles

#: Table III: 8 GB = 64k crossbars x 1024 rows -> 64M-row parallelism.
PAPER_PARALLELISM = 64 * 2**20
PAPER_FREQUENCY = 300e6

#: The simulated memory used for benchmarking: 64 crossbars x 1024 rows
#: (64k elements per register). Cycle counts per macro-instruction are
#: independent of the crossbar count, so Eq. (1) scales them to paper size.
BENCH_CONFIG = dict(crossbars=64, rows=1024)


@dataclass
class Fig13Row:
    benchmark: str
    cycles: int
    theoretical: int
    pypim_tput: float
    theory_tput: float
    driver_tput: float

    def format(self) -> str:
        gap = (self.cycles - self.theoretical) / max(self.theoretical, 1)
        ratio = self.driver_tput / max(self.pypim_tput, 1e-12)
        return (
            f"{self.benchmark:<16} cycles={self.cycles:>9} "
            f"theory={self.theoretical:>9} gap={gap:7.1%} "
            f"PyPIM={self.pypim_tput:9.3e} theoryPIM={self.theory_tput:9.3e} "
            f"driver={self.driver_tput:9.3e} (driver/PyPIM={ratio:5.2f}x)"
        )


def record_fig13(name: str, stats, ops: int, driver_micro_per_sec: float) -> Fig13Row:
    """Derive and print one Figure 13 row from a measured stats delta."""
    cycles = stats.cycles
    theory = theoretical_cycles(stats)
    row = Fig13Row(
        benchmark=name,
        cycles=cycles,
        theoretical=theory,
        pypim_tput=eq1(ops, cycles, PAPER_FREQUENCY),
        theory_tput=eq1(ops, max(theory, 1), PAPER_FREQUENCY),
        driver_tput=ops * driver_micro_per_sec / max(cycles, 1),
    )
    print(row.format())
    return row


@pytest.fixture(scope="session")
def bench_device():
    device = pim.init(**BENCH_CONFIG)
    yield device
    pim.reset()
