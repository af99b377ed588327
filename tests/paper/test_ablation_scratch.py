"""Ablation: driver scratch-register budget vs. initialization overhead.

The gate builder amortizes stateful-logic INIT1 cycles by bulk-cleaning
scratch columns. With fewer scratch registers the pool fragments and more
single-cell (or short-run) initializations are emitted — this sweep
quantifies the cycle cost of shrinking the driver's scratch reservation,
one of the design choices ``docs/architecture.md`` §2 calls out. The
cycle counts are deterministic and pinned.
"""

import pytest

from repro.arch.config import PIMConfig
from repro.driver.driver import Driver
from repro.isa.dtypes import float32
from repro.isa.instructions import RInstr, ROp
from repro.sim.simulator import Simulator

#: scratch registers -> cycles of one bit-serial float32 add.
FADD_CYCLES = {10: 6581, 12: 6209, 16: 5615, 24: 5304}


def _fadd_cycles(scratch_registers: int) -> int:
    config = PIMConfig(crossbars=1, rows=1, scratch_registers=scratch_registers)
    sim = Simulator(config)
    driver = Driver(sim, parallelism="serial")
    driver.execute(RInstr(ROp.ADD, float32, dest=2, src_a=0, src_b=1))
    return sim.stats.cycles - 2


@pytest.mark.parametrize("scratch", sorted(FADD_CYCLES))
def test_scratch_sweep(scratch):
    cycles = _fadd_cycles(scratch)
    assert cycles > 0
    assert cycles == FADD_CYCLES[scratch]


def test_more_scratch_never_hurts():
    lean, rich = _fadd_cycles(10), _fadd_cycles(24)
    assert rich <= lean
