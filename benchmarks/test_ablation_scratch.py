"""Ablation: driver scratch-register budget vs. initialization overhead.

The gate builder amortizes stateful-logic INIT1 cycles by bulk-cleaning
scratch columns. With fewer scratch registers the pool fragments and more
single-cell (or short-run) initializations are emitted — this sweep
quantifies the cycle cost of shrinking the driver's scratch reservation,
one of the design choices ``docs/architecture.md`` §2 calls out.
"""

import os

import pytest

from repro.arch.config import PIMConfig
from repro.driver.driver import Driver
from repro.isa.dtypes import float32
from repro.isa.instructions import RInstr, ROp
from repro.sim.simulator import Simulator

from benchmarks.conftest import RESULTS_DIR

_LINES = []


def _fadd_cycles(scratch_registers: int) -> int:
    config = PIMConfig(crossbars=1, rows=1, scratch_registers=scratch_registers)
    sim = Simulator(config)
    driver = Driver(sim, parallelism="serial")
    driver.execute(RInstr(ROp.ADD, float32, dest=2, src_a=0, src_b=1))
    return sim.stats.cycles - 2


@pytest.mark.parametrize("scratch", [10, 12, 16, 24])
def test_scratch_sweep(benchmark, scratch):
    def run():
        return _fadd_cycles(scratch)

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    _LINES.append(f"scratch={scratch:2} registers: fp add = {cycles:6} cycles")
    benchmark.extra_info["cycles"] = cycles
    assert cycles > 0


def test_more_scratch_never_hurts(benchmark):
    def run():
        return _fadd_cycles(10), _fadd_cycles(24)

    lean, rich = benchmark.pedantic(run, rounds=1, iterations=1)
    _LINES.append(f"10 -> 24 registers saves {lean - rich} cycles per fp add")
    assert rich <= lean


def teardown_module(module):
    if not _LINES:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(
        ["Scratch-register ablation (init amortization, bit-serial fp add)", ""]
        + _LINES
    )
    print("\n" + text)
    with open(os.path.join(RESULTS_DIR, "ablation_scratch.txt"), "w") as handle:
        handle.write(text + "\n")
