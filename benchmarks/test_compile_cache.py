"""Compile/replay benchmark: the program cache on elementwise loops.

The common case in every benchmark loop is a *repeated* elementwise
macro-instruction: the driver lowers it once, then replays the compiled
:class:`~repro.driver.program.MicroProgram` through the simulator's
``execute_program`` fast path (no per-op dispatch or re-validation, gate
patterns pre-resolved).  This benchmark measures the end-to-end wall-clock
win of that pipeline versus the uncached path (full lowering + op-by-op
execution every iteration), and verifies the resulting memory image is
bit-identical.

Acceptance target: >= 2x wall-clock speedup on a repeated elementwise
macro-instruction loop — enforced by ``test_compile_cache_acceptance``
on the heaviest-lowering case (fp mult on a single crossbar, where the
host-side cost the cache removes dominates) with best-of-2 timing.  The
parametrized survey cases typically also exceed 2x but enforce a lower
1.3x floor each so the suite stays robust on noisy shared CI runners.
Timings are printed beside their floors; the cycle totals are
deterministic and pinned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from repro.arch.config import small_config
from repro.driver.driver import Driver
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import RInstr, ROp
from repro.sim.simulator import Simulator

#: A small memory so the host-side cost dominates (what the cache removes);
#: per-op semantics and stream contents are size-independent.
CACHE_BENCH_CONFIG = small_config(crossbars=4, rows=64)

CASES = [
    # (name, op, dtype, loop iterations, enforced minimum speedup, cycles)
    ("int add", ROp.ADD, int32, 30, 1.3, 11_470),
    ("int mult", ROp.MUL, int32, 10, 1.3, 118_580),
    ("fp add", ROp.ADD, float32, 10, 1.3, 123_574),
    ("fp mult", ROp.MUL, float32, 8, 1.3, 125_406),
]


@dataclass
class CacheRow:
    name: str
    uncached_s: float
    cached_s: float
    cycles: int
    hits: int

    @property
    def speedup(self) -> float:
        return self.uncached_s / max(self.cached_s, 1e-12)

    def format(self) -> str:
        return (
            f"{self.name:<10} uncached={self.uncached_s:7.3f}s "
            f"cached={self.cached_s:7.3f}s speedup={self.speedup:5.2f}x "
            f"cycles={self.cycles:>9} cache_hits={self.hits}"
        )


def _loop_body(op: ROp, dtype) -> List[RInstr]:
    """A two-instruction elementwise loop body (dest never aliases src)."""
    return [
        RInstr(op, dtype, dest=2, src_a=0, src_b=1),
        RInstr(op, dtype, dest=3, src_a=2, src_b=1),
    ]


def _run_loop(
    cache_size: int, op: ROp, dtype, iterations: int,
    config=CACHE_BENCH_CONFIG, best_of: int = 1,
):
    """Time ``iterations`` repeats of the loop body; returns (secs, sim, drv).

    With ``best_of > 1`` the timed loop runs multiple rounds and the
    fastest is reported (suppresses scheduler noise on shared machines;
    the simulated memory state is round-independent because every round
    recomputes the same registers from the same sources).
    """
    sim = Simulator(config)
    driver = Driver(sim, cache_size=cache_size)
    body = _loop_body(op, dtype)
    for instr in body:  # warm-up: outside the timed region for both modes
        driver.execute(instr)
    best = float("inf")
    for _ in range(best_of):
        start = time.perf_counter()
        for _ in range(iterations):
            for instr in body:
                driver.execute(instr)
        best = min(best, time.perf_counter() - start)
    return best, sim, driver


def _cache_hits(driver) -> int:
    """Hits over the driver's two cache tiers (bodies + stream plans)."""
    return driver.programs.hits + driver.streams.hits


@pytest.mark.parametrize(
    "name,op,dtype,iterations,min_speedup,cycles", CASES,
    ids=[c[0] for c in CASES],
)
def test_compile_cache_speedup(name, op, dtype, iterations, min_speedup, cycles):
    uncached_s, sim_plain, _ = _run_loop(0, op, dtype, iterations)
    cached_s, sim_cached, driver = _run_loop(4096, op, dtype, iterations)

    # Bit-identical memory state and identical cycle accounting: the
    # replay path changes wall-clock time only, never chip behavior.
    assert np.array_equal(sim_plain.memory.words, sim_cached.memory.words)
    assert sim_plain.stats.cycles == sim_cached.stats.cycles == cycles
    assert _cache_hits(driver) >= 2 * iterations

    row = CacheRow(
        name, uncached_s, cached_s, sim_cached.stats.cycles, _cache_hits(driver)
    )
    print(row.format())
    assert row.speedup >= min_speedup, row.format()


def test_compile_cache_acceptance():
    """The headline claim: >= 2x wall-clock on a repeated elementwise loop.

    Uses the heaviest lowering (fp mult) on a single crossbar so the
    measurement isolates the host-side cost the cache removes, and
    best-of-2 timing per mode for noise robustness.
    """
    config = small_config(crossbars=1, rows=16)
    uncached_s, sim_plain, _ = _run_loop(
        0, ROp.MUL, float32, 8, config=config, best_of=2
    )
    cached_s, sim_cached, driver = _run_loop(
        4096, ROp.MUL, float32, 8, config=config, best_of=2
    )
    assert np.array_equal(sim_plain.memory.words, sim_cached.memory.words)
    assert sim_plain.stats.cycles == sim_cached.stats.cycles == 236_878
    row = CacheRow(
        "acceptance", uncached_s, cached_s, sim_cached.stats.cycles,
        _cache_hits(driver),
    )
    print(row.format() + "  (fp mult, 1 crossbar, best-of-2)")
    assert row.speedup >= 2.0, row.format()


def test_recorded_stream_saves_mask_cycles():
    """Fusing a loop body with Driver.compile coalesces the per-instruction
    mask preamble: same memory state, strictly fewer PIM cycles."""
    body = _loop_body(ROp.ADD, int32)

    sim_plain = Simulator(CACHE_BENCH_CONFIG)
    plain = Driver(sim_plain, cache_size=0)
    for instr in body:
        plain.execute(instr)

    sim_fused = Simulator(CACHE_BENCH_CONFIG)
    fused = Driver(sim_fused)
    program = fused.compile(body, name="fused-loop-body", optimize=True)
    fused.run_program(program)

    assert np.array_equal(sim_plain.memory.words, sim_fused.memory.words)
    assert sim_fused.stats.cycles < sim_plain.stats.cycles
    assert (sim_fused.stats.cycles, sim_plain.stats.cycles) == (368, 370)
