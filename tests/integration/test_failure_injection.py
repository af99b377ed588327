"""Failure injection: the stack must *detect or exhibit* the right failure
when its invariants are violated.

These tests prove the model is load-bearing: skipping an INIT1 really
corrupts stateful logic, masks really isolate rows, scratch exhaustion and
memory exhaustion raise instead of corrupting, and invalid micro-op
streams are rejected at the right layer.
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig, small_config
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicHOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    WriteOp,
)
from repro.driver.driver import Driver
from repro.driver.gates import GateBuilder, ScratchOverflow
from repro.isa.dtypes import int32
from repro.isa.instructions import RInstr, ROp
from repro.pim.malloc import PIMMemoryError
from repro.sim.simulator import SimulationError, Simulator


class TestStatefulLogicInjection:
    def test_dropped_init_corrupts_addition(self):
        """Filtering out one INIT1 from a lowered add flips the result —
        evidence that the simulator enforces stateful-logic semantics
        rather than computing gates functionally."""
        cfg = small_config(crossbars=1, rows=1)
        driver_sim = Simulator(cfg)
        driver = Driver(driver_sim, parallelism="serial", cache_size=0)
        ops = driver.lower(RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1))

        def run(op_stream):
            sim = Simulator(cfg)
            sim.execute(CrossbarMaskOp(0, 0, 1))
            sim.execute(RowMaskOp(0, 0, 1))
            sim.execute(WriteOp(0, 21))
            sim.execute(WriteOp(1, 21))
            sim.execute_all(op_stream)
            sim.execute(CrossbarMaskOp(0, 0, 1))
            sim.execute(RowMaskOp(0, 0, 1))
            return sim.execute(ReadOp(2))

        assert run(ops) == 42
        dest_init = next(
            i for i, op in enumerate(ops)
            if isinstance(op, LogicHOp)
            and op.gate == GateType.INIT1
            and op.out == 2
            and op.p_end - op.p_out == 31
        )
        # Drop the destination-column initialization: sum bits can then
        # never be pulled to 1 and the result collapses.
        corrupted = list(ops)
        del corrupted[dest_init]
        assert run(corrupted) != 42

    def test_reordered_gates_corrupt(self):
        cfg = small_config(crossbars=1, rows=1)
        sim = Simulator(cfg)
        driver = Driver(sim, parallelism="serial", cache_size=0)
        ops = driver.lower(RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1))
        gate_positions = [
            i for i, op in enumerate(ops)
            if isinstance(op, LogicHOp) and op.gate == GateType.NOR
        ]
        swapped = list(ops)
        a, b = gate_positions[2], gate_positions[10]
        swapped[a], swapped[b] = swapped[b], swapped[a]

        sim.execute(CrossbarMaskOp(0, 0, 1))
        sim.execute(RowMaskOp(0, 0, 1))
        sim.execute(WriteOp(0, 12345))
        sim.execute(WriteOp(1, 54321))
        sim.execute_all(swapped)
        sim.execute(CrossbarMaskOp(0, 0, 1))
        sim.execute(RowMaskOp(0, 0, 1))
        assert sim.execute(ReadOp(2)) != 66666


class TestResourceExhaustion:
    def test_scratch_overflow_raises_not_corrupts(self):
        cfg = small_config(crossbars=1, rows=1)
        sim = Simulator(cfg)
        gb = GateBuilder(cfg, lambda row: sim.execute(LogicHOp(*row)))
        with pytest.raises(ScratchOverflow):
            for _ in range(10_000):
                gb.alloc()

    def test_memory_exhaustion_raises(self):
        device = pim.init(crossbars=4, rows=16)
        tensors = []
        with pytest.raises(PIMMemoryError):
            for _ in range(10_000):
                tensors.append(pim.zeros(16, dtype=pim.int32))
        pim.reset()

    def test_group_allocation_failure_message(self):
        device = pim.init(crossbars=4, rows=16)
        try:
            with pytest.raises(PIMMemoryError):
                device.allocator.allocate_group(16, 100)
        finally:
            pim.reset()


class TestInvalidStreams:
    @pytest.fixture
    def sim(self):
        return Simulator(small_config(crossbars=4, rows=4))

    def test_out_of_range_register(self, sim):
        sim.execute(CrossbarMaskOp(0, 0, 1))
        with pytest.raises(SimulationError):
            sim.execute(WriteOp(99, 0))

    def test_intersecting_partition_sections(self, sim):
        with pytest.raises(Exception):
            sim.execute(
                LogicHOp(GateType.NOR, 0, 1, 2, p_a=0, p_b=1, p_out=2,
                         p_end=30, p_step=2)
            )

    def test_move_collision_rejected_before_mutation(self, sim):
        sim.execute(CrossbarMaskOp(0, 0, 1))
        sim.execute(RowMaskOp(0, 0, 1))
        sim.execute(WriteOp(0, 7))
        snapshot = sim.memory.words.copy()
        sim.execute(CrossbarMaskOp(0, 2, 2))
        with pytest.raises(SimulationError):
            sim.execute(MoveOp(1, 0, 0, 0, 0))  # bad step (2 not power of 4)
        assert (sim.memory.words == snapshot).all()

    def test_read_with_wide_mask_rejected(self, sim):
        sim.execute(CrossbarMaskOp(0, 3, 1))
        sim.execute(RowMaskOp(0, 0, 1))
        with pytest.raises(SimulationError):
            sim.execute(ReadOp(0))


class TestMaskIsolation:
    def test_unmasked_rows_survive_whole_program(self):
        """Run a full float multiply on odd rows only; even rows keep
        their bit patterns through thousands of micro-ops."""
        cfg = small_config(crossbars=1, rows=8)
        sim = Simulator(cfg)
        driver = Driver(sim)
        sentinel = 0xA5A5A5A5
        for row in range(0, 8, 2):
            sim.memory.set_word(0, row, 2, sentinel)
        driver.execute(
            RInstr(
                ROp.MUL, int32, dest=2, src_a=0, src_b=1,
                row_mask=RangeMask(1, 7, 2),
            )
        )
        for row in range(0, 8, 2):
            assert sim.memory.get_word(0, row, 2) == sentinel

    def test_unmasked_crossbars_survive(self):
        cfg = small_config(crossbars=4, rows=4)
        sim = Simulator(cfg)
        driver = Driver(sim)
        sim.memory.set_word(3, 0, 2, 0xDEADBEEF)
        driver.execute(
            RInstr(
                ROp.ADD, int32, dest=2, src_a=0, src_b=1,
                warp_mask=RangeMask(0, 2, 1),
            )
        )
        assert sim.memory.get_word(3, 0, 2) == 0xDEADBEEF
