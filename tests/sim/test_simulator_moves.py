"""Tests for distributed inter-crossbar move execution."""

import pytest

from repro.arch.config import small_config
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    WriteOp,
)
from repro.sim.simulator import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator(small_config(crossbars=16, rows=4))


def write_at(sim, warp, row, index, value):
    sim.execute(CrossbarMaskOp(warp, warp, 1))
    sim.execute(RowMaskOp(row, row, 1))
    sim.execute(WriteOp(index, value))


def read_at(sim, warp, row, index):
    sim.execute(CrossbarMaskOp(warp, warp, 1))
    sim.execute(RowMaskOp(row, row, 1))
    return sim.execute(ReadOp(index))


class TestMoves:
    def test_single_pair_move(self, sim):
        write_at(sim, 2, 1, 0, 0xABCD)
        sim.execute(CrossbarMaskOp(2, 2, 1))
        sim.execute(MoveOp(3, 1, 2, 0, 5))
        assert read_at(sim, 5, 2, 5) == 0xABCD

    def test_move_overwrites_destination(self, sim):
        write_at(sim, 0, 0, 0, 111)
        write_at(sim, 1, 0, 0, 222)
        sim.execute(CrossbarMaskOp(0, 0, 1))
        sim.execute(MoveOp(1, 0, 0, 0, 0))
        assert read_at(sim, 1, 0, 0) == 111

    def test_distributed_paper_pattern(self, sim):
        """Crossbars xx01 -> xx10 in parallel (Section III-F example)."""
        for group in range(4):
            write_at(sim, group * 4 + 1, 0, 2, 100 + group)
        sim.execute(CrossbarMaskOp(0b0001, 0b1101, 0b0100))
        sim.execute(MoveOp(1, 0, 0, 2, 2))
        for group in range(4):
            assert read_at(sim, group * 4 + 2, 0, 2) == 100 + group

    def test_negative_distance(self, sim):
        write_at(sim, 8, 3, 1, 77)
        sim.execute(CrossbarMaskOp(8, 8, 1))
        sim.execute(MoveOp(-8, 3, 0, 1, 1))
        assert read_at(sim, 0, 0, 1) == 77

    def test_contiguous_half_shift(self, sim):
        """Sources 8..15 all move to 0..7 in one operation (step 1 = 4^0)."""
        for warp in range(8, 16):
            write_at(sim, warp, 0, 0, warp)
        sim.execute(CrossbarMaskOp(8, 15, 1))
        sim.execute(MoveOp(-8, 0, 0, 0, 0))
        for warp in range(8):
            assert read_at(sim, warp, 0, 0) == warp + 8

    def test_overlapping_pattern_rejected(self, sim):
        sim.execute(CrossbarMaskOp(0, 12, 4))
        with pytest.raises(SimulationError):
            sim.execute(MoveOp(4, 0, 0, 0, 0))

    def test_bad_step_rejected(self, sim):
        sim.execute(CrossbarMaskOp(0, 4, 2))
        with pytest.raises(SimulationError):
            sim.execute(MoveOp(8, 0, 0, 0, 0))

    def test_move_is_one_cycle_with_its_htree_hops_itemized(self, sim):
        write_at(sim, 0, 0, 0, 5)
        sim.execute(CrossbarMaskOp(0, 0, 1))
        before = sim.stats.copy()
        sim.execute(MoveOp(15, 0, 0, 0, 0))  # crosses the root: 2 levels up+down
        delta = sim.stats.diff(before)
        assert delta.cycles == delta.micro_ops == 1
        assert delta.htree_hop_cycles == 3  # a 4-cycle H-tree latency
