"""Tests for the Driver: lowering, masks, moves, and the sequence cache."""

import numpy as np
import pytest

from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import CrossbarMaskOp, MoveOp, ReadOp, RowMaskOp
from repro.driver.driver import BufferSink, Driver
from repro.isa.dtypes import float32, int32, value_to_raw
from repro.isa.instructions import MoveInstr, ReadInstr, RInstr, ROp, WriteInstr
from repro.sim.simulator import Simulator

from tests.driver.harness import Chip


@pytest.fixture
def chip():
    return Chip(small_config(crossbars=16, rows=8))


def cache_hits(driver: Driver) -> int:
    """Hits over the driver's two cache tiers (bodies + stream plans)."""
    return driver.programs.hits + driver.streams.hits


class TestLowering:
    def test_rtype_prepends_masks(self, chip):
        ops = chip.driver.lower(RInstr(ROp.ADD, int32, dest=0, src_a=1, src_b=2))
        assert isinstance(ops[0], CrossbarMaskOp)
        assert isinstance(ops[1], RowMaskOp)

    def test_rtype_respects_masks(self, chip):
        instr = RInstr(
            ROp.ADD, int32, dest=0, src_a=1, src_b=2,
            warp_mask=RangeMask(2, 6, 4), row_mask=RangeMask(1, 7, 2),
        )
        ops = chip.driver.lower(instr)
        assert ops[0] == CrossbarMaskOp(2, 6, 4)
        assert ops[1] == RowMaskOp(1, 7, 2)

    def test_read_lowering(self, chip):
        ops = chip.driver.lower(ReadInstr(3, 5, 7))
        assert ops == [CrossbarMaskOp(3, 3, 1), RowMaskOp(5, 5, 1), ReadOp(7)]

    def test_macro_and_micro_counters(self, chip):
        before_macro = chip.driver.macro_count
        before_micro = chip.driver.micro_count
        chip.driver.execute(RInstr(ROp.ADD, int32, dest=0, src_a=1, src_b=2))
        assert chip.driver.macro_count == before_macro + 1
        assert chip.driver.micro_count > before_micro + 100


class TestSequenceCache:
    def test_cache_hit_on_repeat(self, chip):
        instr = RInstr(ROp.MUL, int32, dest=0, src_a=1, src_b=2)
        chip.driver.execute(instr)
        hits = cache_hits(chip.driver)
        chip.driver.execute(instr)
        assert cache_hits(chip.driver) == hits + 1

    def test_cache_keyed_on_registers(self, chip):
        chip.driver.execute(RInstr(ROp.MUL, int32, dest=0, src_a=1, src_b=2))
        hits = cache_hits(chip.driver)
        chip.driver.execute(RInstr(ROp.MUL, int32, dest=0, src_a=1, src_b=3))
        assert cache_hits(chip.driver) == hits  # different key: no hit

    def test_cached_replay_is_identical(self, chip):
        instr = RInstr(ROp.ADD, float32, dest=2, src_a=0, src_b=1)
        first = chip.driver.lower(instr)
        second = chip.driver.lower(instr)
        assert first == second

    def test_cache_disabled(self):
        chip = Chip(small_config(crossbars=4, rows=8), cache_size=0)
        instr = RInstr(ROp.ADD, int32, dest=0, src_a=1, src_b=2)
        chip.driver.execute(instr)
        chip.driver.execute(instr)
        assert cache_hits(chip.driver) == 0

    def test_a_disabled_cache_takes_no_directory(self, tmp_path, monkeypatch):
        """``cache_size=0`` stores and loads nothing: an explicit
        ``cache_dir`` is refused naming both, the env default ignored."""
        sim = Simulator(small_config(crossbars=4, rows=8))
        with pytest.raises(ValueError, match="cache_dir=.*cache_size=0"):
            Driver(sim, cache_size=0, cache_dir=str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        driver = Driver(sim, cache_size=0)
        assert driver.cache_dir is None and driver.persist is None
        assert Driver(sim).cache_dir == str(tmp_path)

    def test_cached_results_still_correct(self, chip):
        chip.put(0, np.arange(8, dtype=np.int32), int32)
        chip.put(1, np.full(8, 3, dtype=np.int32), int32)
        instr = RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)
        chip.driver.execute(instr)
        chip.driver.execute(instr)  # cache replay
        assert list(chip.get(2, 8, int32)) == [3, 4, 5, 6, 7, 8, 9, 10]


class TestMoves:
    def put_at(self, chip, reg, warp, thread, value):
        chip.driver.execute(
            WriteInstr(reg, value_to_raw(value, int32),
                       RangeMask.single(warp), RangeMask.single(thread))
        )

    def get_at(self, chip, reg, warp, thread):
        return chip.driver.execute(ReadInstr(warp, thread, reg))

    def test_intra_warp_move(self, chip):
        self.put_at(chip, 0, 1, 2, 99)
        chip.driver.execute(
            MoveInstr(src_reg=0, dst_reg=3, src_thread=2, dst_thread=5,
                      warp_mask=RangeMask.single(1))
        )
        assert self.get_at(chip, 3, 1, 5) == 99

    def test_intra_warp_move_parallel_across_warps(self, chip):
        for warp in range(4):
            self.put_at(chip, 0, warp, 0, warp + 10)
        chip.driver.execute(
            MoveInstr(src_reg=0, dst_reg=1, src_thread=0, dst_thread=7,
                      warp_mask=RangeMask(0, 3, 1))
        )
        for warp in range(4):
            assert self.get_at(chip, 1, warp, 7) == warp + 10

    def test_same_thread_register_copy(self, chip):
        self.put_at(chip, 0, 2, 3, 7)
        chip.driver.execute(
            MoveInstr(src_reg=0, dst_reg=5, src_thread=3, dst_thread=3,
                      warp_mask=RangeMask.single(2))
        )
        assert self.get_at(chip, 5, 2, 3) == 7

    def test_same_everything_is_noop(self, chip):
        ops = chip.driver.lower(
            MoveInstr(src_reg=0, dst_reg=0, src_thread=3, dst_thread=3)
        )
        assert ops == []

    def test_inter_warp_move(self, chip):
        self.put_at(chip, 0, 1, 4, 1234)
        chip.driver.execute(
            MoveInstr(src_reg=0, dst_reg=2, src_thread=4, dst_thread=6,
                      warp_mask=RangeMask.single(1), warp_dist=2)
        )
        assert self.get_at(chip, 2, 3, 6) == 1234

    def test_distributed_inter_warp_move(self, chip):
        """Crossbars xx01 -> xx10 (the Section III-F pattern)."""
        for group in range(4):
            self.put_at(chip, 0, group * 4 + 1, 0, group)
        chip.driver.execute(
            MoveInstr(src_reg=0, dst_reg=0, src_thread=0, dst_thread=0,
                      warp_mask=RangeMask(1, 13, 4), warp_dist=1)
        )
        for group in range(4):
            assert self.get_at(chip, 0, group * 4 + 2, 0) == group

    def test_move_preserves_value_parity(self, chip):
        """The NOT chains must compose to an even number of inversions."""
        for value in (0, 0xFFFFFFFF, 0xA5A5A5A5):
            chip.driver.execute(
                WriteInstr(0, value, RangeMask.single(0), RangeMask.single(0))
            )
            chip.driver.execute(
                MoveInstr(src_reg=0, dst_reg=1, src_thread=0, dst_thread=1,
                          warp_mask=RangeMask.single(0))
            )
            assert self.get_at(chip, 1, 0, 1) == value


class TestBufferSink:
    def test_sink_counts_and_encodes(self):
        cfg = small_config(crossbars=4, rows=8)
        sink = BufferSink(cfg, capacity=64)
        driver = Driver(sink, config=cfg)
        driver.execute(RInstr(ROp.ADD, int32, dest=0, src_a=1, src_b=2))
        assert sink.count > 100
        assert sink.buffer.dtype == np.uint64
        assert sink.buffer[:10].any()

    def test_sink_wraps_ring(self):
        cfg = small_config(crossbars=4, rows=8)
        sink = BufferSink(cfg, capacity=8)
        driver = Driver(sink, config=cfg)
        driver.execute(RInstr(ROp.MUL, int32, dest=0, src_a=1, src_b=2))
        assert sink.count > 8  # wrapped without error

    def test_invalid_parallelism(self):
        cfg = small_config(crossbars=4, rows=8)
        with pytest.raises(ValueError):
            Driver(BufferSink(cfg), config=cfg, parallelism="quantum")
