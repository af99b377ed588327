"""Tests for macro-instruction definitions and validation."""

import numpy as np
import pytest

from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import (
    ARITY,
    SUPPORT_MATRIX,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
    validate,
    written_region,
)
from repro.pim.optimizer import _accesses
from tests.pim.test_bulk_move import SEEDS, _fuzz_streams

REGS = 32


class TestSupportMatrix:
    def test_table_ii_coverage(self):
        """Every Table II row exists with the right dtype support."""
        both = {
            ROp.ADD, ROp.SUB, ROp.MUL, ROp.DIV, ROp.NEG,
            ROp.LT, ROp.LE, ROp.GT, ROp.GE, ROp.EQ, ROp.NE,
            ROp.BIT_NOT, ROp.BIT_AND, ROp.BIT_OR, ROp.BIT_XOR,
            ROp.SIGN, ROp.ZERO, ROp.ABS, ROp.MUX,
        }
        for op in both:
            names = {d.name for d in SUPPORT_MATRIX[op]}
            assert names == {"int32", "float32"}, op
        assert {d.name for d in SUPPORT_MATRIX[ROp.MOD]} == {"int32"}

    def test_arity_defined_for_all_ops(self):
        assert set(ARITY) == set(SUPPORT_MATRIX)


class TestValidation:
    def test_valid_add(self):
        validate(RInstr(ROp.ADD, int32, dest=0, src_a=1, src_b=2), REGS)

    def test_float_mod_rejected(self):
        with pytest.raises(ValueError):
            validate(RInstr(ROp.MOD, float32, dest=0, src_a=1, src_b=2), REGS)

    def test_missing_operand(self):
        with pytest.raises(ValueError):
            validate(RInstr(ROp.ADD, int32, dest=0, src_a=1), REGS)

    def test_extra_operand(self):
        with pytest.raises(ValueError):
            validate(
                RInstr(ROp.NEG, int32, dest=0, src_a=1, src_b=2), REGS
            )

    def test_mux_needs_three_sources(self):
        validate(RInstr(ROp.MUX, int32, dest=0, src_a=1, src_b=2, src_c=3), REGS)
        with pytest.raises(ValueError):
            validate(RInstr(ROp.MUX, int32, dest=0, src_a=1, src_b=2), REGS)

    def test_register_out_of_range(self):
        with pytest.raises(ValueError):
            validate(RInstr(ROp.ADD, int32, dest=40, src_a=1, src_b=2), REGS)

    def test_sources_helper(self):
        instr = RInstr(ROp.MUX, int32, dest=0, src_a=1, src_b=2, src_c=3)
        assert instr.sources() == (1, 2, 3)
        assert RInstr(ROp.NEG, int32, dest=0, src_a=7).sources() == (7,)

    def test_move_validation(self):
        validate(MoveInstr(0, 1, src_thread=0, dst_thread=1), REGS)
        with pytest.raises(ValueError):
            validate(MoveInstr(0, 99, src_thread=0, dst_thread=1), REGS)

    def test_read_write_validation(self):
        validate(ReadInstr(0, 0, 5), REGS)
        validate(WriteInstr(5, 0xFFFFFFFF), REGS)
        with pytest.raises(ValueError):
            validate(WriteInstr(5, 1 << 32), REGS)
        with pytest.raises(ValueError):
            validate(ReadInstr(0, 0, 99), REGS)

    def test_non_instruction_rejected(self):
        with pytest.raises(TypeError):
            validate(object(), REGS)  # type: ignore[arg-type]

    def test_write_with_masks(self):
        validate(
            WriteInstr(3, 7, warp_mask=RangeMask(0, 2, 1), row_mask=RangeMask.single(4)),
            REGS,
        )


class TestWrittenRegion:
    CFG = small_config(crossbars=8, rows=4)

    def test_masks_default_to_the_whole_axis(self):
        add = RInstr(ROp.ADD, int32, dest=3, src_a=1, src_b=2)
        assert written_region(add, self.CFG) == (
            3, RangeMask.all(8), RangeMask.all(4)
        )
        write = WriteInstr(5, 7, RangeMask(0, 6, 2), RangeMask.single(1))
        assert written_region(write, self.CFG) == (
            5, RangeMask(0, 6, 2), RangeMask.single(1)
        )

    def test_a_move_writes_one_thread_of_the_shifted_warps(self):
        move = MoveInstr(0, 1, 2, 3, RangeMask(0, 3, 1), 4)
        assert written_region(move, self.CFG) == (
            1, RangeMask(4, 7, 1), RangeMask.single(3)
        )

    def test_a_read_writes_nothing(self):
        assert written_region(ReadInstr(0, 0, 5), self.CFG) is None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agrees_with_the_optimizer_footprint_on_the_fuzz_corpus(self, seed):
        """One footprint, two representations: the range triple expands to
        exactly the boolean cells the optimizer's dataflow analysis marks
        written, on every instruction of both fuzz corpora."""
        checked = 0
        for config, stream in _fuzz_streams(seed):
            cache: dict = {}
            for instr in stream:
                writes, _ = _accesses(instr, config, cache)
                region = written_region(instr, config)
                if region is None:
                    assert writes == []
                    continue
                (reg, cells), = writes
                expected = np.zeros((config.crossbars, config.rows), dtype=bool)
                expected[np.ix_(list(region[1].indices()),
                                list(region[2].indices()))] = True
                assert reg == region[0] and np.array_equal(cells, expected), instr
                checked += 1
        assert checked > 20
