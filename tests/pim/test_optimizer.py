"""Unit tests for the graph-optimizer passes (``repro.pim.optimizer``).

Each pass is exercised directly on hand-built macro-instruction streams,
and the pipeline's contract is checked semantically: executing the raw
and the optimized stream on two fresh simulators must leave *observable*
cells (everything outside the declared dead-temporary set) bit-identical.
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.driver.driver import Driver
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import MoveInstr, ReadInstr, RInstr, ROp, WriteInstr
from repro.pim.optimizer import (
    OPT_LEVELS,
    eliminate_dead_instructions,
    fold_and_cse,
    optimize_instructions,
    plan_reservation,
    resolve_opt_level,
    reuse_registers,
)
from repro.sim.simulator import Simulator

CFG = small_config(crossbars=4, rows=8)
FULL_W = RangeMask.all(CFG.crossbars)
FULL_R = RangeMask.all(CFG.rows)


def run_stream(instructions):
    """Execute a macro stream on a fresh simulator; returns its memory."""
    sim = Simulator(CFG)
    driver = Driver(sim)
    for instr in instructions:
        driver.execute(instr)
    return sim.memory.words.copy()


def assert_equivalent(raw, optimized, dead_cells=()):
    """Raw and optimized streams must agree on every observable cell.

    Observable means: every user-register cell outside the declared
    dead-temporary set. Driver scratch registers are never observable
    (the allocator cannot hand them out, and every lowering initializes
    its own scratch), and dead cells are by definition unread.
    """
    mem_raw = run_stream(raw)
    mem_opt = run_stream(optimized)
    mask = np.ones(mem_raw.shape, dtype=bool)  # (crossbars, registers, rows)
    mask[:, CFG.user_registers :, :] = False
    for reg, warp in dead_cells:
        mask[warp, reg, :] = False
    assert np.array_equal(mem_raw[mask], mem_opt[mask])


def write(reg, value, warps=FULL_W, rows=FULL_R):
    return WriteInstr(reg, value, warps, rows)


def rop(op, dest, a, b=None, c=None, dtype=int32, warps=FULL_W, rows=FULL_R):
    return RInstr(op, dtype, dest=dest, src_a=a, src_b=b, src_c=c,
                  warp_mask=warps, row_mask=rows)


class TestResolveOptLevel:
    def test_default_is_verbatim(self):
        assert resolve_opt_level() == 0

    def test_accepts_every_level(self):
        assert [resolve_opt_level(level) for level in OPT_LEVELS] == [0, 1, 2, 3]

    def test_rejects_unknown_levels(self):
        with pytest.raises(ValueError, match="opt_level"):
            resolve_opt_level(7)

    def test_optimize_alias_is_gone(self):
        with pytest.raises(TypeError):
            pim.compile(lambda a: a, optimize=True)

    def test_levels_are_contiguous(self):
        assert OPT_LEVELS == (0, 1, 2, 3)


class TestConstantFolding:
    def test_int_expression_folds_to_write(self):
        raw = [write(0, 5), write(1, 7), rop(ROp.ADD, 2, 0, 1)]
        stats = {}
        out = fold_and_cse(raw, CFG, {}, stats)
        assert stats["folded"] == 1
        assert isinstance(out[2], WriteInstr) and out[2].value == 12
        assert_equivalent(raw, out)

    def test_folded_constant_feeds_further_folding(self):
        raw = [
            write(0, 6), write(1, 2),
            rop(ROp.MUL, 2, 0, 1),       # 12
            rop(ROp.MOD, 3, 2, 1),       # 0
        ]
        stats = {}
        out = fold_and_cse(raw, CFG, {}, stats)
        assert stats["folded"] == 2
        assert all(isinstance(i, WriteInstr) for i in out)
        assert_equivalent(raw, out)

    def test_float_fold_exact(self):
        half = int(np.float32(0.25).view(np.uint32))
        four = int(np.float32(4.0).view(np.uint32))
        raw = [write(0, half), write(1, four),
               rop(ROp.MUL, 2, 0, 1, dtype=float32)]
        out = fold_and_cse(raw, CFG, {}, {})
        assert isinstance(out[2], WriteInstr)
        assert out[2].value == int(np.float32(1.0).view(np.uint32))
        assert_equivalent(raw, out)

    def test_float_division_and_nonfinite_refused(self):
        inf = 0x7F800000
        one = int(np.float32(1.0).view(np.uint32))
        div = [write(0, one), write(1, one),
               rop(ROp.DIV, 2, 0, 1, dtype=float32)]
        assert isinstance(fold_and_cse(div, CFG, {}, {})[2], RInstr)
        nonfinite = [write(0, inf), write(1, one),
                     rop(ROp.ADD, 2, 0, 1, dtype=float32)]
        assert isinstance(fold_and_cse(nonfinite, CFG, {}, {})[2], RInstr)

    def test_partial_overwrite_blocks_fold(self):
        # Register 0 is constant 5 everywhere except one cell: consuming
        # the full region must not treat it as uniform.
        raw = [
            write(0, 5), write(1, 1),
            write(0, 9, RangeMask.single(1), RangeMask.single(3)),
            rop(ROp.ADD, 2, 0, 1),
        ]
        out = fold_and_cse(raw, CFG, {}, {})
        assert isinstance(out[3], RInstr)
        assert_equivalent(raw, out)


class TestCSE:
    def test_recomputation_into_same_register_dropped(self):
        # The eager allocator recycles a freed temporary's slot, so the
        # recomputation lands in the same register: dropped entirely.
        raw = [
            rop(ROp.MUL, 2, 0, 1),
            rop(ROp.ADD, 3, 2, 0),
            rop(ROp.MUL, 2, 0, 1),   # identical value already in r2
            rop(ROp.SUB, 4, 2, 0),
        ]
        stats = {}
        out = fold_and_cse(raw, CFG, {}, stats)
        assert stats["cse_dropped"] == 1
        assert len(out) == 3
        assert_equivalent(raw, out)

    def test_recomputation_into_other_register_becomes_copy(self):
        raw = [
            rop(ROp.MUL, 2, 0, 1),
            rop(ROp.MUL, 3, 0, 1),   # same value, different destination
        ]
        stats = {}
        out = fold_and_cse(raw, CFG, {}, stats)
        assert stats["cse_copies"] == 1
        assert out[1].op is ROp.COPY and out[1].src_a == 2 and out[1].dest == 3
        assert_equivalent(raw, out)

    def test_source_overwrite_invalidates_expression(self):
        raw = [
            rop(ROp.MUL, 2, 0, 1),
            write(0, 3),
            rop(ROp.MUL, 4, 0, 1),   # source changed: must recompute
        ]
        out = fold_and_cse(raw, CFG, {}, {})
        assert isinstance(out[2], RInstr) and out[2].op is ROp.MUL
        assert_equivalent(raw, out)

    def test_destination_overwrite_invalidates_expression(self):
        raw = [
            rop(ROp.MUL, 2, 0, 1),
            write(2, 3),
            rop(ROp.MUL, 2, 0, 1),   # r2 no longer holds the product
        ]
        out = fold_and_cse(raw, CFG, {}, {})
        assert len(out) == 3
        assert_equivalent(raw, out)

    def test_in_place_update_is_not_cse_candidate(self):
        # reduce()-style in-place accumulation: dest is also a source, so
        # the second ADD consumes a different value and must stay.
        raw = [
            rop(ROp.ADD, 2, 2, 1),
            rop(ROp.ADD, 2, 2, 1),
        ]
        out = fold_and_cse(raw, CFG, {}, {})
        assert len(out) == 2
        assert_equivalent(raw, out)

    def test_duplicate_constant_broadcasts_unify(self):
        # Two scalar broadcasts of the same constant into different
        # registers: the second consumer reuses the first result.
        raw = [
            write(4, 7),
            rop(ROp.MUL, 2, 0, 4),
            write(5, 7),             # same constant, other register
            rop(ROp.MUL, 3, 0, 5),
        ]
        stats = {}
        out = fold_and_cse(raw, CFG, {}, stats)
        assert stats["cse_copies"] == 1
        assert out[3].op is ROp.COPY
        assert_equivalent(raw, out)

    def test_mask_mismatch_blocks_cse(self):
        raw = [
            rop(ROp.MUL, 2, 0, 1, rows=RangeMask(0, 3, 1)),
            rop(ROp.MUL, 3, 0, 1, rows=RangeMask(0, 7, 1)),
        ]
        out = fold_and_cse(raw, CFG, {}, {})
        assert all(i.op is ROp.MUL for i in out)
        assert_equivalent(raw, out)


class TestDeadTemporaryElimination:
    def test_unread_dead_write_dropped(self):
        dead = {(3, w) for w in range(CFG.crossbars)}
        raw = [rop(ROp.MUL, 3, 0, 1), rop(ROp.ADD, 2, 0, 1)]
        stats = {}
        out = eliminate_dead_instructions(raw, CFG, {}, dead, stats)
        assert stats["dce_dropped"] == 1
        assert len(out) == 1 and out[0].dest == 2
        assert_equivalent(raw, out, dead)

    def test_dead_chain_unwinds(self):
        dead = {(r, w) for r in (3, 4) for w in range(CFG.crossbars)}
        raw = [
            rop(ROp.MUL, 3, 0, 1),   # feeds only the dead r4
            rop(ROp.ADD, 4, 3, 0),   # dead
            rop(ROp.SUB, 2, 0, 1),   # live
        ]
        stats = {}
        out = eliminate_dead_instructions(raw, CFG, {}, dead, stats)
        assert stats["dce_dropped"] == 2
        assert len(out) == 1
        assert_equivalent(raw, out, dead)

    def test_dead_cells_read_by_live_consumer_survive(self):
        dead = {(3, w) for w in range(CFG.crossbars)}
        raw = [
            rop(ROp.MUL, 3, 0, 1),
            rop(ROp.ADD, 2, 3, 0),   # live consumer of the dead temp
        ]
        out = eliminate_dead_instructions(raw, CFG, {}, dead, {})
        assert len(out) == 2
        assert_equivalent(raw, out, dead)

    def test_in_stream_read_keeps_producer(self):
        dead = {(3, w) for w in range(CFG.crossbars)}
        raw = [rop(ROp.MUL, 3, 0, 1), ReadInstr(0, 2, 3)]
        out = eliminate_dead_instructions(raw, CFG, {}, dead, {})
        assert len(out) == 2

    def test_move_into_dead_cell_dropped(self):
        dead = {(3, w) for w in range(CFG.crossbars)}
        raw = [
            MoveInstr(src_reg=0, dst_reg=3, src_thread=0, dst_thread=5,
                      warp_mask=RangeMask.single(1)),
            rop(ROp.ADD, 2, 0, 1),
        ]
        out = eliminate_dead_instructions(raw, CFG, {}, dead, {})
        assert len(out) == 1
        assert_equivalent(raw, out, dead)


class TestRegisterReuse:
    def test_disjoint_temporaries_share_a_register(self):
        dead = {(r, w) for r in (3, 4) for w in range(CFG.crossbars)}
        raw = [
            rop(ROp.MUL, 3, 0, 1),
            rop(ROp.ADD, 2, 3, 0),   # last use of r3
            rop(ROp.MUL, 4, 0, 2),
            rop(ROp.ADD, 2, 4, 2),
        ]
        stats = {}
        out = reuse_registers(raw, CFG, {}, dead, stats)
        assert stats["registers_reused"] == 1
        assert out[2].dest == 3 and out[3].src_a == 3
        assert_equivalent(raw, out, dead)

    def test_overlapping_lifetimes_not_merged(self):
        dead = {(r, w) for r in (3, 4) for w in range(CFG.crossbars)}
        raw = [
            rop(ROp.MUL, 3, 0, 1),
            rop(ROp.MUL, 4, 0, 1),
            rop(ROp.ADD, 2, 3, 4),   # both alive here
        ]
        out = reuse_registers(raw, CFG, {}, dead, {})
        assert out == raw

    def test_live_register_never_renamed(self):
        dead = {(4, w) for w in range(CFG.crossbars)}
        raw = [
            rop(ROp.MUL, 3, 0, 1),   # r3 is observable: not a candidate
            rop(ROp.ADD, 2, 3, 0),
            rop(ROp.MUL, 4, 0, 2),
            rop(ROp.ADD, 2, 4, 2),
        ]
        out = reuse_registers(raw, CFG, {}, dead, {})
        assert out[2].dest == 4  # nothing to merge onto
        assert_equivalent(raw, out, dead)

    def test_carry_in_register_never_renamed(self):
        # r3 is read before the stream ever writes it (capture-time
        # contents carry in): renaming would read another temp's cells.
        dead = {(r, w) for r in (3, 4) for w in range(CFG.crossbars)}
        raw = [
            rop(ROp.ADD, 2, 3, 0),   # reads r3 before any write
            rop(ROp.MUL, 4, 0, 2),
            rop(ROp.ADD, 2, 4, 2),
        ]
        out = reuse_registers(raw, CFG, {}, dead, {})
        assert out == raw


class TestPipeline:
    def stream(self):
        return [
            write(0, 17), write(1, 5),
            rop(ROp.MUL, 2, 0, 1),
            rop(ROp.ADD, 3, 2, 0),
            rop(ROp.MUL, 4, 0, 1),   # CSE: same value as r2
            rop(ROp.SUB, 5, 4, 0),
            rop(ROp.MUL, 6, 1, 1),   # dead
        ]

    def test_level_below_two_is_identity(self):
        raw = self.stream()
        out, stats = optimize_instructions(raw, CFG, 1, set())
        assert out == raw and stats == {}

    def test_pipeline_equivalence_and_shrink(self):
        raw = self.stream()
        dead = {(6, w) for w in range(CFG.crossbars)}
        out, stats = optimize_instructions(raw, CFG, 3, dead)
        assert len(out) < len(raw)
        assert stats.get("dce_dropped", 0) >= 1
        assert_equivalent(raw, out, dead)

    def test_optimized_stream_still_validates(self):
        raw = self.stream()
        dead = {(6, w) for w in range(CFG.crossbars)}
        out, _ = optimize_instructions(raw, CFG, 3, dead)
        driver = Driver(Simulator(CFG))
        program = driver.compile(out, optimize=True)  # validates every op
        assert len(program) > 0


class TestReservationPlanning:
    def test_eliminated_temporary_cells_released(self):
        cells = {(2, 0), (2, 1), (6, 0), (6, 1)}
        live = {(2, 0), (2, 1)}
        span = RangeMask(0, 1, 1)  # the two warps the slots occupy
        raw = [
            rop(ROp.MUL, 2, 0, 1, warps=span),
            rop(ROp.MUL, 6, 0, 1, warps=span),
        ]
        out, _ = optimize_instructions(raw, CFG, 2, cells - live)
        reserved = plan_reservation(out, CFG, cells, live, set())
        assert reserved == live  # the dead temp's cells went back

    def test_deferred_read_cells_stay_reserved(self):
        cells = {(6, 0)}
        raw = [rop(ROp.MUL, 6, 0, 1)]
        reserved = plan_reservation(raw, CFG, cells, set(), {(6, 0)})
        assert (6, 0) in reserved
