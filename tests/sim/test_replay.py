"""Tests for vectorized replay and the op-by-op reference it falls to.

Covers the correctness obligations of ``repro.sim.replay``:

- super-step segmentation of the program IR (gate runs broken at every
  mask/read/write/vertical/move boundary, masks tracked statically);
- bit-identical memory and identical stats between op-by-op execution
  and vectorized replay, on randomized op streams that exercise every
  op kind;
- the two outcomes of ``Simulator.execute_program``: self-masked
  programs vectorize, on ``uint32`` and ``uint64`` words and at any
  region width alike; caller-mask programs and programs whose static
  walk fails replay through ``Simulator.execute`` (bit- and
  stats-identical, raising where op-by-op raises);
- dense lanes: a shifted input never spills into a bit the gate's
  out-mask selects, and lane packing round-trips on the bulk memory
  helpers for both dtypes;
- a plan stored beside its words in a persistent entry loads back as
  the plan derived from them, and replays identically.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import micro_ops
from repro.arch.config import PIMConfig, config_fingerprint, small_config
from repro.arch.halfgates import expand_pattern
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicHOp,
    LogicVOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    WriteOp,
)
from repro.backend.base import family
from repro.driver.compiler import CompileError, compile_ops
from repro.driver.persist import PersistentProgramCache
from repro.driver.program import MicroProgram, SuperStep
from repro.sim import replay
from repro.sim.memory import CrossbarMemory
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.stats import SimStats

CFG = small_config(crossbars=4, rows=8)


def _gate(out, in_a, in_b, gate=GateType.NOR, p_out=2, p_a=0, p_b=1):
    return LogicHOp(gate, in_a, in_b, out, p_a=p_a, p_b=p_b, p_out=p_out,
                    p_end=p_out, p_step=1)


def _init1(out, p_end=None):
    p_end = CFG.partitions - 1 if p_end is None else p_end
    return LogicHOp(GateType.INIT1, 0, 0, out, p_a=0, p_b=0, p_out=0,
                    p_end=p_end, p_step=1)


def _masked(ops):
    return [CrossbarMaskOp(0, CFG.crossbars - 1, 1),
            RowMaskOp(0, CFG.rows - 1, 1)] + list(ops)


def _segments(ops):
    """The super-step records of ``ops``, read off their operation words."""
    return MicroProgram.from_ops(ops, "p", CFG).super_steps


class TestSegmentation:
    def test_gates_fuse_between_boundaries(self):
        ops = tuple(_masked([
            _init1(3), _gate(3, 0, 1),
            RowMaskOp(0, 0, 1),
            _init1(4), _gate(4, 1, 2), _gate(5, 2, 3),
        ]))
        segments = _segments(ops)
        kinds = [(s.kind, len(s)) for s in segments]
        assert kinds == [
            ("op", 1), ("op", 1), ("gates", 2), ("op", 1), ("gates", 3),
        ]
        first, second = [s for s in segments if s.kind == "gates"]
        assert first.row == (0, CFG.rows - 1, 1)
        assert second.row == (0, 0, 1)
        assert first.xb == second.xb == (0, CFG.crossbars - 1, 1)
        # "op" records carry the decoded op; gate words are never decoded.
        assert [s.op for s in segments] == [
            ops[0], ops[1], None, ops[4], None,
        ]
        assert segments[3] == SuperStep(
            "op", 4, 5, first.xb, first.row, RowMaskOp(0, 0, 1)
        )

    def test_every_non_gate_op_is_a_boundary(self):
        ops = tuple(_masked([
            _init1(3),
            LogicVOp(GateType.INIT1, 0, 1, 3),
            _init1(4),
            WriteOp(2, 7),
            _gate(4, 0, 1),
            ReadOp(2),
            _gate(5, 0, 1),
            MoveOp(1, 0, 0, 3, 4),
            _gate(6, 0, 1),
        ]))
        segments = _segments(ops)
        gate_spans = [s for s in segments if s.kind == "gates"]
        # Every gate is isolated: boundaries on both sides.
        assert [len(s) for s in gate_spans] == [1, 1, 1, 1, 1]

    def test_gates_before_masks_stay_fallback_ops(self):
        ops = (_init1(3), _gate(3, 0, 1), CrossbarMaskOp(0, 0, 1), _init1(4))
        segments = _segments(ops)
        assert [(s.kind, s.start, s.stop, s.op) for s in segments] == [
            ("op", 0, 2, None), ("op", 2, 3, ops[2]), ("op", 3, 4, None),
        ]  # the row mask is never set: no gate run
        program = MicroProgram.from_ops(ops, "p", CFG)
        assert not program.self_masked
        assert program.replay_summary()["fallback_ops"] == len(ops)

    def test_replay_summary_counts(self):
        program = MicroProgram.from_ops(
            _masked([_init1(3), _gate(3, 0, 1), ReadOp(3)]), "p", CFG
        )
        summary = program.replay_summary()
        assert summary == {
            "ops": 5, "super_steps": 4, "gate_runs": 1, "gate_ops": 2,
            "fallback_ops": 3,
        }
        assert program.super_steps is program.super_steps  # memoized


def _random_pattern(rng, gate, partitions):
    """Pattern fields of a random ``LogicHOp`` that ``expand_pattern``
    accepts: multi-gate, inputs on either side of the output (left and
    right partition shifts), drawn by rejection."""
    while True:
        p_out = int(rng.integers(0, partitions))
        p_step = int(rng.integers(1, 9))
        p_end = p_out + p_step * int(rng.integers(0, 4))
        p_a, p_b = sorted(
            p_out + int(offset) for offset in rng.integers(-4, 5, size=2)
        )
        if p_a < 0 or p_b > 63:  # the operation word's 6-bit field
            continue
        fields = dict(p_a=p_a, p_b=p_b, p_out=p_out, p_end=p_end,
                      p_step=p_step)
        try:
            expand_pattern(LogicHOp(gate, 0, 0, 0, **fields), partitions)
        except ValueError:
            continue
        return fields


def _random_self_masked_ops(rng, config=CFG, length=120):
    """A self-masked stream exercising every op kind, valid by construction."""
    ops = [CrossbarMaskOp(0, config.crossbars - 1, 1),
           RowMaskOp(0, config.rows - 1, 1)]
    registers = config.registers
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            gate = GateType(rng.integers(0, 4))
            ops.append(LogicHOp(
                gate,
                int(rng.integers(0, registers)),
                int(rng.integers(0, registers)),
                int(rng.integers(0, registers)),
                **_random_pattern(rng, gate, config.partitions),
            ))
        elif roll < 0.70:
            ops.append(WriteOp(int(rng.integers(0, registers)),
                               int(rng.integers(0, 1 << 16))))
        elif roll < 0.80:
            gate = GateType(rng.integers(0, 3))  # INIT0/INIT1/NOT
            ops.append(LogicVOp(
                gate,
                int(rng.integers(0, config.rows)),
                int(rng.integers(0, config.rows)),
                int(rng.integers(0, registers)),
            ))
        elif roll < 0.90:
            # New masks (sub-ranges keep later gates/moves valid).
            ops.append(CrossbarMaskOp(0, int(rng.integers(0, config.crossbars)), 1))
            ops.append(RowMaskOp(0, int(rng.integers(0, config.rows)), 1))
        else:
            # A validated H-tree move: single-crossbar mask, distance 1.
            src = int(rng.integers(0, config.crossbars - 1))
            ops.append(CrossbarMaskOp(src, src, 1))
            ops.append(MoveOp(1, 0, 0,
                              int(rng.integers(0, registers)),
                              int(rng.integers(0, registers))))
            ops.append(CrossbarMaskOp(0, config.crossbars - 1, 1))
            ops.append(RowMaskOp(0, config.rows - 1, 1))
    # Single-cell masks, then a trailing read.
    ops.append(CrossbarMaskOp(0, 0, 1))
    ops.append(RowMaskOp(0, 0, 1))
    ops.append(ReadOp(int(rng.integers(0, registers))))
    return ops


def _seed_memory(memory, rng):
    """Random words over the word's full width (top bits set too)."""
    memory.words[...] = rng.integers(
        0, int(memory.word_mask), size=memory.words.shape,
        dtype=memory.dtype, endpoint=True,
    )


WIDE = PIMConfig(crossbars=4, rows=8, columns=2048, word_size=64)

#: 16x512 chips of both word sizes, and regions of 1 to 8,192 lanes on them.
BIG = {size: PIMConfig(crossbars=16, rows=512, columns=32 * size,
                       word_size=size) for size in (32, 64)}
BIG_REGIONS = {
    1: ((5, 5, 1), (7, 7, 1)),
    64: ((0, 3, 1), (0, 15, 1)),
    65: ((0, 4, 1), (0, 12, 1)),
    16 * 512: ((0, 15, 1), (0, 511, 1)),
}


def _assert_replay_is_bit_identical(config, seed):
    rng = np.random.default_rng(seed)
    ops = _random_self_masked_ops(rng, config)
    program = compile_ops(ops, config, optimize=False)

    reference = Simulator(config)
    _seed_memory(reference.memory, np.random.default_rng(seed + 1))
    for op in ops[:-1]:
        reference.execute(op)
    expected_read = reference.execute(ops[-1])

    sim = Simulator(config)
    _seed_memory(sim.memory, np.random.default_rng(seed + 1))
    response = sim.execute_program(program)
    assert response == expected_read
    assert np.array_equal(sim.memory.words, reference.memory.words)
    assert sim.stats == reference.stats
    assert sim.replay_counters == {"vectorized": 1, "reference": 0}


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_vectorized_replay_is_bit_identical(seed):
    _assert_replay_is_bit_identical(CFG, seed)


@pytest.mark.parametrize("seed", range(8))
def test_wide_word_replay_is_bit_identical(seed):
    """``uint64`` words pack into 64-bit lanes the same way."""
    probe = Simulator(WIDE)
    _seed_memory(probe.memory, np.random.default_rng(seed + 1))
    assert (probe.memory.words >> np.uint64(63)).any()  # top bits in play
    _assert_replay_is_bit_identical(WIDE, seed)


def _replay_vs_op_by_op(config, ops, masks=(), replays=1):
    """Replay ``ops`` as one program next to an op-by-op twin.

    ``masks`` are executed on both simulators first (caller-set masks).
    Returns ``(replayed, twin, program)`` after asserting bit-, stats-,
    mask- and response-identity.
    """
    program = MicroProgram.from_ops(ops, "p", config)
    replayed, twin = Simulator(config), Simulator(config)
    for sim in (replayed, twin):
        _seed_memory(sim.memory, np.random.default_rng(5))
        for op in masks:
            sim.execute(op)
    for _ in range(replays):
        response = replayed.execute_program(program)
        expected = None
        for op in ops:
            result = twin.execute(op)
            expected = result if result is not None else expected
        assert response == expected
    assert np.array_equal(replayed.memory.words, twin.memory.words)
    assert replayed.stats == twin.stats
    assert replayed.crossbar_mask == twin.crossbar_mask
    assert replayed.row_mask == twin.row_mask
    return replayed, twin, program


def _raises_like_op_by_op(config, ops):
    """The program must fail exactly where (and as) op-by-op does."""
    program = MicroProgram.from_ops(ops, "bad", config)
    replayed, twin = Simulator(config), Simulator(config)
    with pytest.raises(SimulationError) as expected:
        for op in ops:
            twin.execute(op)
    with pytest.raises(SimulationError) as raised:
        replayed.execute_program(program)
    assert str(raised.value) == str(expected.value)
    # Everything before the offending op took effect, nothing after.
    assert np.array_equal(replayed.memory.words, twin.memory.words)
    assert replayed.stats == twin.stats
    assert replayed.replay_counters == {"vectorized": 0, "reference": 1}


class TestEngineSelection:
    """``execute_program`` has two outcomes, chosen from the program:
    a vectorized plan, or the op-by-op reference."""

    def test_self_masked_program_vectorizes(self):
        sim, _, _ = _replay_vs_op_by_op(
            CFG, _masked([_init1(3), _gate(3, 0, 1)]), replays=2
        )
        assert sim.replay_counters == {"vectorized": 2, "reference": 0}

    def test_single_gate_runs_vectorize_too(self):
        # No run-length threshold: an isolated gate is a GateRun — and a
        # plan is plain data, comparable to the records written out here.
        ops = _masked([_init1(3), WriteOp(2, 7), _gate(3, 0, 1)])
        sim, _, program = _replay_vs_op_by_op(CFG, ops)
        xb, row = RangeMask(0, CFG.crossbars - 1, 1), RangeMask(0, CFG.rows - 1, 1)
        unit = sum(1 << 32 * lane for lane in range(len(xb) * len(row)))
        nor_up = 0
        assert replay.OPCODES[nor_up] == (GateType.NOR, 1, 1)
        # The masks, the whole-column INIT1 and the write are one copy of
        # the image: registers 2 and 3 become the constants 7 and all-ones.
        cells = np.array([(x * CFG.registers + reg) * CFG.rows + r
                          for x in range(CFG.crossbars) for reg in (2, 3)
                          for r in range(CFG.rows)])
        flip = np.where(cells // CFG.rows % CFG.registers == 2, 7, 0xFFFFFFFF)
        copy = replay.CopyRun(cells, cells, np.zeros(len(cells), np.uint32),
                              flip.astype(np.uint32), 4)
        # Mask ids follow the pattern keys: the NOR's (p_end 2) before the
        # INIT1's (p_end 31); both gate runs have 32 lanes, so share one
        # table. The NOR is words from counts: one gate reading 2 planes
        # and writing 1.
        masks = (0b100 * unit, 0xFFFFFFFF * unit)
        assert sim.replay_plan(program).steps == (
            copy,
            replay.GateRun(xb, row, (0, 1, 3), (3,), masks,
                           ((nor_up, 3, 0, 2, 1, 1, 0),),
                           ("gates_per_plane_at_most", 1 / 3)),
        )
        assert sim.replay_plan(program).masks == (xb, row)
        run = sim.replay_plan(program).steps[-1]
        assert list(run) == [run.xb, run.row, run.regs, run.written,
                             run.masks, run.steps, run.rule]
        assert run.summary() == {"lanes": 32, "steps": 1, "fused": 0, "regs": 3,
                                 "masks": 1, "opcodes": {"NOR<<": 1}, "layout": "words",
                                 "gates_per_plane_at_most": 0.333}

    def test_body_program_replays_through_the_reference(self):
        """Gates under caller-set masks: not self-masked, so no static
        bill holds for it and no plan is built."""
        sim, _, program = _replay_vs_op_by_op(
            CFG, [_init1(3), _gate(3, 0, 1)],
            masks=[CrossbarMaskOp(1, 2, 1), RowMaskOp(0, 6, 2)],
            replays=2,
        )
        assert sim.replay_plan(program) is None
        assert sim.replay_counters == {"vectorized": 0, "reference": 2}

    def test_wide_words_vectorize(self):
        """``word_size=64``: one more word format, not a fallback cause."""
        ops = [
            CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1),
            LogicHOp(GateType.INIT1, 0, 0, 3, p_a=0, p_b=0, p_out=0,
                     p_end=63, p_step=1),
            LogicHOp(GateType.NOR, 0, 1, 3, p_a=0, p_b=1, p_out=2,
                     p_end=2, p_step=1),
            LogicHOp(GateType.NOT, 3, 3, 4, p_a=63, p_b=63, p_out=60,
                     p_end=60, p_step=1),
            CrossbarMaskOp(2, 2, 1), RowMaskOp(5, 5, 1), ReadOp(3),
        ]
        sim, _, _ = _replay_vs_op_by_op(WIDE, ops, replays=2)
        assert sim.replay_counters == {"vectorized": 2, "reference": 0}

    def test_strided_moves_on_one_register_and_row(self):
        """The plan's move (slice views) against the reference's (index
        arrays): strided sources interleaved with their destinations on
        the same register and row, sending right and left."""
        config = small_config(crossbars=16, rows=4)
        ops = [RowMaskOp(0, 3, 1)]
        for start, stop, step, dist in (
            (0, 12, 4, 1), (3, 15, 4, -2), (0, 1, 1, 2), (14, 15, 1, -9),
            (5, 5, 1, 10),
        ):
            ops += [CrossbarMaskOp(start, stop, step), MoveOp(dist, 2, 2, 1, 1)]
        sim, _, _ = _replay_vs_op_by_op(config, ops)
        assert sim.replay_counters == {"vectorized": 1, "reference": 0}

    def test_a_write_is_its_words_value_field_or_refused(self):
        """A ``word_size=64`` operation word carries write values below
        ``2**54``: the widest one vectorizes like any write; one bit more
        is no operation of this chip — a typed refusal on every path."""
        limit = 1 << micro_ops.write_value_bits(WIDE.word_size)
        assert limit == 1 << 54 and micro_ops.write_value_bits(32) == 32
        ops = [
            CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1),
            WriteOp(0, limit - 1), WriteOp(1, 1),
            LogicHOp(GateType.INIT1, 0, 0, 3, p_a=0, p_b=0, p_out=0,
                     p_end=63, p_step=1),
            LogicHOp(GateType.NOR, 0, 1, 3, p_a=0, p_b=0, p_out=0,
                     p_end=63, p_step=1),
            CrossbarMaskOp(2, 2, 1), RowMaskOp(5, 5, 1), ReadOp(0),
        ]
        sim, _, program = _replay_vs_op_by_op(WIDE, ops, replays=2)
        assert sim.replay_counters == {"vectorized": 2, "reference": 0}
        assert sim.memory.words[1, 0, 2] == limit - 1
        (copy, _, _) = sim.replay_plan(program).steps  # writes, INIT1; NOR; read
        assert limit - 1 in copy.flip
        assert micro_ops.decode_many(program.encoded(64), 64) == tuple(ops)

        wide = [CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1), WriteOp(0, limit)]
        with pytest.raises(CompileError, match="op 2: write value exceeds"):
            compile_ops(wide, WIDE)
        with pytest.raises(ValueError, match="does not fit in 54 bits"):
            MicroProgram.from_ops(wide, "wide", WIDE)
        sim = Simulator(WIDE)
        before = sim.memory.words.copy()
        with pytest.raises(SimulationError, match="write value exceeds"):
            sim.execute(wide[2])
        assert np.array_equal(sim.memory.words, before) and sim.stats.cycles == 0

    def test_word_formats_share_no_lane_masks(self):
        """A 32- and a 64-bit simulator in one process, same lane count
        and same gate patterns: replicated masks depend on the lane
        width, so neither may see the other's."""
        ops = _masked([_init1(3), _gate(3, 0, 1),
                       _gate(4, 1, 2, gate=GateType.NOT, p_out=0, p_a=1)])
        for config in (CFG, WIDE, CFG, WIDE):
            sim, _, _ = _replay_vs_op_by_op(config, ops)
            assert sim.replay_counters == {"vectorized": 1, "reference": 0}

    def test_wide_regions_plan_as_planes(self):
        """A body's density picks a run's layout at any width, never the
        route: one body under a 16x512 and a 64-lane region plans and
        matches the reference on memory and stats. Short, it is word lanes
        at both widths (its masks replicated per replay above
        ``MAX_WORD_LANES``); long enough for the planes it packs, it is one
        shared bit-plane body at both."""
        big = PIMConfig(crossbars=16, rows=512)
        gates = [_init1(3), _gate(3, 0, 1), _gate(3, 1, 2),
                 _gate(4, 3, 2, gate=GateType.NOT, p_out=5, p_a=1, p_b=1)]
        for repeats, layouts in ((1, (replay.WideGateRun, replay.GateRun)),
                                 (20, (replay.PlaneRun, replay.PlaneRun))):
            ops = ([CrossbarMaskOp(0, 15, 1), RowMaskOp(0, 511, 1)] + gates * repeats
                   + [CrossbarMaskOp(3, 3, 1), RowMaskOp(0, 63, 1)] + gates * repeats)
            sim, _, program = _replay_vs_op_by_op(big, ops, replays=2)
            assert sim.replay_counters == {"vectorized": 2, "reference": 0}
            wide, narrow = [step for step in sim.replay_plan(program).steps
                            if type(step) is not tuple]
            assert (type(wide), type(narrow)) == layouts
            assert wide.summary()["lanes"] == 16 * 512 > replay.MAX_WORD_LANES
            assert narrow.summary()["lanes"] == 64 <= replay.MAX_WORD_LANES
            if repeats > 1:
                assert wide.body is narrow.body

    def test_illegal_htree_move_raises_like_op_by_op(self):
        _raises_like_op_by_op(CFG, _masked([
            _init1(3),
            MoveOp(1, 0, 0, 3, 4),   # all four crossbars sending right
            _init1(4),
        ]))

    def test_multi_row_read_raises_like_op_by_op(self):
        _raises_like_op_by_op(CFG, _masked([_init1(3), ReadOp(3), _init1(4)]))

    def test_out_of_range_mask_raises_like_op_by_op(self):
        _raises_like_op_by_op(CFG, [
            CrossbarMaskOp(0, CFG.crossbars - 1, 1), RowMaskOp(0, 0, 1),
            _init1(3), RowMaskOp(0, CFG.rows, 1), _init1(4),
        ])

    def test_program_replay_info_matches_plan(self):
        """The reported route is the simulator's own (memoized) choice."""
        from repro.backend.simulator import SimulatorBackend

        masked = _masked([_init1(3), _gate(3, 0, 1)])
        big = PIMConfig(crossbars=16, rows=512)
        wide = [CrossbarMaskOp(0, 15, 1), RowMaskOp(0, 511, 1)] + masked[2:]
        for config, ops, engine, self_masked in (
            (CFG, masked, "vectorized", True),
            (CFG, masked[2:], "reference", False),
            (WIDE, masked, "vectorized", True),
            (big, wide, "vectorized", True),
        ):
            backend = SimulatorBackend(config)
            program = MicroProgram.from_ops(ops, "p", config)
            derived = backend.program_replay_info(program)  # not yet run
            backend.simulator.execute_program(program)
            assert backend.program_replay_info(program) == derived
            assert derived["engine"] == engine
            assert derived["self_masked"] is self_masked
            assert family(backend.counters(), "replay")[engine] == 1


    def test_program_replay_info_walks_the_program_once(self, monkeypatch):
        """The program carries its bill: it is walked once, asking again
        (or replaying) never re-walks the ops, and a program that is not
        self-masked — no static bill could hold for it — is not walked
        at all."""
        from repro.backend.simulator import SimulatorBackend
        from repro.sim import simulator

        walks = []
        walk = simulator.accounting_walk
        monkeypatch.setattr(
            simulator, "accounting_walk",
            lambda ops, *args, **kwargs: (
                walks.append(len(ops)) or walk(ops, *args, **kwargs)
            ),
        )
        masked = _masked([_init1(3), _gate(3, 0, 1)] * 25_000)
        # What the one walk sees: the non-gate ops and a tally per stretch
        # of gates (two masks + one tally; one tally), never 50,000 gates.
        for ops, billed, planned in ((masked, 3, True), ([_init1(3)], 1, False)):
            backend = SimulatorBackend(CFG)
            program = MicroProgram.from_ops(ops, "p", CFG)
            del walks[:]
            first = backend.program_replay_info(program)
            backend.simulator.execute_program(program)
            assert backend.program_replay_info(program) == first
            assert walks == ([billed] if planned else [])
            # Pricing reads the same bill (and is what walks the body).
            assert backend.program_stats(program).micro_ops == len(ops)
            assert walks == [billed]


def _word_twin(program, config, bill=None):
    """The same program rebuilt from its operation words, as the
    persistent cache restores it (optionally carrying a bill)."""
    return MicroProgram(
        program.encoded(config.word_size).copy(), program.name,
        program.config_fingerprint, program.reads, program.macros,
        program.source_ops, bill=bill,
    )


class TestPlanRecords:
    """A plan is a function of the program's words, and plain data."""

    @pytest.mark.parametrize("config", [CFG, WIDE], ids=["w32", "w64"])
    def test_plan_from_ops_equals_plan_from_words(self, config):
        ops = _random_self_masked_ops(np.random.default_rng(9), config, 300)
        program = compile_ops(ops, config, optimize=False)
        twin = _word_twin(program, config)
        sim = Simulator(config)
        plan, rebuilt = sim.replay_plan(program), sim.replay_plan(twin)
        assert plan.steps == rebuilt.steps and len(plan.steps) > 100
        assert plan.static_stats == rebuilt.static_stats
        assert hash(plan.steps) == hash(rebuilt.steps)  # records all the way
        assert twin.super_steps == program.super_steps
        # The twin decoded its ops for the bill it did not carry; one that
        # carries it (a cache restore) builds the same plan from columns.
        carried = _word_twin(program, config, bill=program.bill(config))
        assert sim.replay_plan(carried).steps == plan.steps
        assert carried._ops is None

    def test_unread_operand_slots_are_canonical(self):
        """Fields a gate does not read never reach the plan: two programs
        differing only there have equal plans."""
        plans = []
        for junk in (0, 5):
            ops = _masked([
                LogicHOp(GateType.INIT1, junk, junk, 3, p_a=0, p_b=junk,
                         p_out=0, p_end=31, p_step=1),
                LogicHOp(GateType.NOT, 1, junk, 3, p_a=4, p_b=4 + junk,
                         p_out=2, p_end=2, p_step=1),
            ])
            sim, _, program = _replay_vs_op_by_op(CFG, ops)
            plans.append(sim.replay_plan(program).steps)
        assert plans[0] == plans[1]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 160),
           config=st.sampled_from([CFG, WIDE]))
    def test_plan_replay_agrees_with_the_execute_loop(self, seed, length, config):
        ops = _random_self_masked_ops(np.random.default_rng(seed), config, length)
        program = _word_twin(compile_ops(ops, config, optimize=False), config)
        reference, sim = Simulator(config), Simulator(config)
        for chip in (reference, sim):
            _seed_memory(chip.memory, np.random.default_rng(seed + 1))
        expected = None
        for op in ops:
            result = reference.execute(op)
            expected = result if result is not None else expected
        assert sim.execute_program(program) == expected
        assert np.array_equal(sim.memory.words, reference.memory.words)
        assert sim.stats == reference.stats
        assert sim.replay_counters == {"vectorized": 1, "reference": 0}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 80),
           size=st.sampled_from(sorted(BIG)), lanes=st.sampled_from(sorted(BIG_REGIONS)))
    def test_a_stored_plan_loads_as_the_derived_plan(self, seed, length, size, lanes):
        """Store -> load: the plan made from an entry's columns is the
        plan derived from its words, with the same bill, and replays to
        the same memory, read and ``SimStats``. Under the drawn region, a
        dense body (planes) and a one-gate one (words, masks replicated
        per replay above ``MAX_WORD_LANES``), then random ops."""
        config = BIG[size]
        xb, row = BIG_REGIONS[lanes]
        ops = ([CrossbarMaskOp(*xb), RowMaskOp(*row)] + [_gate(3, 0, 1)] * 48
               + [WriteOp(5, 1), _init1(4, p_end=30)]
               + _random_self_masked_ops(np.random.default_rng(seed), config, length))
        program = compile_ops(ops, config, optimize=False)
        deriving, loading = Simulator(config), Simulator(config)
        with tempfile.TemporaryDirectory() as directory:
            PersistentProgramCache(directory, config, planner=deriving).store("p", program)
            loaded = PersistentProgramCache(directory, config, planner=loading).load("p")
        derived, restored = deriving.replay_plan(program), loading.replay_plan(loaded)
        assert (derived.source, restored.source) == ("derived", "loaded")
        assert restored.steps == derived.steps
        assert restored.static_stats == derived.static_stats
        words = replay.WideGateRun if lanes > replay.MAX_WORD_LANES else replay.GateRun
        assert {replay.PlaneRun, words} <= {type(step) for step in derived.steps}
        for chip in (deriving, loading):
            _seed_memory(chip.memory, np.random.default_rng(seed + 1))
        assert loading.execute_program(loaded) == deriving.execute_program(program)
        assert np.array_equal(loading.memory.words, deriving.memory.words)
        assert loading.stats == deriving.stats


class TestSharedRecords:
    """A plan holds one record object per distinct gate record: lane-free
    records shared by every run, out-masks in one table per lane count."""

    def test_one_slice_under_two_row_masks_shares_its_records(self):
        body = [_init1(3), _gate(3, 0, 1), _gate(4, 3, 2, p_out=5, p_a=1, p_b=6)]
        ops = _masked(body + [RowMaskOp(0, 3, 1)] + body)
        sim, _, program = _replay_vs_op_by_op(CFG, ops, replays=2)
        wide, narrow = [s for s in sim.replay_plan(program).steps
                        if type(s) is replay.GateRun]
        assert wide.steps == narrow.steps
        assert all(a is b for a, b in zip(wide.steps, narrow.steps))
        assert len(wide.xb) * len(wide.row) == 32
        assert len(narrow.xb) * len(narrow.row) == 16
        assert wide.masks != narrow.masks

    def test_the_session_plan_holds_one_object_per_distinct_record(
        self, session_plan
    ):
        """Its word runs' records are lane-table records, one object each;
        its long fp bodies are dense enough for planes."""
        program, config, runs = session_plan
        table = replay.lane_table(program.gate_table, config.partitions)[0]
        records = set(zip(*table.tolist()))
        words = [run for run in runs if type(run) is replay.GateRun]
        objects = {id(record) for run in words for record in run.steps}
        values = {record for run in words for record in run.steps}
        assert len(objects) == len(values) and values <= records
        assert len(records) == 12706
        assert sum(len(run.steps) for run in words) > len(values)
        assert {run.body.gates for run in runs if type(run) is replay.PlaneRun} == {
            5615, 5619, 25142}

    def test_a_widths_mask_table_holds_exactly_the_ids_its_runs_read(
        self, session_plan
    ):
        program, config, runs = session_plan
        masks = replay.lane_table(program.gate_table, config.partitions)[2]
        by_width = {}
        for run in (run for run in runs if type(run) is replay.GateRun):
            by_width.setdefault(len(run.xb) * len(run.row), []).append(run)
        assert len(by_width) > 2
        for lanes, group in by_width.items():
            table = group[0].masks
            assert all(run.masks is table for run in group)
            read = {record[6] for run in group for record in run.steps}
            assert {m for m, rep in enumerate(table) if rep is not None} == read
            unit = sum(1 << 32 * lane for lane in range(lanes))
            assert all(table[m] == masks[m] * unit for m in read)


def _h_word(**fields):
    """A LOGIC_H operation word packed field by field — past the
    constructor, the way a damaged cache entry holds it."""
    values = dict(gate=GateType.INIT1, in_a=0, in_b=0, out=3, p_a=0, p_b=0,
                  p_out=0, p_end=31, p_step=1)
    values.update(fields)
    word, shift = int(micro_ops._Kind.LOGIC_H) << 61, 0
    for name, width in micro_ops._LAYOUT[micro_ops._Kind.LOGIC_H][1]:
        word |= int(values[name]) << shift
        shift += width
    return word


class TestColumnPathRejections:
    """A words-born program is checked as thoroughly by the column path
    as ``decode_many`` / ``_pattern_mask`` check op objects: same
    exception type, same message, no memory touched, no op decoded."""

    @staticmethod
    def _program(*bad_words):
        words = micro_ops.encode_many(_masked([_init1(3)])).tolist()
        return MicroProgram(
            np.array(words + list(bad_words), dtype=np.uint64), "bad",
            config_fingerprint(CFG),
            bill=SimStats(),  # carried, as a cache restore carries it
        )

    def _assert_raises_like(self, program, expected):
        sim = Simulator(CFG)
        before = sim.memory.words.copy()
        with pytest.raises(type(expected.value)) as raised:
            sim.execute_program(program)
        assert str(raised.value) == str(expected.value)
        assert np.array_equal(sim.memory.words, before) and sim.stats.cycles == 0
        assert program._ops is None

    @pytest.mark.parametrize("word, message", [
        (_h_word(p_a=2, p_b=1), "p_a <= p_b"),
        (_h_word(p_step=0), "p_step must be positive"),
        (_h_word(p_out=4, p_end=2), "p_end must be >= p_out"),
        (_h_word(p_out=0, p_end=5, p_step=2), "p_step must divide"),
        (7 << 61, "7 is not a valid _Kind"),
        (micro_ops.encode(LogicVOp(GateType.NOT, 0, 1, 3)) | 1, "vertical"),
    ], ids=["pa>pb", "step0", "end<out", "nondividing", "tag7", "vnor"])
    def test_constructor_invariants(self, word, message):
        program = self._program(word)
        with pytest.raises(ValueError, match=message) as expected:
            micro_ops.decode_many(program.encoded(CFG.word_size))
        self._assert_raises_like(program, expected)

    def test_pattern_expand_pattern_refuses(self):
        # Two NOR sections one partition apart: gate 1's output partition
        # is gate 0's input section.
        word = _h_word(gate=GateType.NOR, in_a=0, in_b=1, p_a=0, p_b=1,
                       p_out=2, p_end=4, p_step=1)
        with pytest.raises(ValueError) as expected:
            Simulator(CFG).execute(micro_ops.decode(word))
        self._assert_raises_like(self._program(word), expected)

    def test_out_mask_meeting_the_spill_window(self, monkeypatch):
        monkeypatch.setattr(replay, "pattern_outputs", lambda *fields: (0b110, 2))
        replay._pattern_mask.cache_clear()
        try:
            with pytest.raises(SimulationError, match="spill") as expected:
                replay._pattern_mask(GateType.NOR, 0, 1, 2, 7, 5, CFG.partitions)
            word = _h_word(gate=GateType.NOR, p_a=0, p_b=1, p_out=2, p_end=7,
                           p_step=5)
            self._assert_raises_like(self._program(word), expected)
        finally:
            replay._pattern_mask.cache_clear()

    def test_foreign_fingerprint_is_refused(self):
        program = compile_ops(_masked([_init1(3)]), WIDE, optimize=False)
        with pytest.raises(SimulationError, match="compiled for fingerprint"):
            Simulator(CFG).execute_program(_word_twin(program, WIDE))

    def test_a_program_is_only_ever_its_words(self):
        """No second representation: the constructor takes a 1-D
        ``np.uint64`` array and nothing else, and an op no word holds is
        refused where the program would be born — at the field's limit it
        is a program like any other."""
        ops = _masked([_init1(3)])
        words = micro_ops.encode_many(ops)
        fingerprint = MicroProgram.from_ops(ops, "p", CFG).config_fingerprint
        for not_words in (tuple(ops), words.tolist(), words.astype(np.int64),
                          words.reshape(1, -1)):
            with pytest.raises(TypeError, match="1-D np.uint64"):
                MicroProgram(not_words, "p", fingerprint)
        assert MicroProgram(words, "p", fingerprint).ops == tuple(ops)

        tall = PIMConfig(crossbars=4, rows=8, columns=4096)  # 128 registers
        top = LogicHOp(GateType.NOT, 127, 0, 4, 0, 0, 0, 0, 1)
        program = compile_ops(
            [CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1), _init1(4), top],
            tall, optimize=False,
        )
        assert program.ops[-1] == top and program.self_masked
        assert Simulator(tall).replay_plan(program) is not None
        beyond = [LogicHOp(GateType.NOT, 128, 0, 4, 0, 0, 0, 0, 1)]
        with pytest.raises(CompileError, match="op 0: intra-row index 128"):
            compile_ops(beyond, tall)
        with pytest.raises(ValueError, match="in_a does not fit in 7 bits"):
            MicroProgram.from_ops(beyond, "beyond", tall)
        # Valid for the chip's own checks, yet no word holds it (a step wider
        # than its field on a one-index mask): refused at compile, typed.
        with pytest.raises(CompileError, match="step does not fit in 12 bits"):
            compile_ops([RowMaskOp(5, 5, 5000)], tall)


class TestRegionCachePersistence:
    """Nothing is cached across replays of a caller-mask program."""

    def test_body_program_under_changed_masks_stays_correct(self):
        """A body program replayed under different caller-set masks must
        act on the masks of the moment, not those of its first replay."""
        program = MicroProgram.from_ops([_init1(3)], "body", CFG)
        sim = Simulator(CFG)
        sim.execute(CrossbarMaskOp(0, 0, 1))
        sim.execute(RowMaskOp(0, 0, 1))
        sim.execute_program(program)
        assert sim.memory.words[0, 3, 0] == sim.memory.word_mask
        assert sim.memory.words[1, 3, 1] == 0

        sim.execute(CrossbarMaskOp(1, 1, 1))
        sim.execute(RowMaskOp(1, 1, 1))
        sim.execute_program(program)
        assert sim.memory.words[1, 3, 1] == sim.memory.word_mask
        assert sim.memory.words[2, 3, 2] == 0
        assert sim.replay_counters == {"vectorized": 0, "reference": 2}


class TestDenseLanes:
    """Lanes are exactly as wide as the dtype; no guard space is needed
    because a shifted input's spill never meets the out-mask."""

    @pytest.mark.parametrize("partitions", [16, 32, 64])
    @pytest.mark.parametrize("gate", [GateType.NOT, GateType.NOR])
    def test_spill_windows_never_meet_the_out_mask(self, gate, partitions):
        width = 32 if partitions <= 32 else 64  # the memory dtype's bits
        rng = np.random.default_rng(partitions)
        shifts = set()
        for _ in range(1500):
            fields = _random_pattern(rng, gate, partitions)
            op = LogicHOp(gate, 0, 0, 0, **fields)
            out_mask = 0
            for _, out_p in expand_pattern(op, partitions):
                out_mask |= 1 << out_p
            inputs = (op.p_a, op.p_b) if gate == GateType.NOR else (op.p_a,)
            for shift in (op.p_out - p_in for p_in in inputs):
                shifts.add(shift)
                if shift > 0:  # lane i's top bits land in [0, s) of lane i+1
                    assert out_mask & ((1 << shift) - 1) == 0
                elif shift < 0:  # lane i+1's low bits land in [W-s, W)
                    assert out_mask >> (width + shift) == 0
            # ... and the memoized pattern check agrees.
            assert replay._pattern_mask(
                gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step,
                partitions,
            )[0] == out_mask
        assert min(shifts) < 0 < max(shifts)  # both directions swept

    def test_corrupted_pattern_mask_raises(self, monkeypatch):
        """An out-mask inside a spill window is an error, not silent
        cross-lane corruption."""
        monkeypatch.setattr(
            replay, "pattern_outputs",
            # Gates ((0, 1) -> 2) and ((5, 6) -> 1): the second gate's
            # output sits below the first gate's shift of 2.
            lambda *fields: (0b110, 2),
        )
        replay._pattern_mask.cache_clear()
        try:
            with pytest.raises(SimulationError, match="spill"):
                replay._pattern_mask(GateType.NOR, 0, 1, 2, 7, 5, 32)
        finally:
            replay._pattern_mask.cache_clear()


class TestLaneHelpers:
    """Lane width is the dtype's: both word formats round-trip."""

    @staticmethod
    def _memories():
        for config in (CFG, WIDE):
            memory = CrossbarMemory(config)
            yield memory, 8 * memory.dtype.itemsize

    def test_pack_unpack_roundtrip(self):
        for memory, lane in self._memories():
            _seed_memory(memory, np.random.default_rng(7))
            xb = RangeMask(0, 2, 2)
            row = RangeMask(1, 5, 2)
            before = memory.words.copy()
            packed = memory.pack_lanes(xb, 2, row)
            assert packed.bit_length() <= len(xb) * len(row) * lane
            memory.unpack_lanes(xb, 2, row, packed)
            assert np.array_equal(memory.words, before)

    def test_unpack_writes_only_the_region(self):
        for memory, lane in self._memories():
            xb, row = RangeMask(1, 1, 1), RangeMask(2, 3, 1)
            value = memory.pack_lanes(xb, 0, row) | 0b101 | (0b11 << lane)
            memory.unpack_lanes(xb, 0, row, value)
            assert memory.words[1, 0, 2] == 0b101
            assert memory.words[1, 0, 3] == 0b11
            assert memory.words.sum() == 0b101 + 0b11  # nothing else touched
