"""Bit-plane replay: wide gate runs as one integer per (register, partition).

Covers the obligations of ``repro.sim.replay.PlaneRun``:

- random self-masked programs at 1, 4, 64, 65, 128 and 16x512 lanes,
  on 16-, 32- and 64-partition chips: bit-planes, word lanes (with wide
  runs' masks replicated at build or per replay) and
  ``Simulator.execute`` leave the same memory, the same read responses
  and the same ``SimStats`` (cycles included);
- the plan-build check that makes per-plane evaluation exact — a gate
  reading another of its own output planes raises ``SimulationError``
  before anything replays;
- the layout rule: planes for runs with ``MIN_GATES_PER_PLANE`` gates per
  plane they pack, at any width; a body the counts reject is never
  derived, and no body is derived twice in a plan;
- the per-record derivation equals the per-gate one it replaced
  (``reference_plane_body``, kept here as the reference) with each INIT1
  folded into the NOT or NOR consuming it (``reference_fuse``, a plain
  loop); fused and unfused bodies replay to the same memory, reads and
  ``SimStats``, and the hand-written cases pin what must not fuse;
- plane records are plain, deduplicated data shared across plans for as
  long as a plan holds them, and the plane pack / unpack helpers
  round-trip and touch only the named planes.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import PIMConfig
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
    write_value_bits,
)
from repro.driver.program import MicroProgram
from repro.sim import replay
from repro.sim.memory import CrossbarMemory
from repro.sim.simulator import SimulationError, Simulator

#: One chip per partition count, each 16 crossbars x 512 rows, 32 registers.
CHIPS = {
    partitions: PIMConfig(crossbars=16, rows=512, columns=32 * partitions,
                          partitions=partitions, word_size=partitions)
    for partitions in (16, 32, 64)
}

#: ``(crossbar mask, row mask)`` per lane count, strided ones included.
REGIONS = {
    1: ((5, 5, 1), (7, 7, 1)),
    4: ((2, 8, 2), (9, 9, 1)),
    64: ((0, 3, 1), (0, 15, 1)),
    65: ((0, 4, 1), (0, 12, 1)),
    128: ((0, 14, 2), (1, 31, 2)),
    16 * 512: ((0, 15, 1), (0, 511, 1)),
}


def _pattern(rng, gate, partitions):
    """Pattern fields ``expand_pattern`` accepts, shifts both ways."""
    while True:
        p_out = int(rng.integers(0, partitions))
        p_step = int(rng.integers(1, 9))
        p_end = p_out + p_step * int(rng.integers(0, 4))
        p_a, p_b = sorted(p_out + int(d) for d in rng.integers(-4, 5, size=2))
        fields = dict(p_a=p_a, p_b=p_b, p_out=p_out, p_end=p_end, p_step=p_step)
        if p_a < 0 or p_b > 63:
            continue
        try:
            expand_pattern(LogicHOp(gate, 0, 0, 0, **fields), partitions)
        except ValueError:
            continue
        return fields


def _program_ops(rng, config, region, length, initialized=0.0):
    """A self-masked stream whose gate runs sit under ``region``: gates on
    a few registers (so outputs alias inputs), broken by writes, vertical
    gates and moves; single-cell masks and a read at the end. A NOT or NOR
    is preceded, with probability ``initialized``, by an INIT1 of its
    output pattern, as the driver emits them."""
    xb, row = region
    masks = [CrossbarMaskOp(*xb), RowMaskOp(*row)]
    ops = list(masks)
    registers = 6
    for _ in range(length):
        roll = rng.random()
        if roll < 0.8:
            gate = GateType(int(rng.integers(0, 4)))
            out, in_a, in_b = (int(r) for r in rng.integers(0, registers, 3))
            pattern = _pattern(rng, gate, config.partitions)
            if gate >= GateType.NOT and rng.random() < initialized:
                ops.append(LogicHOp(GateType.INIT1, 0, 0, out, **pattern))
            ops.append(LogicHOp(gate, in_a, in_b, out, **pattern))
        elif roll < 0.88:
            bits = write_value_bits(config.word_size)
            ops.append(WriteOp(int(rng.integers(0, registers)),
                               int(rng.integers(0, 1 << min(bits, 62)))))
        elif roll < 0.94:
            ops.append(LogicVOp(GateType(int(rng.integers(0, 3))),
                                int(rng.integers(0, config.rows)),
                                int(rng.integers(0, config.rows)),
                                int(rng.integers(0, registers))))
        else:
            src = int(rng.integers(0, config.crossbars - 1))
            ops += [CrossbarMaskOp(src, src, 1),
                    MoveOp(1, 0, 0, int(rng.integers(0, registers)),
                           int(rng.integers(0, registers)))] + masks
    return ops + [CrossbarMaskOp(xb[0], xb[0], 1), RowMaskOp(row[0], row[0], 1),
                  ReadOp(int(rng.integers(0, registers)))]


def _seeded(config, seed):
    sim = Simulator(config)
    sim.memory.words[...] = np.random.default_rng(seed).integers(
        0, int(sim.memory.word_mask), size=sim.memory.words.shape,
        dtype=sim.memory.dtype, endpoint=True,
    )
    return sim


@pytest.fixture
def any_length_planes(monkeypatch):
    """Let a run of any length be bit-planes."""
    monkeypatch.setattr(replay, "MIN_GATES_PER_PLANE", 0)


def _replayed(config, program, seed, word_lanes, min_gates):
    """A fresh chip's replay of ``program`` with runs of ``min_gates``
    gates per plane as bit-planes, the others as word lanes (their masks
    replicated per replay above ``word_lanes`` lanes)."""
    sim = _seeded(config, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay, "MAX_WORD_LANES", word_lanes)
        patch.setattr(replay, "MIN_GATES_PER_PLANE", min_gates)
        response = sim.execute_program(program)
    return sim, response


#: Per layout: ``(word_lanes, min_gates)`` making every run of it, and
#: the run types a plan may then hold.
LAYOUTS = {
    "planes": (64, 0, {replay.PlaneRun}),
    "words": (1 << 30, float("inf"), {replay.GateRun}),
    "wide words": (64, float("inf"), {replay.GateRun, replay.WideGateRun}),
}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lanes=st.sampled_from(sorted(REGIONS)),
       partitions=st.sampled_from(sorted(CHIPS)), length=st.integers(1, 60))
def test_planes_words_and_execute_agree(seed, lanes, partitions, length):
    config = CHIPS[partitions]
    ops = _program_ops(np.random.default_rng(seed), config, REGIONS[lanes], length)
    program = MicroProgram.from_ops(ops, "p", config)

    reference = _seeded(config, seed)
    expected = None
    for op in ops:
        result = reference.execute(op)
        expected = result if result is not None else expected

    for name, (word_lanes, min_gates, types) in LAYOUTS.items():
        sim, response = _replayed(config, program, seed, word_lanes, min_gates)
        kinds = {type(step) for step in sim.replay_plan(program).steps} - {tuple}
        assert kinds <= types, name
        assert response == expected, name
        assert np.array_equal(sim.memory.words, reference.memory.words), name
        assert sim.stats == reference.stats, name
        assert sim.stats.cycles == reference.stats.cycles
        assert sim.replay_counters == {"vectorized": 1, "reference": 0}


def _unfused(distinct, ids):
    """``replay._fuse_init1`` switched off."""
    return distinct, ids


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lanes=st.sampled_from([1, 64, 65, 16 * 512]),
       partitions=st.sampled_from(sorted(CHIPS)), length=st.integers(1, 60))
def test_fused_and_unfused_planes_agree(seed, lanes, partitions, length):
    """Folding INIT1s into their consumers changes no memory, read or
    ``SimStats``, and only ever shortens a body."""
    config = CHIPS[partitions]
    ops = _program_ops(np.random.default_rng(seed), config, REGIONS[lanes], length,
                       initialized=0.7)
    program = MicroProgram.from_ops(ops, "p", config)
    fused, response = _replayed(config, program, seed, 64, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay, "_fuse_init1", _unfused)
        unfused, expected = _replayed(config, program, seed, 64, 0)
    assert response == expected
    assert np.array_equal(fused.memory.words, unfused.memory.words)
    assert fused.stats == unfused.stats
    runs = [[s for s in sim.replay_plan(program).steps if type(s) is replay.PlaneRun]
            for sim in (fused, unfused)]
    for short, full in zip(*runs):
        summary = short.summary()
        assert summary["steps"] + summary["fused"] == len(full.body.steps)
        assert full.summary()["fused"] == 0


def _bodies(config, region):
    """One gate run each: a long body on three planes (48 gates per packed
    plane: its output plane is both read and written) and a one-gate body
    writing 32 planes."""
    single = dict(p_a=0, p_b=1, p_out=2, p_end=2, p_step=1)
    long = [LogicHOp(GateType.NOR, 0, 1, 3, **single)] * 192
    short = [LogicHOp(GateType.INIT1, 0, 0, 4, 0, 0, 0, 31, 1)]
    return [[CrossbarMaskOp(*region[0]), RowMaskOp(*region[1])] + body
            for body in (long, short)]


def test_wide_long_runs_are_planes_and_the_rest_words():
    """``MIN_GATES_PER_PLANE`` gates per packed plane make a plane run at
    every width (1 to 16x512 lanes); any other run packs words, its masks
    replicated per replay above ``MAX_WORD_LANES`` lanes. Each run reports
    the rule's input: the long body's 48 gates per plane, the short one's
    count bound (one gate, 32 written planes)."""
    config = CHIPS[32]
    assert sorted(REGIONS) == [1, 4, 64, 65, 128, 16 * 512]
    for lanes, region in REGIONS.items():
        for ops, long in zip(_bodies(config, region), (True, False)):
            program = MicroProgram.from_ops(ops, "p", config)
            sim, reference = _seeded(config, 1), _seeded(config, 1)
            sim.execute_program(program)
            for op in ops:
                reference.execute(op)
            assert np.array_equal(sim.memory.words, reference.memory.words)
            (run,) = [s for s in sim.replay_plan(program).steps if type(s) is not tuple]
            summary = run.summary()
            assert summary["layout"] == ("planes" if long else "words")
            assert summary["lanes"] == lanes
            if long:
                assert summary["gates_per_plane"] == 48.0
            else:
                assert summary["gates_per_plane_at_most"] == round(1 / 32, 3)
                wide = lanes > replay.MAX_WORD_LANES
                assert type(run) is (replay.WideGateRun if wide else replay.GateRun)
                if wide:  # masks kept unreplicated: one lane wide
                    assert max(filter(None, run.masks)) < 1 << config.word_size


def reference_plane_body(table, masks, run_ids):
    """The per-gate derivation ``derive_plane_body`` replaced, kept as its
    reference: ``(read, written, steps)`` of the gates whose lane-table
    rows are ``run_ids`` of ``table`` (one record per row), expanding every
    gate, not every distinct record."""
    code, out, a, shift_a, b, shift_b, mask_id = table[run_ids].T.astype(np.int64)
    bits = np.arange(64, dtype=np.uint64)
    is_output = ((np.array(masks, np.uint64)[:, None] >> bits) & 1 > 0)[mask_id]
    of, part = np.nonzero(is_output)
    planes = [out[of] << 6 | part]
    for reg, shift, sign in ((a, shift_a, replay._SIGN_A), (b, shift_b, replay._SIGN_B)):
        planes.append(reg[of] << 6 | part - (sign[code] * shift)[of])
    gate = replay._GATE_OF[code][of]
    steps = tuple(zip(gate.tolist(), *(plane.tolist() for plane in planes)))
    out, a, b = planes
    touched, seen = np.unique(np.stack((a, b, out), axis=1), return_index=True)
    reads = gate[seen // 3] >= GateType.NOT  # first touched by a read
    return tuple(touched[reads].tolist()), tuple(np.unique(out).tolist()), steps


def reference_fuse(steps):
    """``derive_plane_body``'s INIT1 folding as a plain loop over plane
    steps: an INIT1 whose plane's next writer is a NOT or NOR, with no
    read of the plane before that writer's write, becomes that writer
    with gate ``+ 2`` (INIT1+NOT 4, INIT1+NOR 5)."""
    steps, dropped = list(steps), set()
    for i, (gate, out, _, _) in enumerate(steps):
        if gate != GateType.INIT1:
            continue
        for j in range(i + 1, len(steps)):
            later, o, a, b = steps[j]
            reads_as = later - 2 if later > GateType.NOR else later  # a fused step
            reads = {GateType.NOT: (a,), GateType.NOR: (a, b)}.get(reads_as, ())
            if out in reads:
                break
            if o == out:
                if later in (GateType.NOT, GateType.NOR):
                    steps[j] = (later + 2, o, a, b)
                    dropped.add(i)
                break
    return tuple(step for i, step in enumerate(steps) if i not in dropped)


def _gate_runs(program, config):
    """``(table, masks, run ids per gate run)`` of a program."""
    table, ids, masks = replay.lane_table(program.gate_table, config.partitions)
    runs, done = [], 0
    for segment in program.super_steps:
        if segment.kind == "gates":
            runs.append(ids[done : done + len(segment)])
            done += len(segment)
    return table, masks, runs


def _assert_derivation_is_the_reference(program, config):
    table, masks, runs = _gate_runs(program, config)
    bodies = [replay.materialise_body(replay.derive_plane_body(table, masks, run), len(run))
              for run in runs]
    for run, body in zip(runs, bodies):
        read, written, steps = reference_plane_body(table.T, masks, run)
        assert (body.read, body.written, body.steps) == (read, written, reference_fuse(steps))
        assert body.gates == len(run)
    return bodies


class TestDerivation:
    """Plane bodies are derived once per distinct record and equal the
    per-gate derivation; the counts reject short bodies first."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), partitions=st.sampled_from(sorted(CHIPS)),
           length=st.integers(1, 60))
    def test_equals_the_per_gate_reference(self, seed, partitions, length):
        config = CHIPS[partitions]
        ops = _program_ops(np.random.default_rng(seed), config, REGIONS[4], length,
                           initialized=0.5)
        _assert_derivation_is_the_reference(MicroProgram.from_ops(ops, "p", config), config)

    def test_equals_the_per_gate_reference_on_the_session_plan(self, session_plan):
        program, config, runs = session_plan
        bodies = _assert_derivation_is_the_reference(program, config)
        assert len(bodies) == len(runs) > 80
        for run, body in zip(runs, bodies):  # the plan's own bodies too
            if type(run) is replay.PlaneRun:
                assert run.body == body

    def test_fusion_halves_the_session_plan(self, session_plan):
        """Half the session plan's plane steps are INIT1s their consumers
        absorb: 107,866 plane steps unfused, 53,993 fused."""
        _, _, runs = session_plan
        planes = [run.summary() for run in runs if type(run) is replay.PlaneRun]
        assert sum(summary["steps"] for summary in planes) == 53_993
        assert sum(summary["fused"] for summary in planes) == 107_866 - 53_993

    def test_counts_reject_first_and_no_body_is_derived_twice(self, monkeypatch):
        """A dense body at two regions, a sparse one twice and a one-gate
        body: the first two bodies are derived once each. The sparse body
        passes the counts (3 planes at least, 6 gates) but packs 5 planes
        (its output planes are read first): it is words, as the one-gate
        body (32 written planes) is from counts, never derived."""
        derived = []
        derive = replay.derive_plane_body

        def counted(table, masks, run):
            derived.append(run.tobytes())
            return derive(table, masks, run)

        monkeypatch.setattr(replay, "derive_plane_body", counted)
        config = CHIPS[32]
        dense, init = _bodies(config, REGIONS[1])
        sparse = [LogicHOp(GateType.NOT, 4, 4, 3, 0, 0, 0, 0, 1),
                  LogicHOp(GateType.NOT, 5, 5, 4, 0, 0, 0, 0, 1)] * 3
        other = [CrossbarMaskOp(*REGIONS[65][0]), RowMaskOp(*REGIONS[65][1])]
        ops = (dense + other + dense[2:] + dense[:2] + sparse + other + sparse
               + init)  # one run per region switch
        program = MicroProgram.from_ops(ops, "p", config)
        sim, reference = _seeded(config, 4), _seeded(config, 4)
        sim.execute_program(program)
        for op in ops:
            reference.execute(op)
        assert np.array_equal(sim.memory.words, reference.memory.words)

        runs = [s for s in sim.replay_plan(program).steps if type(s) is not tuple]
        ids = _gate_runs(program, config)[2]
        assert derived == [ids[0].tobytes(), ids[2].tobytes()]
        assert ids[1].tobytes() == ids[0].tobytes() and ids[3].tobytes() == ids[2].tobytes()
        assert [type(run).__name__ for run in runs] == [
            "PlaneRun", "PlaneRun", "GateRun", "WideGateRun", "GateRun"]
        assert runs[0].body is runs[1].body
        assert runs[2].rule == runs[3].rule == ("gates_per_plane", 6 / 5)
        assert runs[4].rule == ("gates_per_plane_at_most", 1 / 32)
        assert runs[2].summary()["gates_per_plane"] == 1.2


#: Lane-table opcodes at shift 0 of the hand-written fusion cases.
INIT0, INIT1, NOT, NOR = (replay.OPCODES.index((gate, 0, 0)) for gate in GateType)


def _derived(*gates, masks=(0b1,)):
    """The body of ``(opcode, out, a, b, mask id)`` gates at shift 0 (an
    unread operand is ``out``), one lane-table row each."""
    table = np.array([(code, out, a, 0, b, 0, m) for code, out, a, b, m in gates]).T
    return replay.materialise_body(
        replay.derive_plane_body(table, list(masks), np.arange(len(gates))), len(gates))


def P(reg, partition=0):
    return reg << 6 | partition


class TestFusion:
    """An INIT1 is folded only into its plane's next writer, a NOT or NOR,
    when nothing reads the plane before that writer writes it."""

    def test_an_init1_folds_into_its_nor_or_not(self):
        assert _derived((INIT1, 3, 3, 3, 0), (NOR, 3, 0, 1, 0)).steps == (
            (5, P(3), P(0), P(1)),)
        assert _derived((INIT1, 3, 3, 3, 0), (NOT, 3, 0, 3, 0)).steps == (
            (4, P(3), P(0), P(3)),)

    def test_a_plane_read_before_its_nor_is_not_fused(self):
        assert _derived((INIT1, 3, 3, 3, 0), (NOT, 4, 3, 4, 0), (NOR, 3, 0, 1, 0)).steps == (
            (1, P(3), P(3), P(3)), (2, P(4), P(3), P(4)), (3, P(3), P(0), P(1)))

    def test_a_nor_reading_its_own_output_is_not_fused(self):
        for a, b in ((3, 1), (1, 3)):
            assert _derived((INIT1, 3, 3, 3, 0), (NOR, 3, a, b, 0)).steps == (
                (1, P(3), P(3), P(3)), (3, P(3), P(a), P(b)))
        assert _derived((INIT1, 3, 3, 3, 0), (NOT, 3, 3, 3, 0)).steps == (
            (1, P(3), P(3), P(3)), (2, P(3), P(3), P(3)))

    def test_an_init1_before_an_init_is_not_fused(self):
        assert _derived((INIT1, 3, 3, 3, 0), (INIT0, 3, 3, 3, 0)).steps == (
            (1, P(3), P(3), P(3)), (0, P(3), P(3), P(3)))
        assert _derived((INIT1, 3, 3, 3, 0), (INIT1, 3, 3, 3, 0), (NOR, 3, 0, 1, 0)).steps == (
            (1, P(3), P(3), P(3)), (5, P(3), P(0), P(1)))

    def test_a_planes_last_writer_is_not_fused(self):
        assert _derived((NOR, 3, 0, 1, 0), (INIT1, 3, 3, 3, 0)).steps == (
            (3, P(3), P(0), P(1)), (1, P(3), P(3), P(3)))
        assert _derived((INIT1, 3, 3, 3, 0), (NOT, 4, 3, 4, 0)).steps == (
            (1, P(3), P(3), P(3)), (2, P(4), P(3), P(4)))

    def test_a_wide_init1_fuses_only_the_planes_its_nor_covers(self):
        body = _derived((INIT1, 3, 3, 3, 0), (NOR, 3, 0, 1, 1), masks=(0b1111, 0b100))
        assert body.steps == ((1, P(3, 0), P(3, 0), P(3, 0)), (1, P(3, 1), P(3, 1), P(3, 1)),
                              (1, P(3, 3), P(3, 3), P(3, 3)), (5, P(3, 2), P(0, 2), P(1, 2)))
        assert body.written == (P(3, 0), P(3, 1), P(3, 2), P(3, 3))
        assert body.read == (P(0, 2), P(1, 2))


class TestOverlapCheck:
    """Per-plane evaluation is exact only because no gate reads another of
    its own output planes; the builder checks it, like the spill check."""

    def test_a_record_reading_its_own_output_plane_raises(self):
        nor_up = replay.OPCODES.index((GateType.NOR, 1, 1))
        # Output partitions 1 and 2 of register 3; the gate at partition 2
        # reads partition 1 of register 3 (shift 1) — an output plane.
        record = (nor_up, 3, 3, 1, 4, 1, 0)
        with pytest.raises(SimulationError, match="own"):
            replay.derive_plane_body(np.array([record]).T, [0b110], np.array([0]))
        # Shift 0 on its own output, or another register: exact, accepted.
        body = replay.materialise_body(replay.derive_plane_body(
            np.array([(nor_up, 3, 4, 1, 5, 1, 0)]).T, [0b110], np.array([0])), 1)
        assert body.steps == ((GateType.NOR, 3 << 6 | 1, 4 << 6 | 0, 5 << 6 | 0),
                              (GateType.NOR, 3 << 6 | 2, 4 << 6 | 1, 5 << 6 | 1))
        assert body.read == (3 << 6 | 1, 3 << 6 | 2, 4 << 6 | 0, 4 << 6 | 1,
                             5 << 6 | 0, 5 << 6 | 1)
        assert body.written == (3 << 6 | 1, 3 << 6 | 2)

    @pytest.mark.usefixtures("any_length_planes")
    def test_the_program_raises_at_plan_build_and_never_replays(self, monkeypatch):
        # A pattern table that overlaps two gates' sections: outputs 1 and
        # 2, each NOR reading partition p - 1 of its own register. (Only a
        # body that is derived is checked: planes are forced.)
        monkeypatch.setattr(replay, "pattern_outputs", lambda *fields: (0b110, 2))
        replay._pattern_mask.cache_clear()
        try:
            config = CHIPS[32]
            xb, row = REGIONS[128]
            ops = [CrossbarMaskOp(*xb), RowMaskOp(*row),
                   LogicHOp(GateType.NOR, 3, 3, 3, p_a=0, p_b=0, p_out=1,
                            p_end=2, p_step=1)]
            program = MicroProgram.from_ops(ops, "overlap", config)
            sim = _seeded(config, 2)
            before = sim.memory.words.copy()
            with pytest.raises(SimulationError, match="own output plane"):
                sim.execute_program(program)
            assert np.array_equal(sim.memory.words, before)
            assert sim.stats.cycles == 0
            assert sim.replay_counters == {"vectorized": 0, "reference": 0}
        finally:
            replay._pattern_mask.cache_clear()


@pytest.mark.usefixtures("any_length_planes")
class TestPlaneRecords:
    def test_plane_steps_are_deduplicated_and_bodies_shared(self):
        """One tuple per distinct plane step of a body; a body built once
        serves every plan of the simulator holding the same gate words."""
        config = CHIPS[32]
        ops = _program_ops(np.random.default_rng(11), config, REGIONS[128], 60)
        sim, runs = _seeded(config, 3), []
        for program in (MicroProgram.from_ops(ops, name, config) for name in "ab"):
            sim.execute_program(program)
            runs.append([s for s in sim.replay_plan(program).steps
                         if type(s) is replay.PlaneRun])
        assert runs[0] and all(a.body is b.body for a, b in zip(*runs))
        for body in (run.body for run in runs[0]):
            assert len({id(step) for step in body.steps}) == len(set(body.steps))
            assert set(body.written) == {step[1] for step in body.steps}
            assert set(body.read) <= {plane for step in body.steps for plane in step[1:]}

    def test_a_body_lives_as_long_as_a_plan_holds_it(self):
        """The simulator finds bodies through its live plans only: once
        the programs holding one are gone, so is the body."""
        config = CHIPS[32]
        ops = _program_ops(np.random.default_rng(11), config, REGIONS[128], 60)
        sim = _seeded(config, 3)
        programs = [MicroProgram.from_ops(ops, name, config) for name in "ab"]
        list(map(sim.execute_program, programs))
        bodies = len(sim._plane_bodies)
        assert bodies
        programs.pop()
        gc.collect()
        assert len(sim._plane_bodies) == bodies  # program "a" still holds them
        programs.pop()
        gc.collect()
        assert len(sim._plane_bodies) == 0 and len(sim._plans) == 0

    def test_summary_reports_the_layout_and_the_same_keys(self):
        config = CHIPS[32]
        xb, row = REGIONS[128]
        ops = [CrossbarMaskOp(*xb), RowMaskOp(*row),
               LogicHOp(GateType.INIT1, 0, 0, 3, 0, 0, 0, 31, 1),
               LogicHOp(GateType.NOR, 0, 1, 3, p_a=0, p_b=1, p_out=2,
                        p_end=2, p_step=1)]
        program = MicroProgram.from_ops(ops, "p", config)
        sim = _seeded(config, 5)
        sim.execute_program(program)
        (run,) = [s for s in sim.replay_plan(program).steps if type(s) is not tuple]
        assert run.summary() == {
            "lanes": 128, "steps": 32, "fused": 1, "regs": 3, "masks": 0,
            "opcodes": {"INIT1": 31, "INIT1+NOR": 1}, "layout": "planes",
            "gates_per_plane": round(2 / 34, 3),  # 2 planes read, 32 written
        }
        # Register 3 is initialized first: only the NOR's inputs are packed.
        assert run.body.read == (0 << 6 | 0, 1 << 6 | 1)
        assert run.body.written == tuple(3 << 6 | p for p in range(32))


class TestPlaneHelpers:
    @staticmethod
    def _memories():
        for partitions in (16, 32, 64):
            memory = CrossbarMemory(CHIPS[partitions])
            memory.words[...] = np.random.default_rng(partitions).integers(
                0, int(memory.word_mask), size=memory.words.shape,
                dtype=memory.dtype, endpoint=True,
            )
            yield memory, partitions

    def test_pack_reads_partition_bits_lane_by_lane(self):
        for memory, partitions in self._memories():
            xb, row = RangeMask(1, 9, 4), RangeMask(3, 21, 3)
            planes = [2 << 6 | 0, 2 << 6 | partitions - 1, 7 << 6 | 5]
            region = {reg: memory.region(xb, reg, row).ravel() for reg in (2, 7)}
            for plane, value in zip(planes, memory.pack_planes(xb, row, planes)):
                words = region[plane >> 6]
                bits = (words >> memory.dtype.type(plane & 63)) & 1
                assert value == sum(int(bit) << k for k, bit in enumerate(bits))

    def test_unpack_rewrites_only_the_named_planes(self):
        lanes = 16 * 512
        xb, row = RangeMask(0, 15, 1), RangeMask(0, 511, 1)
        rng = np.random.default_rng(9)
        for memory, partitions in self._memories():
            # Two planes of register 0, one of every other register: more
            # registers than one chunk of unpacked bits holds at this width.
            touched = [(0, 3), (0, partitions - 1)] + [
                (reg, reg * 7 % partitions) for reg in range(1, 32)
            ]
            planes = [reg << 6 | p for reg, p in touched]
            before = memory.words.copy()
            memory.unpack_planes(xb, row, planes, memory.pack_planes(xb, row, planes))
            assert np.array_equal(memory.words, before)
            values = [int.from_bytes(rng.bytes(lanes // 8), "little") for _ in planes]
            values[:3] = [0, (1 << lanes) - 1, 0b101]
            memory.unpack_planes(xb, row, planes, values)
            assert memory.pack_planes(xb, row, planes) == values
            flipped = memory.words ^ before
            for reg in range(memory.words.shape[1]):
                for p in range(8 * memory.dtype.itemsize):
                    bits = (flipped[:, reg, :] >> memory.dtype.type(p)) & 1
                    assert (reg, p) in touched or not bits.any()
