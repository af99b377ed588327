"""Vectorized replay: micro-op super-steps as bulk updates.

This is the execution-layer payoff of the compile/replay pipeline.
Op-by-op execution costs several NumPy dispatches per horizontal gate on
a tiny ``(crossbars, rows)`` view, so the host — not the modeled chip —
dominates wall-clock. Following the paper's own simulator trick
(Figure 6 / section V: pack partition bits into strided words so
partition-parallel logic becomes bitwise word arithmetic), replay plans
extend the packing one level further:

- a validated program is sliced into *super-steps*
  (:attr:`~repro.driver.program.MicroProgram.super_steps`): maximal runs
  of horizontal gates between mask/read/write/vertical/move boundaries,
  each run under statically-known masks;
- at plan-build time every run becomes a short straight-line program
  built from **bit-field columns of the program's 64-bit operation
  words** — no op object exists on this path — over the program's
  :func:`lane_table`, one lane-free record per *distinct* gate: the
  plan's data is integer columns (:func:`plan_columns`, what a persistent
  entry stores beside the words), its run records are made from them
  (:func:`materialise`);
- a run too sparse for planes is a :class:`GateRun`: at replay it packs
  each touched register's masked region into one big integer, a *lane*
  per word as wide as the memory dtype
  (:meth:`~repro.sim.memory.CrossbarMemory.pack_lanes`), and each gate
  is a few whole-region bitwise operations, ``v ^ (v & pull &
  out_mask)`` — bit for bit the ``out &= gate(inputs)`` 1→0 update. What
  a partition shift spills into the neighbouring lane is never selected
  by the gate's own out-mask (argument and check: :func:`_pattern_mask`);
- a run dense enough (:data:`MIN_GATES_PER_PLANE`), at any width, is a
  :class:`PlaneRun`: one integer of ``lanes`` bits per touched (register,
  partition) *plane* (:meth:`~repro.sim.memory.CrossbarMemory.pack_planes`);
  a partition shift is plane renaming, resolved at plan build
  (:func:`derive_plane_body`), so a gate is one mask-free update per
  output partition, an INIT1 folded into the gate consuming it.

The result is bit-identical to op-by-op execution at every operation
boundary — runs contain no observable point — and cycle accounting is
untouched: plans exist only for *self-masked* programs, whose
per-replay :class:`~repro.sim.stats.SimStats` delta is established
statically and merged once per replay. Everything the driver emits is
self-masked by construction, so eager macros, streams and compiled
graphs all replay this way, on ``uint32`` and ``uint64`` words alike.

One rule (``Simulator.execute_program``): **plan → vectorized replay;
otherwise a loop over ``Simulator.execute``**, the op-by-op reference.
A program has no plan only when it has no static bill: it runs under
caller-set masks, or an op of it must raise. A body's density picks a
run's layout, never the route. There is no engine setting.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.halfgates import pattern_outputs
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    _IDX_FIELD, _PART_FIELD, PATTERN_SHIFTS, GateType, LogicHOp, _distinct,
)
from repro.sim.memory import CrossbarMemory


#: Lanes (masked crossbars x rows) up to which a word run's out-masks are
#: replicated across its lanes once, at plan build (:class:`GateRun`); a
#: wider word run replicates them at each replay (:class:`WideGateRun`).
#: It does not choose between words and planes.
MAX_WORD_LANES = 64

#: Gates per packed plane (read + written) a run needs to be planes, at
#: any width: packing costs per plane, which a short body never wins back.
#: Eager bodies by gates per plane, words / planes time at 1 / 16 / 64
#: lanes (fused planes; 2-vCPU x86, CPython 3.11): fp add, fp mul, int mul
#: 8.9-11.5: 2.6-3.2; fp lt 1.98: 0.95-1.16, even; int lt 1.21: 0.63-0.70;
#: eq 0.73: 0.54-0.60; int add 0.64: 0.21-0.23 (docs/architecture.md).
MIN_GATES_PER_PLANE = 1.5


@lru_cache(maxsize=65536)
def _pattern_mask(
    gate: GateType,
    p_a: int,
    p_b: int,
    p_out: int,
    p_end: int,
    p_step: int,
    partitions: int,
) -> Tuple[int, int]:
    """(output-partition bitmask, gate count) of a validated pattern.

    Pattern validation (section disjointness, partition ranges) and the
    mask itself come from :func:`~repro.arch.halfgates.pattern_outputs`,
    the memoized ``expand_pattern`` stream validation shares; patterns
    repeat constantly across a program, so the lane check below is
    cached on the same fields.

    Also checks what lets :class:`GateRun` pack words into lanes with no
    guard space between them: *a shifted input never carries a foreign
    bit into a selected position*. Every gate of a pattern shares one
    shift per input, ``s = p_out - p_in``, and every out-partition is
    ``p_in + s`` with ``0 <= p_in < partitions <= W`` (``W`` the lane
    width, the dtype's bits). A left shift by ``s`` spills the previous
    lane's top bits into bits ``[0, s)``, but every out-partition is
    ``>= s``; a right shift by ``s`` brings the next lane's low bits
    into ``[W - s, W)``, but every out-partition is ``<= partitions - 1
    - s``. So ``shifted & out_mask`` is spill-free for any pattern
    ``expand_pattern`` accepts; the check below (against
    ``partitions``, the tighter bound) turns a violation of that
    argument into an error instead of silent cross-lane corruption.
    """
    mask, count = pattern_outputs(
        gate, p_a, p_b, p_out, p_end, p_step, partitions
    )
    inputs = {GateType.NOR: (p_a, p_b), GateType.NOT: (p_a,)}.get(gate, ())
    for shift in (p_out - p_in for p_in in inputs):
        spill = (mask & ((1 << shift) - 1) if shift > 0
                 else mask >> (partitions + shift))
        if spill:
            from repro.sim.simulator import SimulationError  # import cycle

            op = LogicHOp(gate, 0, 0, 0, p_a=p_a, p_b=p_b, p_out=p_out,
                          p_end=p_end, p_step=p_step)
            raise SimulationError(
                f"out-mask {mask:#x} of {op} meets the lane spill window "
                f"of partition shift {shift}"
            )
    return mask, count


#: Lane-program opcodes, ``(gate, sign of shift a, sign of shift b)`` in
#: the interpreter's dispatch order (most frequent in real programs
#: first): an input's shift direction is decided at build time, steps
#: carry magnitudes. ``p_a <= p_b`` leaves NOR these six sign pairs.
OPCODES = (
    (GateType.NOR, 1, 1), (GateType.NOR, 1, -1), (GateType.NOR, -1, -1),
    (GateType.INIT1, 0, 0), (GateType.NOT, 1, 0), (GateType.NOR, 1, 0),
    (GateType.NOT, -1, 0), (GateType.NOR, 0, -1), (GateType.NOT, 0, 0),
    (GateType.NOR, 0, 0), (GateType.INIT0, 0, 0),
)
_OPCODE_OF = np.zeros((len(GateType), 3, 3), dtype=np.int8)
for _code, (_gate, _sign_a, _sign_b) in enumerate(OPCODES):
    _OPCODE_OF[_gate, _sign_a + 1, _sign_b + 1] = _code
#: Their printed names: the gate, then "<" / ">" / "=" per input it reads
#: (INIT0 and INIT1 none, NOT one, NOR two).
_OPCODE_NAMES = [
    gate.name + "".join("=<>"[sign] for sign in signs[: (0, 0, 1, 2)[gate]])
    for gate, *signs in OPCODES
]


class GateRun(NamedTuple):
    """One ``"gates"`` super-step as a lane program: plain data.

    ``steps`` holds one lane-free ``(opcode, out, a, shift_a, b, shift_b,
    mask_id)`` record per gate — a reference into the plan's shared
    :func:`lane_table`; an operand slot the gate does not read holds
    ``out`` and shift 0. ``masks[mask_id]`` is the out-mask replicated
    across the region's lanes (``None`` for ids no run of this lane count
    reads; one table per lane count of the plan); ``rule`` says why it is
    not planes (:func:`plan_columns`). Calling the record on a memory
    executes the whole run — typically thousands of micro-ops — as pack /
    interpret / unpack over the packed image.
    """

    xb: RangeMask
    row: RangeMask
    regs: Tuple[int, ...]
    written: Tuple[int, ...]
    masks: Tuple[Optional[int], ...]
    steps: Tuple[Tuple, ...]
    rule: Tuple[str, float]

    def __call__(self, memory: CrossbarMemory) -> None:
        xb, row, regs, written, masks, steps, _ = self
        state = [0] * (regs[-1] + 1)  # indexed by register
        for reg in regs:
            state[reg] = memory.pack_lanes(xb, reg, row)
        # The 1->0 update ``out &= ~(pull & out_mask)`` is written
        # ``v ^ (v & pull & out_mask)``: the same bits from three
        # non-negative operations (no big-integer negation), and the AND
        # with ``v`` bounds a left-shifted ``pull`` to the region's bits.
        for op, out, a, s_a, b, s_b, m in steps:
            value = state[out]
            if op == 0:
                pull = (state[a] << s_a) | (state[b] << s_b)
            elif op == 1:
                pull = (state[a] << s_a) | (state[b] >> s_b)
            elif op == 2:
                pull = (state[a] >> s_a) | (state[b] >> s_b)
            elif op == 3:  # INIT1
                state[out] = value | masks[m]
                continue
            elif op == 4:
                pull = state[a] << s_a
            elif op == 5:
                pull = (state[a] << s_a) | state[b]
            elif op == 6:
                pull = state[a] >> s_a
            elif op == 7:
                pull = state[a] | (state[b] >> s_b)
            elif op == 8:
                pull = state[a]
            elif op == 9:
                pull = state[a] | state[b]
            else:  # INIT0
                pull = masks[m]
            state[out] = value ^ (value & pull & masks[m])
        for reg in written:
            memory.unpack_lanes(xb, reg, row, state[reg])

    def summary(self) -> Dict[str, object]:
        """What ``replay_info()`` prints of the run."""
        opcodes = Counter(_OPCODE_NAMES[step[0]] for step in self.steps)
        return {
            "lanes": len(self.xb) * len(self.row),
            "steps": len(self.steps),
            "fused": 0,
            "regs": len(self.regs),
            "masks": len({step[6] for step in self.steps}),
            "opcodes": dict(opcodes),
            "layout": "words",
            self.rule[0]: round(self.rule[1], 3),
        }


class WideGateRun(GateRun):
    """A word run wider than :data:`MAX_WORD_LANES` whose ``masks`` are the
    out-masks it reads *unreplicated*, replicated at each replay: kept
    replicated, a mask is 256 KB at 65,536 lanes (docs/architecture.md)."""

    __slots__ = ()

    def __call__(self, memory: CrossbarMemory) -> None:
        unit = _lane_unit(8 * memory.dtype.itemsize, len(self.xb) * len(self.row))
        masks = [mask and mask * unit for mask in self.masks]
        GateRun.__call__(self._replace(masks=masks), memory)


def _lane_unit(width: int, lanes: int) -> int:
    """Bit 0 of every ``width``-bit lane: ``mask * unit`` replicates a
    (< 2**width) mask into all of them."""
    return ((1 << width * lanes) - 1) // ((1 << width) - 1)


@dataclass(frozen=True)
class PlaneBody:
    """What a :class:`PlaneRun` replays, fixed by its gate words alone.

    A *plane* is one register's bit at one partition in every lane of the
    region: an integer of ``lanes`` bits, numbered ``reg << 6 | partition``.
    ``steps`` holds one shared ``(gate, out, a, b)`` record
    (:func:`derive_plane_body`) per output partition of each gate, shifts
    resolved to planes: ``o ^= o & (a | b)`` (NOR), ``o ^= o & a`` (NOT),
    ``o = full`` (INIT1), ``o = 0`` (INIT0), ``o = full ^ a`` (4, INIT1+NOT)
    or ``o = full ^ (a | b)`` (5, INIT1+NOR: :func:`_fuse_init1`). ``read``
    are the planes whose value before the run matters, ``written`` those
    it writes, and ``gates`` the run's gate count.
    """

    read: Tuple[int, ...]
    written: Tuple[int, ...]
    steps: Tuple[Tuple[int, int, int, int], ...]
    gates: int


class PlaneRun(NamedTuple):
    """A dense ``"gates"`` super-step as a bit-plane program: plain data,
    like :class:`GateRun`. Runs of the same gate words share one
    :class:`PlaneBody` at any region."""

    xb: RangeMask
    row: RangeMask
    body: PlaneBody

    def __call__(self, memory: CrossbarMemory) -> None:
        xb, row, body = self
        read, written, steps = body.read, body.written, body.steps
        full = (1 << len(xb) * len(row)) - 1
        state = [0] * (1 + max(read[-1:] + written[-1:]))  # indexed by plane
        for plane, value in zip(read, memory.pack_planes(xb, row, read)):
            state[plane] = value
        for gate, out, a, b in steps:
            if gate == 5:  # INIT1+NOR
                state[out] = full ^ (state[a] | state[b])
            elif gate == 4:  # INIT1+NOT
                state[out] = full ^ state[a]
            elif gate == 3:  # NOR
                value = state[out]
                state[out] = value ^ (value & (state[a] | state[b]))
            elif gate == 2:  # NOT
                value = state[out]
                state[out] = value ^ (value & state[a])
            else:  # INIT1 or INIT0
                state[out] = full if gate else 0
        memory.unpack_planes(xb, row, written, [state[plane] for plane in written])

    def summary(self) -> Dict[str, object]:
        """What ``replay_info()`` prints of the run (no mask table: 0)."""
        read, written, steps = self.body.read, self.body.written, self.body.steps
        opcodes = Counter(step[0] for step in steps)
        names = [gate.name for gate in GateType] + ["INIT1+NOT", "INIT1+NOR"]
        return {
            "lanes": len(self.xb) * len(self.row),
            "steps": len(steps),
            "fused": opcodes[4] + opcodes[5],
            "regs": len({plane >> _PART_FIELD for plane in read + written}),
            "masks": 0,
            "opcodes": {names[gate]: n for gate, n in opcodes.items()},
            "layout": "planes",
            "gates_per_plane": round(self.body.gates / len(read + written), 3),
        }


def pattern_masks(keys, partitions: int) -> list:
    """``(out-mask, gate count)`` per distinct pattern key of a
    :func:`~repro.arch.micro_ops.gate_table`: one :func:`_pattern_mask`
    call — the pattern's validation — each."""
    gates = map(tuple(GateType).__getitem__, (keys & 3).tolist())
    parts = [((keys >> shift) & 63).tolist() for shift in PATTERN_SHIFTS]
    return list(map(_pattern_mask, gates, *parts, repeat(partitions)))


#: Bit widths of a record's fields in its ``int64`` key, in record order:
#: opcode, out, a, shift a, b, shift b (register and partition fields as
#: wide as the operation word's), then the mask id in the bits left (an
#: out-mask is fixed by ``p_out, p_end, p_step``: < 2**(3 * part) of them).
_RECORD_WIDTHS = (len(OPCODES).bit_length(), _IDX_FIELD, _IDX_FIELD,
                  _PART_FIELD, _IDX_FIELD, _PART_FIELD)
_RECORD_WIDTHS += (63 - sum(_RECORD_WIDTHS),)
assert _RECORD_WIDTHS[-1] >= 3 * _PART_FIELD, "a record key overflows int64"


def lane_table(gate_table, partitions: int) -> tuple:
    """``(table, ids, masks)`` of a
    :func:`~repro.arch.micro_ops.gate_table`'s gates: the distinct
    lane-free records as seven ``int32`` columns (a gate's seven columns
    keyed into one ``int64``), each gate's index among them, and the
    distinct out-mask values a record's mask id indexes. Each distinct
    pattern is validated once (:func:`pattern_masks`).
    """
    fields, keys, index = gate_table
    gate, out = fields["gate"], fields["out"]
    reads_a, reads_b = gate >= GateType.NOT, gate == GateType.NOR
    shift_a = np.where(reads_a, fields["p_out"] - fields["p_a"], 0)
    shift_b = np.where(reads_b, fields["p_out"] - fields["p_b"], 0)
    mask_ids: Dict[int, int] = {}
    of_pattern = np.array([mask_ids.setdefault(mask, len(mask_ids))
                           for mask, _ in pattern_masks(keys, partitions)], np.int64)
    columns = (
        _OPCODE_OF[gate, np.sign(shift_a) + 1, np.sign(shift_b) + 1], out,
        np.where(reads_a, fields["in_a"], out), np.abs(shift_a),
        np.where(reads_b, fields["in_b"], out), np.abs(shift_b),
        of_pattern[index],
    )
    key = np.zeros(len(index), dtype=np.int64)
    starts = np.cumsum((0,) + _RECORD_WIDTHS[:-1]).tolist()
    for column, start in zip(columns, starts):
        key |= column.astype(np.int64) << start
    distinct, ids = _distinct(key)
    table = np.array([(distinct >> start) & ((1 << width) - 1)
                      for start, width in zip(starts, _RECORD_WIDTHS)], np.int32)
    return table, ids.astype(np.int32), list(mask_ids)


#: Per lane-program opcode: its gate and the sign of each input's shift.
_GATE_OF, _SIGN_A, _SIGN_B = (np.array(column, np.int32) for column in zip(*OPCODES))
#: A plane number's bits (``reg << _PART_FIELD | partition``), and where a
#: plane step's three planes sit in its ``int64`` key, above 3 gate bits.
_PLANE_BITS = _IDX_FIELD + _PART_FIELD
_PLANE_SHIFTS = (3, 3 + _PLANE_BITS, 3 + 2 * _PLANE_BITS)
assert _PLANE_SHIFTS[-1] + _PLANE_BITS < 63, "a plane step key overflows int64"


def _planes_at_least(table, masks, run) -> int:
    """A lower bound on the planes a body of :func:`lane_table` rows
    ``run`` packs, from out-masks alone: those it writes, and those it
    reads (a shifted out-mask) but never writes."""
    code, out, a, shift_a, b, shift_b, mask_id = table[:, np.flatnonzero(np.bincount(run))]
    mask = np.array(masks, np.uint64)[mask_id]
    written, read = np.zeros((2, 1 << _IDX_FIELD), np.uint64)
    np.bitwise_or.at(written, out, mask)
    for reg, shift, sign in ((a, shift_a, _SIGN_A), (b, shift_b, _SIGN_B)):
        shift = shift.astype(np.uint64)
        np.bitwise_or.at(read, reg, np.where(sign[code] < 0, mask << shift, mask >> shift))
    return int(np.bitwise_count(written).sum() + np.bitwise_count(read & ~written).sum())


def _spans(start, count, of):
    """``start[r] ... start[r] + count[r] - 1`` for each ``r`` of ``of``."""
    n = count[of]
    ends = np.cumsum(n, dtype=np.int32)
    return np.repeat(start[of] - ends + n, n) + np.arange(ends[-1], dtype=np.int32)


def derive_plane_body(table, masks, run) -> tuple:
    """The :class:`PlaneBody` of the gates whose :func:`lane_table` rows
    are ``run`` as columns, ``(keys, steps, read, written)``: its distinct
    plane-step keys (``int64``, the gate, then the out, a and b planes at
    :data:`_PLANE_SHIFTS`), each step's index among them, and the planes
    it reads and writes (:func:`materialise_body` makes the record).
    Derived column-wise once per distinct record: a plane step per output
    partition ``p`` of its out-mask, an operand plane ``reg << 6 | p -
    shift``. The body's steps are its records' in gate order, each INIT1
    folded into the NOT or NOR consuming it (:func:`_fuse_init1`); it
    reads the planes whose first gate is a NOT or NOR.

    Per-plane evaluation is exact because a gate never reads a plane it
    writes except its own output at shift 0 (``expand_pattern`` keeps
    gate sections disjoint); a record breaking that raises
    :class:`~repro.sim.simulator.SimulationError` here, at plan build.
    """
    code, out, a, shift_a, b, shift_b, mask_id = table
    first = np.full(len(code), len(run), np.int32)  # a record's first gate
    np.minimum.at(first, run, np.arange(len(run), dtype=np.int32))
    used = first < len(run)
    bits = np.arange(64, dtype=np.uint64)
    is_output = (np.array(masks, np.uint64)[:, None] >> bits) & 1 > 0
    per_mask = is_output.sum(axis=1, dtype=np.int32)
    count = np.where(used, per_mask[mask_id], 0)  # a plane step per output partition
    of = np.repeat(np.arange(len(code), dtype=np.int32), count)  # each step's record
    part = np.nonzero(is_output)[1].astype(np.int32)[
        _spans(np.cumsum(per_mask, dtype=np.int32) - per_mask, per_mask, mask_id[used])]
    planes = [out[of] << _PART_FIELD | part]
    for reg, shift, sign in ((a, shift_a, _SIGN_A), (b, shift_b, _SIGN_B)):
        source = part - sign[code[of]] * shift[of]
        planes.append(reg[of] << _PART_FIELD | source)
        rereads = (reg[of] == out[of]) & (source != part) & is_output[mask_id[of], source]
        if rereads.any():
            from repro.sim.simulator import SimulationError  # import cycle

            record = tuple(table[:, of[np.argmax(rereads)]].tolist())
            raise SimulationError(f"record {record} reads another of its own "
                                  "output planes: per-plane replay is not exact")
    touch = np.full(1 << _PLANE_BITS, len(run), np.int32)  # a plane's first gate
    for plane in planes:
        np.minimum.at(touch, plane, first[of])
    touched = np.flatnonzero(touch < len(run))
    written = np.flatnonzero(np.bincount(planes[0]))
    reads = _GATE_OF[code[run[touch[touched]]]] >= GateType.NOT
    key = _GATE_OF[code[of]].astype(np.int64)
    for shift, plane in zip(_PLANE_SHIFTS, planes):
        key |= plane.astype(np.int64) << shift
    distinct, ids = _distinct(key)
    start = np.cumsum(count, dtype=np.int32) - count
    distinct, ids = _fuse_init1(distinct, ids[_spans(start, count, run)])
    live = np.flatnonzero(np.bincount(ids, minlength=len(distinct)))  # keys a step uses
    rank = np.zeros(len(distinct), np.int32)
    rank[live] = np.arange(len(live), dtype=np.int32)
    return distinct[live], rank[ids], touched[reads].astype(np.int32), written.astype(np.int32)


#: Every plane number as a Python int, shared by the step tuples.
_PLANE_NUMBERS = np.arange(1 << _PLANE_BITS).astype(object)


def materialise_body(columns, gates: int) -> PlaneBody:
    """The :class:`PlaneBody` of :func:`derive_plane_body`'s columns for a
    run of ``gates`` gates: one shared ``(gate, out, a, b)`` tuple per key."""
    keys, steps, read, written = columns
    fields = [_PLANE_NUMBERS[keys >> s & (len(_PLANE_NUMBERS) - 1)].tolist()
              for s in _PLANE_SHIFTS]
    records = np.fromiter(zip((keys & 7).tolist(), *fields), dtype=object, count=len(keys))
    return PlaneBody(tuple(read.tolist()), tuple(written.tolist()),
                     tuple(records[steps].tolist()), gates)


def _fuse_init1(distinct, ids):
    """The plane steps ``distinct[ids]`` with each INIT1 folded into its
    plane's next writer, if a NOT or NOR, when no step reads the plane in
    between (the writer's own operands included): the INIT1 goes, and the
    writer's id moves to a second copy of ``distinct``, keyed gate ``+ 2``.
    Sorted stably by plane, the (read a, read b, write) events ``plane <<
    2 | role`` (0 a read, 1 INIT1, 2 NOT or NOR, 3 INIT0; plane -1 for an
    operand not read) put a fusible INIT1's event one below the next."""
    gate = distinct & 7
    out, a, b = (distinct >> s & ((1 << _PLANE_BITS) - 1) for s in _PLANE_SHIFTS)
    events = np.take(np.stack((np.where(gate >= GateType.NOT, a << 2, -4),
                               np.where(gate == GateType.NOR, b << 2, -4),
                               out << 2 | np.array([3, 1, 2, 2])[gate]), axis=1)
                     .astype(np.int16), ids, axis=0).ravel()
    order = np.argsort(events >> 2, kind="stable")
    events = events[order]
    pairs = np.flatnonzero(((events[:-1] & 3) == 1) & (events[1:] - events[:-1] == 1))
    ids[order[pairs + 1] // 3] += len(distinct)
    return np.concatenate((distinct, distinct + 2)), np.delete(ids, order[pairs] // 3)


#: A program's plan as :func:`plan_columns` derives it and an entry stores
#: it, arrays only: its :func:`lane_table` (out-masks unreplicated); per
#: ``"gates"`` super-step its ``layout`` (0 words, judged from counts; 1
#: words, from its planes; 2 planes), ``rule`` (gates per plane) and plane
#: ``body`` (-1 for words); per plane body the ``sizes`` of its slices of
#: ``keys``, ``steps``, ``read``, ``written`` (:func:`derive_plane_body`).
PlanColumns = namedtuple("PlanColumns", "table ids masks layout rule body sizes "
                                        "keys steps read written")
#: Each :data:`PlanColumns` field's dtype (little-endian).
COLUMN_DTYPES = ("<i4", "<i4", "<u8", "|i1", "<f8", "<i4", "<i4", "<i8", "<i4", "<i4", "<i4")
_RULES = ("gates_per_plane_at_most", "gates_per_plane")


def plan_columns(program, config, known) -> PlanColumns:
    """The :data:`PlanColumns` of a self-masked program. A distinct body
    is judged once (:func:`_judge`); one whose gate words ``known`` maps
    to a :class:`PlaneBody` is planes, not derived: its slices are empty."""
    table, ids, masks = lane_table(program.gate_table, config.partitions)
    words = program.encoded(config.word_size)
    judged, verdicts, bodies = {}, [], []  # judged: a run's record ids -> its verdict
    done = 0
    for segment in program.super_steps:
        if segment.kind != "gates":
            continue
        run_ids = ids[done : done + len(segment)]
        done += len(segment)
        body = run_ids.tobytes()
        if body not in judged:
            found = known.get(words[segment.start : segment.stop].tobytes())
            judged[body] = _judge(table, masks, run_ids, found, bodies)
        verdicts.append(judged[body])
    layout, rule, body = zip(*verdicts) if verdicts else ((),) * 3
    sizes = np.array([list(map(len, planar)) for planar in bodies], np.int32).reshape(-1, 4)
    return PlanColumns(
        table, ids, np.array(masks, np.uint64), np.array(layout, np.int8),
        np.array(rule, np.float64), np.array(body, np.int32), sizes,
        *(np.concatenate([np.zeros(0, dtype), *column]) for column, dtype in
          zip(zip(*bodies) if bodies else ((),) * 4, COLUMN_DTYPES[7:])),
    )


def _judge(table, masks, run, found, bodies) -> tuple:
    """``(layout, rule, body)`` of a body, from counts or, if they allow
    planes, from its planes (appended to ``bodies`` if they are)."""
    gates = len(run)
    if found is not None:
        bodies.append([np.zeros(0, dtype) for dtype in COLUMN_DTYPES[7:]])
        return 2, gates / len(found.read + found.written), len(bodies) - 1
    bound = _planes_at_least(table, masks, run)
    if gates < MIN_GATES_PER_PLANE * bound:
        return 0, gates / bound, -1
    planar = derive_plane_body(table, masks, run)
    packed = len(planar[2]) + len(planar[3])
    if gates < MIN_GATES_PER_PLANE * packed:
        return 1, gates / packed, -1
    bodies.append(planar)
    return 2, gates / packed, len(bodies) - 1


def materialise(columns, program, config, memory: CrossbarMemory, plane_bodies) -> Iterator:
    """The replay record of every ``"gates"`` super-step, in order: a
    :class:`PlaneRun` for layout 2, else a :class:`GateRun` (a
    :class:`WideGateRun` above :data:`MAX_WORD_LANES`). ``plane_bodies``,
    the caller's ``WeakValueDictionary``, finds a plane body by its gate
    words while a plan holds it, else it is made and entered. Word runs
    share :func:`lane_table` record tuples; a mask is replicated only for
    the lane counts whose runs read it, a table per lane count."""
    table, ids, masks = columns.table, columns.ids, columns.masks.tolist()
    words = program.encoded(config.word_size)
    width = 8 * memory.dtype.itemsize
    starts = (np.cumsum(columns.sizes, axis=0) - columns.sizes).tolist()
    runs, read = [], {}  # read: lanes -> the mask ids its runs read
    planar, bodies, records = {}, {}, {}  # by body index / by a run's record ids
    segments = (segment for segment in program.super_steps if segment.kind == "gates")
    done = 0
    for segment, layout, rule, index in zip(segments, columns.layout.tolist(),
                                            columns.rule.tolist(), columns.body.tolist()):
        run_ids = ids[done : done + len(segment)]
        done += len(segment)
        xb, row = RangeMask(*segment.xb), RangeMask(*segment.row)
        if layout == 2:
            if index not in planar:
                key = words[segment.start : segment.stop].tobytes()
                body = plane_bodies.get(key)
                if body is None:
                    cut = zip(columns[7:], starts[index], columns.sizes[index])
                    body = plane_bodies[key] = materialise_body(
                        [column[start : start + size] for column, start, size in cut],
                        len(segment))
                planar[index] = body
            runs.append(PlaneRun(xb, row, planar[index]))
            continue
        body = run_ids.tobytes()
        if body not in bodies:
            used = run_ids.tolist()
            fresh = [r for r in set(used) if r not in records]
            records.update(zip(fresh, zip(*table[:, fresh].tolist())))
            _, out, a, _, b, _, mask_ids = zip(*map(records.__getitem__, set(used)))
            bodies[body] = (
                tuple(sorted(set(out).union(a, b))), tuple(sorted(set(out))),
                set(mask_ids), tuple(map(records.__getitem__, used)),
            )
        regs, written, mask_ids, steps = bodies[body]
        rule = (_RULES[layout], rule)
        lanes = len(xb) * len(row)
        if lanes > MAX_WORD_LANES:
            raw = tuple(mask if m in mask_ids else None for m, mask in enumerate(masks))
            runs.append(WideGateRun(xb, row, regs, written, raw, steps, rule))
            continue
        read.setdefault(lanes, set()).update(mask_ids)
        runs.append((xb, row, regs, written, lanes, steps, rule))
    tables = {}
    for lanes, mask_ids in read.items():
        unit = _lane_unit(width, lanes)
        tables[lanes] = tuple(mask * unit if mask_id in mask_ids else None
                              for mask_id, mask in enumerate(masks))
    for run in runs:
        if type(run) is tuple:
            xb, row, regs, written, lanes, steps, rule = run
            run = GateRun(xb, row, regs, written, tables[lanes], steps, rule)
        yield run


def check_columns(columns, program, config) -> None:
    """Refuse (``ValueError``) stored columns that do not fit ``program``'s
    words: a shape, a count of gate super-steps or gates, an index past
    what it indexes, an opcode, register, shift or plane out of range."""
    table, ids, masks, layout, rule, body, sizes, keys, steps, read, written = columns
    gates = [len(segment) for segment in program.super_steps if segment.kind == "gates"]

    def within(values, stop) -> bool:
        return values.size == 0 or 0 <= int(values.min()) <= int(values.max()) < stop

    planes = [keys >> shift & (1 << _PLANE_BITS) - 1 for shift in _PLANE_SHIFTS] + [read, written]
    if not (
        [column.ndim for column in columns] == [2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1]
        and len(table) == len(_RECORD_WIDTHS) and len(ids) == sum(gates)
        and len(layout) == len(rule) == len(body) == len(gates)
        and sizes.sum(axis=0).tolist() == [len(keys), len(steps), len(read), len(written)]
        and within(ids, table.shape[1]) and within(table[6], len(masks)) and within(layout, 3)
        and within(body[layout == 2], len(sizes)) and bool((sizes[:, 1] > 0).all())
        and bool(((0 <= steps) & (steps < np.repeat(sizes[:, 0], sizes[:, 1]))).all())
        and within(table[0], len(OPCODES)) and within(keys & 7, 6)
        and within(table[[1, 2, 4]], config.registers) and within(table[[3, 5]], config.partitions)
        and within(masks >> np.uint64(config.partitions - 1), 2)
        and all(within(plane >> _PART_FIELD, config.registers)
                and within(plane & (1 << _PART_FIELD) - 1, config.partitions) for plane in planes)
    ):
        raise ValueError(f"the plan columns do not fit the words of {program.name!r}")
