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
- at plan-build time every run becomes a short straight-line *lane
  program*, a :class:`GateRun` record, built from **bit-field columns of
  the program's 64-bit operation words** (:func:`build_gate_runs`) — no
  op object exists on this path. Its steps reference the program's
  :func:`lane_table`, one lane-free record per *distinct* gate shared by
  every run of the plan; a record's out-mask is an id into the plan's
  table of replicated masks for the run's lane count;
- at replay time a run packs each touched register's masked region into
  one arbitrary-precision integer, a *lane* per word exactly as wide as
  the memory dtype (:meth:`~repro.sim.memory.CrossbarMemory.pack_lanes`
  — the region's own bytes; a list indexed by register holds them), and
  each gate is a handful of whole-region bitwise operations on
  non-negative integers —
  ``v ^ (v & pull & out_mask)``, bit for bit the ``out &= gate(inputs)``
  1→0 stateful-logic update, applied to every masked crossbar and row at
  once. Lanes need no guard space and shifts no re-masking: what a
  partition shift spills into the neighbouring lane can never be
  selected by the gate's own out-mask (the argument, and its check, are
  in :func:`_pattern_mask`).

The result is bit-identical to op-by-op execution at every operation
boundary — runs contain no observable point (no reads, no mask changes)
— and cycle accounting is untouched: plans exist only for *self-masked*
programs, whose per-replay :class:`~repro.sim.stats.SimStats` delta is
established statically and merged once per replay. Everything the
driver emits is self-masked by construction — every spliced instruction
re-establishes its masks first — so eager macros, streams and compiled
graphs all replay this way, on ``uint32`` and ``uint64``
(``word_size > 32``) words alike.

One rule (``Simulator.execute_program``): **plan → vectorized replay;
otherwise a loop over ``Simulator.execute``**, the op-by-op reference.
A program has no plan when it is not self-masked (a hand-built program
running under caller-set masks) or an op of it must raise, or when its
gate runs are so wide that lane programs lose to op-by-op NumPy
(:func:`lanes_pay_off`). There is no engine setting.
"""

from __future__ import annotations

from collections import Counter
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


#: Mean lanes per gate (masked crossbars x rows, weighted by run length)
#: up to which a lane program beats op-by-op NumPy. Measured on the fp-add
#: body (5617 micro-ops, eager ``x + y``) from 4x16 to 64x1024, us per
#: micro-op as a dense-lane big integer against five NumPy calls on the
#: strided view: 0.33 vs 7.6 at 64 lanes, 1.8 vs 10.0 at 1024, 3.6 vs
#: 11.2 at 2048, 9.0 vs 18.0 at 4096 (2.0x ahead), 13.3 vs 15.9 at 8192
#: (1.2x — inside run-to-run spread), 29 vs 31 at 16384, 138 vs 116 at
#: 65536 (0.84x). The bound is the widest point with a clear win.
MAX_MEAN_LANES = 4096


def lanes_pay_off(program) -> bool:
    """Whether the program's gate runs are narrow enough to vectorize.

    Per-op dispatch is a fixed cost per gate while lane arithmetic grows
    with the masked region, so the choice follows the region size the
    program itself fixes: see :data:`MAX_MEAN_LANES`.
    """
    gates = lanes = 0
    for segment in program.super_steps:
        if segment.kind == "gates":
            width = len(RangeMask(*segment.xb)) * len(RangeMask(*segment.row))
            gates += len(segment)
            lanes += len(segment) * width
    return lanes <= MAX_MEAN_LANES * gates


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
    reads; one table per lane count of the plan). Calling the record on a
    memory executes the whole run — typically thousands of micro-ops — as
    pack / interpret / unpack over the packed image.
    """

    xb: RangeMask
    row: RangeMask
    regs: Tuple[int, ...]
    written: Tuple[int, ...]
    masks: Tuple[Optional[int], ...]
    steps: Tuple[Tuple, ...]

    def __call__(self, memory: CrossbarMemory) -> None:
        xb, row, regs, written, masks, steps = self
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
            "regs": len(self.regs),
            "masks": len({step[6] for step in self.steps}),
            "opcodes": dict(opcodes),
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
    """``(records, ids, masks)`` of a
    :func:`~repro.arch.micro_ops.gate_table`'s gates: the distinct
    lane-free records, each gate's index among them, and the distinct
    out-mask values a record's mask id indexes. The seven per-gate
    columns are keyed into one ``int64``; only distinct keys become
    tuples. Each distinct pattern is validated once (:func:`pattern_masks`).
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
    records = list(zip(*(
        ((distinct >> start) & ((1 << width) - 1)).tolist()
        for start, width in zip(starts, _RECORD_WIDTHS)
    )))
    return records, ids, list(mask_ids)


def build_gate_runs(program, config, memory: CrossbarMemory) -> Iterator[GateRun]:
    """The :class:`GateRun` of every ``"gates"`` super-step, in order.

    A run's steps are references into the program's :func:`lane_table`
    (bit-field columns of its words; no op object built), one tuple per
    distinct body — the same fp-add body at 1 ... 64 lanes. A mask is
    replicated across the lanes (``mask * unit``) only for the lane
    counts whose runs read it, one table per lane count (it depends on
    the lane width, so is never shared across simulators). The caller
    guarantees the program is self-masked — every gate sits in a run —
    and that :func:`lanes_pay_off` holds.
    """
    records, ids, masks = lane_table(program.gate_table, config.partitions)
    width = 8 * memory.dtype.itemsize
    runs, read = [], {}  # read: lanes -> the mask ids its runs read
    bodies = {}  # a run's record ids -> (regs, written, mask ids, steps)
    done = 0
    for segment in program.super_steps:
        if segment.kind != "gates":
            continue
        run_ids = ids[done : done + len(segment)]
        done += len(segment)
        body = run_ids.tobytes()
        if body not in bodies:
            used = run_ids.tolist()
            _, out, a, _, b, _, mask_ids = zip(*map(records.__getitem__, set(used)))
            bodies[body] = (
                tuple(sorted(set(out).union(a, b))), tuple(sorted(set(out))),
                set(mask_ids), tuple(map(records.__getitem__, used)),
            )
        regs, written, mask_ids, steps = bodies[body]
        xb, row = RangeMask(*segment.xb), RangeMask(*segment.row)
        lanes = len(xb) * len(row)
        read.setdefault(lanes, set()).update(mask_ids)
        runs.append((xb, row, regs, written, lanes, steps))
    tables = {}
    for lanes, mask_ids in read.items():
        # Bit 0 of every lane: ``mask * unit`` replicates a (< 2**width)
        # mask into all of them.
        unit = ((1 << width * lanes) - 1) // ((1 << width) - 1)
        tables[lanes] = tuple(mask * unit if mask_id in mask_ids else None
                              for mask_id, mask in enumerate(masks))
    for xb, row, regs, written, lanes, steps in runs:
        yield GateRun(xb, row, regs, written, tables[lanes], steps)
