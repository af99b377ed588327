"""Compilation of micro-op streams into validated :class:`MicroProgram`s.

The "compile" half of the compile/replay pipeline:

1. **peephole optimization** (optional) — :func:`coalesce_masks` and
   :func:`eliminate_redundant_init1` preserve the final memory state
   bit-for-bit while removing wasted cycles. Each is stated once, over
   integer columns (:class:`Columns`, sliced from operation words by
   :func:`columns_of_words`: gates never exist as objects), and clears the
   keep-flag of the ops it drops.
2. **validation** (:func:`validate_ops`) — every op object is range-checked
   against the architecture exactly once, before any pass reads it, so
   replay paths can skip per-op re-validation. The driver's spliced streams are assembled from pieces
   valid by construction and validate only what that does not imply
   (:meth:`repro.driver.driver.Driver._compile_spliced`).

The result is an immutable :class:`~repro.driver.program.MicroProgram`
stamped with the config fingerprint it was validated against.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, NamedTuple, Optional

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.halfgates import pattern_outputs
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicHOp,
    LogicVOp,
    MicroOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    WriteOp,
    decode_many,
    is_logic_h,
    logic_h_columns,
    write_value_bits,
)
from repro.driver.program import MicroProgram


class CompileError(Exception):
    """Raised when a recorded stream is invalid for the architecture."""


# -- The column form the peephole passes read, and its extractor ---------
class Columns(NamedTuple):
    """A stream as the passes read it: integers, no gate object. ``others``
    holds the non-gate ops — a fraction of a percent of a lowered stream —
    as ``(position, op)``; every other position is a horizontal gate, and
    ``gates`` holds three lists over them in stream order: is it an INIT1,
    its output register, the bit mask of the partitions it writes."""

    size: int
    others: list
    gates: tuple


def columns_of_words(words: np.ndarray, word_size: int) -> Columns:
    """Gate columns sliced from the words' bit fields; only the non-gate
    words are decoded."""
    is_gate = is_logic_h(words)
    where = np.flatnonzero(~is_gate)
    others = list(zip(where.tolist(), decode_many(words[where], word_size)))
    fields = logic_h_columns(words[is_gate])
    gate, out, p_out, p_end, p_step = (
        fields[name].astype(np.int64)
        for name in ("gate", "out", "p_out", "p_end", "p_step")
    )
    count = (p_end - p_out) // p_step + 1
    written, live = np.zeros(len(count), dtype=np.uint64), np.arange(len(count))
    for k in range(int(count.max(initial=0))):  # gate k of the patterns that have one
        live = live[count[live] > k]
        part = (p_out[live] + k * p_step[live]).astype(np.uint64)
        written[live] |= np.uint64(1) << part
    gates = ((gate == GateType.INIT1).tolist(), out.tolist(), written.tolist())
    return Columns(len(words), others, gates)


# -- The passes: each clears the ``keep`` flag of the ops it drops --------
def coalesce_masks(columns: Columns, keep: np.ndarray) -> None:
    """Drop a mask op that a later one of its kind supersedes before any
    op consumes it, or that re-sets the value already in effect (fused
    streams re-emit identical masks before every instruction).

    Semantics-preserving for any starting simulator state: the first mask
    of each kind is always kept (the mask state at replay time is
    unknown), and trailing masks are kept because mask state persists
    beyond the program.
    """
    # Per mask kind: the value in effect at this point of the *optimized*
    # stream (None = unknown), and the pending not-yet-kept mask op.
    current = {CrossbarMaskOp: None, RowMaskOp: None}
    pending: Dict[type, Optional[tuple]] = {CrossbarMaskOp: None, RowMaskOp: None}

    def flush() -> None:
        for kind, entry in pending.items():
            if entry is not None:
                keep[entry[0]], current[kind], pending[kind] = True, entry[1], None

    previous = -1
    for position, op in columns.others:
        kind = type(op)
        if position - previous > 1 or kind not in pending:
            flush()  # a gate ran since the last non-gate op, or this one runs
        previous = position
        if kind in pending:
            keep[position] = False
            value = (op.start, op.stop, op.step)
            # Back to the value in effect cancels; anything else supersedes
            # the unconsumed pending mask.
            pending[kind] = None if current[kind] == value else (position, value)
    flush()


def eliminate_redundant_init1(columns: Columns, keep: np.ndarray) -> None:
    """Drop ``INIT1`` ops whose output cells are provably already 1.

    Tracks, per register, the set of partitions known to hold logical 1 in
    the currently-masked region.  Any (kept) mask change resets all
    knowledge (the known-ones property is relative to the selected
    rows/crossbars); any operation that can pull cells down, or whose
    effect the pass does not model (writes, moves, vertical logic), clears
    the affected register conservatively.
    """
    known: Dict[int, int] = {}  # register -> bitmask of known-one partitions
    dropped: List[int] = []
    done = 0  # gates seen so far
    for seen, (position, op) in enumerate(columns.others + [(columns.size, None)]):
        stop = position - seen  # gates before this non-gate op
        run = zip(*(column[done:stop] for column in columns.gates))
        for gate_at, (init1, reg, written) in enumerate(run, done + seen):
            if not init1:  # INIT0 / NOT / NOR pull (or force) outputs toward 0
                known[reg] = known.get(reg, 0) & ~written
            elif known.get(reg, 0) & written == written:
                dropped.append(gate_at)  # every output cell is already 1
            else:
                known[reg] = known.get(reg, 0) | written
        done = stop
        if isinstance(op, (CrossbarMaskOp, RowMaskOp)):
            if keep[position]:
                known.clear()
        elif isinstance(op, (WriteOp, LogicVOp)):
            known.pop(op.index, None)
        elif isinstance(op, MoveOp):
            known.pop(op.dst_index, None)
    keep[np.array(dropped, dtype=np.intp)] = False


def kept(columns: Columns) -> np.ndarray:
    """The keep-flags both passes leave of a stream."""
    keep = np.ones(columns.size, dtype=bool)
    coalesce_masks(columns, keep)
    eliminate_redundant_init1(columns, keep)
    return keep


# -- Validation and the entry point --------------------------------------
def validate_ops(ops: Iterable[MicroOp], config: PIMConfig) -> int:
    """Range-check every micro-op against the architecture once.

    Mirrors the per-op checks of :meth:`repro.sim.Simulator.execute`
    (minus the mask-state-dependent ones, which remain runtime checks in
    the replay plan).  Returns the number of :class:`ReadOp`s.  Raises
    :class:`CompileError` on the first invalid operation.
    """
    registers, rows, crossbars = config.registers, config.rows, config.crossbars

    def check(kind: str, values, bound: int) -> None:
        for value in values:
            if not 0 <= value < bound:
                raise ValueError(f"{kind} {value} out of range")

    reads = 0
    for position, op in enumerate(ops):
        try:
            if isinstance(op, LogicHOp):
                check("intra-row index", (op.in_a, op.in_b, op.out), registers)
                pattern_outputs(
                    op.gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step,
                    config.partitions,
                )
            elif isinstance(op, CrossbarMaskOp):
                if op.stop >= crossbars:
                    raise ValueError("crossbar mask out of range")
                RangeMask(op.start, op.stop, op.step)
            elif isinstance(op, RowMaskOp):
                if op.stop >= rows:
                    raise ValueError("row mask out of range")
                RangeMask(op.start, op.stop, op.step)
            elif isinstance(op, ReadOp):
                check("intra-row index", (op.index,), registers)
                reads += 1
            elif isinstance(op, WriteOp):
                check("intra-row index", (op.index,), registers)
                if op.value >> write_value_bits(config.word_size):
                    raise ValueError("write value exceeds word size")
            elif isinstance(op, LogicVOp):
                check("intra-row index", (op.index,), registers)
                # in_row is ignored (and unchecked) for INIT gates, matching
                # the simulator's runtime behavior.
                is_not = op.gate == GateType.NOT
                check("row", (op.in_row, op.out_row) if is_not else (op.out_row,), rows)
            elif isinstance(op, MoveOp):
                check("intra-row index", (op.src_index, op.dst_index), registers)
                check("row", (op.src_row, op.dst_row), rows)
                # The crossbar-pattern restrictions depend on the mask in
                # effect at replay time; checked there (the program's bill).
            else:
                raise ValueError(f"unknown micro-operation {op!r}")
        except ValueError as exc:
            raise CompileError(f"op {position}: {exc}") from exc
    return reads


def compile_ops(
    ops: Iterable[MicroOp],
    config: PIMConfig,
    name: str = "program",
    optimize: bool = True,
    macros: int = 0,
) -> MicroProgram:
    """Validate (and optionally peephole-optimize) a recorded op stream.

    With ``optimize=False`` the stream is preserved verbatim, so cycle
    counts match op-by-op lowering exactly.  With ``optimize=True`` the
    stream may shrink (fewer cycles), but the resulting memory state is
    bit-identical. ``macros`` is the number of macro-instructions the
    stream was recorded from. The program is the stream's operation words:
    an op the chip's 64-bit interface cannot carry (a field wider than the
    word's) is a :class:`CompileError` like any other invalid op.
    """
    ops = list(ops)
    validate_ops(ops, config)
    try:
        program = MicroProgram.from_ops(ops, name, config, macros=macros)
    except ValueError as exc:
        raise CompileError(str(exc)) from exc
    if optimize:
        words = program.encoded(config.word_size)
        keep = kept(columns_of_words(words, config.word_size)).tolist()
        program = MicroProgram.from_ops(
            compress(ops, keep), name, config, len(ops), macros
        )
    return program
