"""Compilation of micro-op streams into validated :class:`MicroProgram`s.

This is the "compile" half of the compile/replay pipeline: a recorded
micro-operation list goes through

1. **peephole optimization** (optional) — stream-level rewrites that
   preserve the final memory state bit-for-bit while removing wasted
   cycles:

   - *mask coalescing*: a ``CrossbarMaskOp``/``RowMaskOp`` that is
     superseded by a later mask of the same kind before any consuming
     operation, or that re-sets the mask value already in effect, is
     dropped.  Macro-instruction streams re-emit identical full-range
     masks before every instruction, so this collapses the per-instruction
     mask preamble of a fused loop body to a single pair.
   - *INIT1 elimination*: an ``INIT1`` whose output cells are already
     known to hold logical 1 (from an earlier ``INIT1`` under the same
     masks, with no intervening pull-down on those cells) is a no-op and
     is dropped.  Tracking is reset conservatively on every mask change
     and on any write the pass cannot reason about.

2. **validation** — every op is range-checked against the architecture
   exactly once (register/row/crossbar bounds, partition-pattern
   disjointness via :func:`repro.arch.halfgates.pattern_outputs`, the
   memoized :func:`~repro.arch.halfgates.expand_pattern`; H-tree move
   restrictions), so replay paths can skip per-op re-validation.
   Callers that assemble streams from already-validated pieces (the
   driver's cached R-type bodies, the spliced stream compiler in
   :meth:`repro.driver.driver.Driver._compile_spliced`) pass
   ``validate=False`` and take responsibility for the few checks their
   construction does not imply (mask ranges).

The result is an immutable :class:`~repro.driver.program.MicroProgram`
stamped with the config fingerprint it was validated against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

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
)
from repro.driver.program import MicroProgram


class CompileError(Exception):
    """Raised when a recorded stream is invalid for the architecture."""


# ----------------------------------------------------------------------
# Peephole pass 1: mask coalescing
# ----------------------------------------------------------------------
def coalesce_masks(ops: Sequence[MicroOp]) -> List[MicroOp]:
    """Drop redundant and superseded crossbar/row mask operations.

    Semantics-preserving for any starting simulator state: the first mask
    of each kind is always emitted (the mask state at replay time is
    unknown), and trailing masks are kept because mask state persists
    beyond the program.
    """
    out: List[MicroOp] = []
    # The mask value in effect at this point of the *optimized* stream
    # (None = unknown), and the pending not-yet-emitted mask ops.
    current = {CrossbarMaskOp: None, RowMaskOp: None}
    pending: Dict[type, Optional[MicroOp]] = {
        CrossbarMaskOp: None, RowMaskOp: None,
    }

    def flush() -> None:
        for kind in (CrossbarMaskOp, RowMaskOp):
            op = pending[kind]
            if op is not None:
                out.append(op)
                current[kind] = (op.start, op.stop, op.step)
                pending[kind] = None

    for op in ops:
        kind = type(op)
        if kind in pending:
            if current[kind] == (op.start, op.stop, op.step):
                pending[kind] = None  # back to the value in effect: cancel
            else:
                pending[kind] = op  # supersedes any unconsumed pending mask
        else:
            flush()
            out.append(op)
    flush()
    return out


# ----------------------------------------------------------------------
# Peephole pass 2: redundant-INIT1 elimination
# ----------------------------------------------------------------------
def _h_output_mask(op: LogicHOp) -> int:
    """Bitmask of the partitions written by a horizontal operation."""
    mask = 0
    for p_out in range(op.p_out, op.p_end + 1, op.p_step):
        mask |= 1 << p_out
    return mask


def eliminate_redundant_init1(ops: Sequence[MicroOp]) -> List[MicroOp]:
    """Drop ``INIT1`` ops whose output cells are provably already 1.

    Tracks, per register, the set of partitions known to hold logical 1 in
    the currently-masked region.  Any mask change resets all knowledge
    (the known-ones property is relative to the selected rows/crossbars);
    any operation that can pull cells down, or whose effect the pass does
    not model (writes, moves, vertical logic), clears the affected
    register conservatively.
    """
    out: List[MicroOp] = []
    known: Dict[int, int] = {}  # register -> bitmask of known-one partitions

    for op in ops:
        if isinstance(op, (CrossbarMaskOp, RowMaskOp)):
            known.clear()
            out.append(op)
        elif isinstance(op, LogicHOp):
            written = _h_output_mask(op)
            if op.gate == GateType.INIT1:
                if known.get(op.out, 0) & written == written:
                    continue  # every output cell is already 1: a no-op
                known[op.out] = known.get(op.out, 0) | written
                out.append(op)
            else:
                # INIT0 / NOT / NOR pull (or force) outputs toward 0.
                known[op.out] = known.get(op.out, 0) & ~written
                out.append(op)
        elif isinstance(op, WriteOp):
            known.pop(op.index, None)
            out.append(op)
        elif isinstance(op, LogicVOp):
            known.pop(op.index, None)
            out.append(op)
        elif isinstance(op, MoveOp):
            known.pop(op.dst_index, None)
            out.append(op)
        else:  # ReadOp: no state change
            out.append(op)
    return out


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_ops(ops: Iterable[MicroOp], config: PIMConfig) -> int:
    """Range-check every micro-op against the architecture once.

    Mirrors the per-op checks of :meth:`repro.sim.Simulator.execute`
    (minus the mask-state-dependent ones, which remain runtime checks in
    the replay plan).  Returns the number of :class:`ReadOp`s.  Raises
    :class:`CompileError` on the first invalid operation.
    """
    registers, rows, crossbars = config.registers, config.rows, config.crossbars
    reads = 0
    for position, op in enumerate(ops):
        try:
            if isinstance(op, LogicHOp):
                for index in (op.in_a, op.in_b, op.out):
                    if not 0 <= index < registers:
                        raise ValueError(f"intra-row index {index} out of range")
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
                if not 0 <= op.index < registers:
                    raise ValueError(f"intra-row index {op.index} out of range")
                reads += 1
            elif isinstance(op, WriteOp):
                if not 0 <= op.index < registers:
                    raise ValueError(f"intra-row index {op.index} out of range")
                if op.value >= (1 << config.word_size):
                    raise ValueError("write value exceeds word size")
            elif isinstance(op, LogicVOp):
                if not 0 <= op.index < registers:
                    raise ValueError(f"intra-row index {op.index} out of range")
                # in_row is ignored (and unchecked) for INIT gates, matching
                # the simulator's runtime behavior.
                checked = (
                    (op.in_row, op.out_row)
                    if op.gate == GateType.NOT
                    else (op.out_row,)
                )
                for row in checked:
                    if not 0 <= row < rows:
                        raise ValueError(f"row {row} out of range")
            elif isinstance(op, MoveOp):
                for index in (op.src_index, op.dst_index):
                    if not 0 <= index < registers:
                        raise ValueError(f"intra-row index {index} out of range")
                for row in (op.src_row, op.dst_row):
                    if not 0 <= row < rows:
                        raise ValueError(f"row {row} out of range")
                # The crossbar-pattern restrictions depend on the mask in
                # effect at replay time; checked there (the program's bill).
            else:
                raise ValueError(f"unknown micro-operation {op!r}")
        except ValueError as exc:
            raise CompileError(f"op {position}: {exc}") from exc
    return reads


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def compile_ops(
    ops: Iterable[MicroOp],
    config: PIMConfig,
    name: str = "program",
    optimize: bool = True,
    validate: bool = True,
    macros: int = 0,
) -> MicroProgram:
    """Validate (and optionally peephole-optimize) a recorded op stream.

    With ``optimize=False`` the stream is preserved verbatim — the mode
    the driver uses for its per-instruction cache, where cycle counts
    must match uncached lowering exactly.  With ``optimize=True`` the
    stream may shrink (fewer cycles), but the resulting memory state is
    bit-identical.

    ``validate=False`` skips the per-op range checks — only for streams
    that are valid by construction (the driver's own lowering output);
    externally recorded streams should keep the default. ``macros`` is
    the number of macro-instructions the stream was recorded from.
    """
    ops = list(ops)
    source_ops = len(ops)
    if optimize:
        ops = coalesce_masks(ops)
        ops = eliminate_redundant_init1(ops)
    if validate:
        validate_ops(ops, config)
    return MicroProgram.from_ops(ops, name, config, source_ops, macros)
