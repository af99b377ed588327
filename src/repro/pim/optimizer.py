"""Graph-level optimizer passes for captured tensor programs.

``pim.compile`` (PR 2) replays the *exact* eager macro-instruction
stream. That stream is full of slack a graph-level view can remove:
Python code recomputes subexpressions, broadcasts the same constant into
several scratch tensors, and computes temporaries whose results are
never observed after the trace. This module closes that gap with a pass
pipeline that runs on the linearized graph IR (the captured
macro-instruction list) between capture and backend lowering:

1. **constant folding + common-subexpression elimination** (one forward
   pass, ``fold_and_cse``) — registers are value-numbered cell-accurately
   (region containment, not just register identity), uniform-constant
   regions are tracked through ``WriteInstr`` broadcasts, R-type
   operations whose operands are all known constants are folded into a
   single constant write, and a recomputation of an available expression
   is dropped (same destination) or rewritten into a cheap ``COPY``;
2. **dead-temporary elimination** (``eliminate_dead_instructions``) — a
   backward liveness walk at cell granularity drops every instruction
   whose written cells belong only to temporaries that were freed before
   the capture ended and are never read afterwards;
3. **register reuse** (``reuse_registers``, ``opt_level >= 3``) — whole
   registers that hold only dead temporaries are renamed onto earlier
   dead-temporary registers with disjoint lifetimes, shrinking the
   crossbar-cell reservation a compiled graph holds for replays.

Every pass preserves, bit for bit, the final contents of every cell
that is *observable* after the program: argument tensors, live (output)
tensors, and the cells deferred scalar reads re-visit. Cells of dead
temporaries may legitimately diverge from eager execution — nothing can
read them.

The optimization level is threaded from ``pim.compile(opt_level=...)``
/ ``TraceSession.lower(opt_level=...)``:

====  =======================================================
0     verbatim eager stream (cycle-exact replay, the default)
1     driver peephole passes only (mask coalescing, INIT1)
2     level 1 + constant folding, CSE, dead-temporary elimination
3     level 2 + allocation-lifetime-aware register reuse
====  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.isa.instructions import (
    ARITY,
    Instruction,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
    written_region,
)
from repro.sim.stats import SimStats

#: The supported optimization levels (see the module docstring table).
OPT_LEVELS = (0, 1, 2, 3)
OPT_LEVEL_MAX = OPT_LEVELS[-1]

#: A ``(register, warp)`` allocator cell, the reservation granularity.
Cell = Tuple[int, int]

_EXPONENT_MASK = 0x7F800000


def resolve_opt_level(opt_level: int = 0) -> int:
    """Validate an ``opt_level`` (see the module docstring table)."""
    level = int(opt_level)
    if level not in OPT_LEVELS:
        raise ValueError(
            f"opt_level must be one of {OPT_LEVELS}, got {opt_level!r}"
        )
    return level


@dataclass
class OptReport:
    """Pre- vs post-optimization accounting for one lowered graph.

    Produced by :meth:`repro.pim.graph.TraceSession.lower` for every
    ``opt_level >= 1`` lowering and surfaced through
    ``CompiledFunction.opt_report()`` and ``pim.Profiler.opt_reports``.
    Cycle numbers are the per-replay bill of the compiled program
    (the bill it carries, via ``Backend.program_stats``); ``cells``
    counts the allocator cells the compiled graph reserves for replays.
    ``cycles_before`` prices the verbatim stream, which nothing lowers
    or runs: ``baseline`` (a call to ``Backend.stream_stats``) is made on
    its first read and replaced by its result.
    """

    name: str
    opt_level: int
    macros_before: int = 0
    macros_after: int = 0
    cycles_after: int = 0
    cells_before: int = 0
    cells_after: int = 0
    passes: Dict[str, int] = field(default_factory=dict)
    baseline: Union[Callable[[], SimStats], SimStats, None] = field(
        default=None, repr=False, compare=False
    )

    @property
    def cycles_before(self) -> int:
        if callable(self.baseline):
            self.baseline = self.baseline()
        return self.baseline.cycles if self.baseline else 0

    @property
    def cycle_reduction(self) -> float:
        """Fraction of per-replay cycles the optimizer removed."""
        if self.cycles_before <= 0:
            return 0.0
        return 1.0 - self.cycles_after / self.cycles_before

    def summary(self) -> str:
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(self.passes.items()) if value
        )
        return (
            f"optimizer[{self.name!r} O{self.opt_level}] "
            f"instrs {self.macros_before}->{self.macros_after}  "
            f"cycles {self.cycles_before}->{self.cycles_after} "
            f"({self.cycle_reduction:.1%} saved)  "
            f"cells {self.cells_before}->{self.cells_after}"
            + (f"  [{detail}]" if detail else "")
        )


# ----------------------------------------------------------------------
# Cell-accurate effect analysis
# ----------------------------------------------------------------------
def _region(
    cache: dict, config: PIMConfig, warp_mask: Optional[RangeMask],
    row_mask: Optional[RangeMask],
) -> np.ndarray:
    """The boolean ``(crossbars, rows)`` footprint of a masked access;
    a ``None`` mask (an instruction's own, unset) is the whole axis.

    Cached per mask pair; callers must treat the result as immutable.
    """
    key = (warp_mask, row_mask)
    region = cache.get(key)
    if region is None:
        warps = warp_mask or RangeMask.all(config.crossbars)
        rows = row_mask or RangeMask.all(config.rows)
        region = np.zeros((config.crossbars, config.rows), dtype=bool)
        region[
            warps.start : warps.stop + 1 : warps.step,
            rows.start : rows.stop + 1 : rows.step,
        ] = True
        cache[key] = region
    return region


def _accesses(
    instr: Instruction, config: PIMConfig, cache: dict
) -> Tuple[List[Tuple[int, np.ndarray]], List[Tuple[int, np.ndarray]]]:
    """``(writes, reads)`` of an instruction as ``(register, region)`` pairs.

    The write is :func:`~repro.isa.instructions.written_region`, *fully
    defined*: every cell in it receives a new value. The reads are an
    R-type's sources over that region, a move's source thread and a
    read's cell.
    """
    if isinstance(instr, ReadInstr):
        cell = _region(cache, config, RangeMask.single(instr.warp),
                       RangeMask.single(instr.thread))
        return [], [(instr.reg, cell)]
    reg, warps, rows = written_region(instr, config)
    region = _region(cache, config, warps, rows)
    if isinstance(instr, MoveInstr):
        source = _region(cache, config, instr.warp_mask,
                         RangeMask.single(instr.src_thread))
        return [(reg, region)], [(instr.src_reg, source)]
    sources = instr.sources() if isinstance(instr, RInstr) else ()
    return [(reg, region)], [(src, region) for src in sources]


# ----------------------------------------------------------------------
# Pass 1: constant folding + common-subexpression elimination
# ----------------------------------------------------------------------
def _fold_value(op: ROp, dtype, raws: Sequence[int]) -> Optional[int]:
    """Fold an R-type operation over uniform constant operands.

    Returns the raw 32-bit result word, or ``None`` when folding is
    refused. Integer semantics are exact over the full domain (the
    functional model mirrors the restoring divider's division-by-zero
    convention); float folding is restricted to the value domain where
    the functional semantics are verified bit-identical to the gate
    level — no Inf/NaN operands or results, and no division (whose
    by-zero convention deviates).
    """
    if len(raws) != ARITY[op]:
        return None
    from repro.backend.numpy_backend import _float_op, _int_op

    srcs = [np.array([raw & 0xFFFFFFFF], dtype=np.uint32) for raw in raws]
    with np.errstate(all="ignore"):
        if dtype.is_float:
            if op in (ROp.DIV, ROp.MOD):
                return None
            if any((raw & _EXPONENT_MASK) == _EXPONENT_MASK for raw in raws):
                return None  # Inf/NaN operand: outside the verified domain
            word = int(_float_op(op, srcs)[0])
            if (word & _EXPONENT_MASK) == _EXPONENT_MASK:
                return None  # overflowed to Inf/NaN
            return word
        return int(_int_op(op, srcs)[0])


def fold_and_cse(
    instructions: Sequence[Instruction],
    config: PIMConfig,
    cache: dict,
    stats: Dict[str, int],
) -> List[Instruction]:
    """One forward pass of constant folding and value-numbering CSE.

    Invariant: the rewritten stream leaves *every* cell of memory with
    exactly the bits the input stream would (the pass only removes
    recomputations of values provably already present, and replaces
    constant computations with writes of the identical word).
    """
    version: Dict[int, int] = {}
    # reg -> (raw constant, owned region bool array where it holds).
    consts: Dict[int, Tuple[int, np.ndarray]] = {}
    # expression key -> (dest register, dest version right after the def).
    avail: Dict[Tuple, Tuple[int, int]] = {}
    out: List[Instruction] = []

    def bump(reg: int) -> int:
        version[reg] = version.get(reg, 0) + 1
        return version[reg]

    for instr in instructions:
        if isinstance(instr, WriteInstr):
            region = _region(cache, config, instr.warp_mask, instr.row_mask)
            bump(instr.reg)
            record = consts.get(instr.reg)
            if record is not None and record[0] == instr.value:
                np.logical_or(record[1], region, out=record[1])
            else:
                consts[instr.reg] = (instr.value, region.copy())
            out.append(instr)
            continue

        if isinstance(instr, MoveInstr):
            bump(instr.dst_reg)
            consts.pop(instr.dst_reg, None)
            out.append(instr)
            continue

        if not isinstance(instr, RInstr):  # ReadInstr: no state change
            out.append(instr)
            continue

        region = _region(cache, config, instr.warp_mask, instr.row_mask)
        numbers: List[Tuple] = []
        raws: List[int] = []
        all_const = True
        for reg in instr.sources():
            record = consts.get(reg)
            if record is not None and not (region & ~record[1]).any():
                numbers.append(("const", record[0]))
                raws.append(record[0])
            else:
                numbers.append(("reg", reg, version.get(reg, 0)))
                all_const = False
        key = (
            instr.op, instr.dtype.name, tuple(numbers),
            instr.warp_mask, instr.row_mask,
        )

        hit = avail.get(key)
        if hit is not None and version.get(hit[0], 0) == hit[1]:
            holder = hit[0]
            if holder == instr.dest:
                # The destination already holds this exact value.
                stats["cse_dropped"] = stats.get("cse_dropped", 0) + 1
                continue
            stats["cse_copies"] = stats.get("cse_copies", 0) + 1
            bump(instr.dest)
            held = consts.get(holder)
            if held is not None and not (region & ~held[1]).any():
                consts[instr.dest] = (held[0], region.copy())
            else:
                consts.pop(instr.dest, None)
            out.append(
                RInstr(
                    ROp.COPY, instr.dtype, dest=instr.dest, src_a=holder,
                    warp_mask=instr.warp_mask, row_mask=instr.row_mask,
                )
            )
            continue

        if all_const:
            folded = _fold_value(instr.op, instr.dtype, raws)
            if folded is not None:
                stats["folded"] = stats.get("folded", 0) + 1
                bump(instr.dest)
                consts[instr.dest] = (folded, region.copy())
                out.append(
                    WriteInstr(
                        instr.dest, folded, instr.warp_mask, instr.row_mask
                    )
                )
                continue

        after = bump(instr.dest)
        consts.pop(instr.dest, None)
        avail[key] = (instr.dest, after)
        out.append(instr)
    return out


# ----------------------------------------------------------------------
# Pass 2: dead-temporary elimination
# ----------------------------------------------------------------------
def eliminate_dead_instructions(
    instructions: Sequence[Instruction],
    config: PIMConfig,
    cache: dict,
    dead_cells: Set[Cell],
    stats: Dict[str, int],
) -> List[Instruction]:
    """Backward liveness walk dropping writes no later consumer observes.

    ``dead_cells`` are the ``(register, warp)`` cells that are
    unobservable once the program ends: allocated during the trace,
    freed before it finished, and not re-visited by a deferred scalar
    read. Every other cell (arguments, live tensors, pre-existing
    memory) starts live, so instructions affecting them are never
    dropped — the optimized stream is bit-identical on all of them.
    """
    live = np.ones((config.registers, config.crossbars, config.rows), dtype=bool)
    for reg, warp in dead_cells:
        if 0 <= reg < config.registers and 0 <= warp < config.crossbars:
            live[reg, warp, :] = False

    kept: List[Instruction] = []
    for instr in reversed(instructions):
        writes, reads = _accesses(instr, config, cache)
        if isinstance(instr, ReadInstr):
            # Responds with a word: observable by definition.
            for reg, region in reads:
                live[reg][region] = True
            kept.append(instr)
            continue
        if writes and not any(live[reg][region].any() for reg, region in writes):
            stats["dce_dropped"] = stats.get("dce_dropped", 0) + 1
            continue
        for reg, region in writes:  # fully defined: kills liveness above
            live[reg][region] = False
        for reg, region in reads:
            live[reg][region] = True
        kept.append(instr)
    kept.reverse()
    return kept


# ----------------------------------------------------------------------
# Pass 3: allocation-lifetime-aware register reuse
# ----------------------------------------------------------------------
def reuse_registers(
    instructions: Sequence[Instruction],
    config: PIMConfig,
    cache: dict,
    dead_cells: Set[Cell],
    stats: Dict[str, int],
) -> List[Instruction]:
    """Rename dead-temporary registers onto earlier ones (fewer cells).

    A register is a *pure temporary* when every cell the stream touches
    in it is a dead trace cell and every read is preceded by an
    in-stream write of that cell (no capture-time carry-in). Two pure
    temporaries with disjoint instruction lifetimes can share one
    register, provided the target register's dead cells cover the
    renamed footprint; the compiled graph then reserves the shared
    cells once instead of both. Renaming never merges registers that
    appear in overlapping lifetimes, so no instruction ever gains an
    operand collision it did not already have.
    """
    dead_by_reg: Dict[int, Set[int]] = {}
    for reg, warp in dead_cells:
        dead_by_reg.setdefault(reg, set()).add(warp)

    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    warps_used: Dict[int, Set[int]] = {}
    carry_in: Set[int] = set()  # read a cell the stream never wrote
    defined: Dict[int, np.ndarray] = {}

    def touch(reg: int, region: np.ndarray, pos: int) -> None:
        first.setdefault(reg, pos)
        last[reg] = pos
        warps_used.setdefault(reg, set()).update(
            int(w) for w in np.nonzero(region.any(axis=1))[0]
        )

    for pos, instr in enumerate(instructions):
        writes, reads = _accesses(instr, config, cache)
        for reg, region in reads:  # sources observed before the def
            touch(reg, region, pos)
            have = defined.get(reg)
            if have is None or (region & ~have).any():
                carry_in.add(reg)
        for reg, region in writes:
            touch(reg, region, pos)
            have = defined.get(reg)
            if have is None:
                have = defined[reg] = np.zeros(
                    (config.crossbars, config.rows), dtype=bool
                )
            have[region] = True

    candidates = [
        reg
        for reg in first
        if reg not in carry_in
        and warps_used[reg] <= dead_by_reg.get(reg, set())
    ]
    candidates.sort(key=first.__getitem__)

    mapping: Dict[int, int] = {}
    pool: List[List[int]] = []  # [root register, extended last position]
    for reg in candidates:
        for entry in pool:
            root, busy_until = entry
            if busy_until < first[reg] and warps_used[reg] <= dead_by_reg.get(
                root, set()
            ):
                mapping[reg] = root
                entry[1] = last[reg]
                break
        else:
            pool.append([reg, last[reg]])

    if not mapping:
        return list(instructions)
    stats["registers_reused"] = stats.get("registers_reused", 0) + len(mapping)

    def rename(instr: Instruction) -> Instruction:
        if isinstance(instr, RInstr):
            fields = {}
            if instr.dest in mapping:
                fields["dest"] = mapping[instr.dest]
            for name in ("src_a", "src_b", "src_c"):
                reg = getattr(instr, name)
                if reg is not None and reg in mapping:
                    fields[name] = mapping[reg]
            return replace(instr, **fields) if fields else instr
        if isinstance(instr, WriteInstr):
            if instr.reg in mapping:
                return replace(instr, reg=mapping[instr.reg])
            return instr
        if isinstance(instr, MoveInstr):
            fields = {}
            if instr.src_reg in mapping:
                fields["src_reg"] = mapping[instr.src_reg]
            if instr.dst_reg in mapping:
                fields["dst_reg"] = mapping[instr.dst_reg]
            return replace(instr, **fields) if fields else instr
        if isinstance(instr, ReadInstr):
            if instr.reg in mapping:
                return replace(instr, reg=mapping[instr.reg])
            return instr
        return instr

    return [rename(instr) for instr in instructions]


# ----------------------------------------------------------------------
# Pipeline entry points
# ----------------------------------------------------------------------
def optimize_instructions(
    instructions: Sequence[Instruction],
    config: PIMConfig,
    opt_level: int,
    dead_cells: Iterable[Cell],
) -> Tuple[List[Instruction], Dict[str, int]]:
    """Run the graph-level pass pipeline at ``opt_level`` (>= 2).

    Returns the rewritten stream and per-pass counters. Pass order is
    fixed: folding/CSE first (it creates dead broadcast writes), then
    dead-temporary elimination, then register reuse on the final stream
    (so lifetimes reflect what actually replays). To add a pass, append
    it here and state the invariant it preserves in
    ``docs/architecture.md``.
    """
    stats: Dict[str, int] = {}
    if opt_level < 2:
        return list(instructions), stats
    dead = set(dead_cells)
    cache: dict = {}
    stream = fold_and_cse(instructions, config, cache, stats)
    stream = eliminate_dead_instructions(stream, config, cache, dead, stats)
    if opt_level >= 3:
        stream = reuse_registers(stream, config, cache, dead, stats)
    return stream, stats


def plan_reservation(
    instructions: Sequence[Instruction],
    config: PIMConfig,
    trace_cells: Set[Cell],
    live_cells: Set[Cell],
    read_cells: Set[Cell],
) -> Set[Cell]:
    """The allocator cells a compiled graph must reserve for replays.

    The unoptimized reservation is every cell the trace allocated; the
    optimized stream may write far fewer. Reserved are the trace cells
    the final stream still writes, the cells of tensors live when the
    capture ended, and the cells deferred scalar reads re-visit — cells
    of fully-eliminated temporaries return to the allocator.
    """
    cache: dict = {}
    written: Set[Cell] = set()
    for instr in instructions:
        writes, _ = _accesses(instr, config, cache)
        for reg, region in writes:
            written.update(
                (reg, int(w)) for w in np.nonzero(region.any(axis=1))[0]
            )
    return (written & trace_cells) | set(live_cells) | (read_cells & trace_cells)
