"""Stream emission: macro-instruction streams as one cached plan.

The *stream* — not the macro — is the driver's unit of emission.  A
macro-instruction sequence (an eager R-type macro is the one-instruction
case) is lowered once into a single fused, self-masked
:class:`~repro.driver.program.MicroProgram` (splicing the cached
per-(op, dtype, operand-layout) bodies behind cached mask preambles) and
wrapped in a :class:`StreamPlan` that fixes, at build time, the dispatch
route the chip supports.  Replaying the plan re-enters Python once per
*stream*: one cache lookup, one chip call.  Short bit-parallel bodies
(int add at ~185 micro-ops, comparisons at ~274) need this to keep the
chip busy: ``results/driver_throughput.txt`` attributes their sub-1x
per-macro headroom entirely to fixed per-dispatch cost.

Three pieces live here:

- :class:`MacroStream` — the stream IR handle: an immutable instruction
  tuple with a cached content hash, so steady-state plan lookups cost an
  identity check instead of re-hashing every instruction;
- :class:`StreamPlan` — a fused program plus its pre-resolved dispatch
  route (``execute_program`` replay, or pre-encoded ``execute_batch``
  word blocks);
- :func:`build_plan` / :func:`plan_route` — plan construction.

One rule decides how a stream reaches the chip: **plan → chip; otherwise
``Driver._execute_lowered``.**  A stream has no plan when the chip has no
program/batch port, when a batch-only sink is asked for in-stream read
responses it cannot return, when the driver's cache is disabled
(``cache_size=0``), or when it is longer than :data:`MAX_PLAN_MACROS`;
it is then lowered and forwarded op-by-op, macro by macro,
bit-identically in memory and ``SimStats``.  There is no mode to
select between the two.

The :attr:`Driver.emit_counters <repro.driver.driver.Driver.emit_counters>`
dict records which of the two served each stream (``"stream"`` /
``"macro"``); ``pim.Profiler`` snapshots it as ``emit_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.driver.program import MicroProgram
from repro.isa.instructions import Instruction, ReadInstr  # noqa: F401


class MacroStream(tuple):
    """An immutable macro-instruction sequence with a cached content hash.

    The stream-plan cache is keyed on the instruction tuple itself, so a
    naive lookup would re-hash every instruction dataclass on every
    emission.  A ``MacroStream`` computes that hash once and memoizes it;
    callers that hold on to the handle (the throughput harness, a host
    loop emitting the same stream repeatedly) then pay an identity
    comparison per lookup.  Equality stays tuple equality, so plain
    tuples and lists of the same instructions find the same cache entry.
    """

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = tuple.__hash__(self)
            self.__dict__["_hash"] = cached
        return cached

    @classmethod
    def wrap(cls, instructions) -> "MacroStream":
        """Adopt an existing handle, or freeze any instruction iterable."""
        if isinstance(instructions, cls):
            return instructions
        return cls(instructions)


@dataclass(frozen=True, eq=False)
class StreamPlan:
    """A fused emission plan: one program, one pre-resolved dispatch route.

    Attributes:
        program: the fused (unoptimized — cycle counts must match
            op-by-op lowering exactly) :class:`MicroProgram` of the whole
            stream; its ``macros`` and ``reads`` are the plan's.
        route: ``"program"`` (chip ``execute_program`` replay) or
            ``"batch"`` (one pre-encoded ``execute_batch`` word block).
    """

    program: MicroProgram
    route: str

    def __len__(self) -> int:
        return len(self.program)


#: Cache sentinel for streams with no supported plan route, so the
#: unsupported verdict is cached instead of re-derived per emission.
UNSUPPORTED = object()


#: Longest stream (in macro-instructions) that gets a plan. A plan keeps
#: the fused program and the chip's replay plan alive for as long as the
#: stream tier holds it, and the tier is bounded by entry count, not by
#: size. The tensor layer's bulk moves can be arbitrarily long (one
#: single-warp move per element when the warp step is no power of four:
#: 65 536 moves, ~520 k micro-ops, in one stage of a 64 k-element sort),
#: and a move costs ~3 KB of plan. Measured on that sort (simulator,
#: 64x1024; no plans at all: 62.6 s, 47 MB peak RSS): every stream
#: planned 38.4 s / 790 MB; up to 16 384 macros 42.9 s / 334 MB; up to
#: 4 096 macros 44.0 s / 218 MB; up to 1 024 macros 55.7 s / 188 MB.
MAX_PLAN_MACROS = 4096


def plan_route(chip, reads: int) -> Optional[str]:
    """The fastest whole-stream dispatch route ``chip`` supports.

    ``execute_program`` replay handles everything (including in-stream
    reads — replay returns the last response).  Batch-only sinks ship one
    pre-encoded word block, but cannot return read responses
    (``execute_batch`` has no return channel), so streams containing
    reads are unsupported there.  Chips exposing only ``execute`` gain
    nothing from a fused plan — per-op dispatch dominates either way —
    and are served by ``Driver._execute_lowered``.
    """
    if chip is None:
        return None
    if hasattr(chip, "execute_program"):
        return "program"
    if hasattr(chip, "execute_batch") and reads == 0:
        return "batch"
    return None


def build_plan(driver, instructions, name: str = "stream") -> Optional[StreamPlan]:
    """Compile a macro stream into a :class:`StreamPlan`, or ``None``.

    ``None`` means no supported dispatch route exists for this chip and
    stream shape (see :func:`plan_route`), or the stream is longer than
    :data:`MAX_PLAN_MACROS`; the caller lowers the stream op-by-op
    instead.  The fused program is compiled *unoptimized*: a
    plan must be bit-identical to op-by-op lowering in both memory
    effects and cycle accounting, and the peephole passes trade cycles
    for a different (if state-equivalent) stream.

    The program is spliced from the cached mask preambles and the cached
    (and persisted) bodies and lives only in the plan: re-splicing is
    cheaper than a disk load, so it is neither written through to the
    persistent store nor entered into the stream tier a second time.
    """
    instrs = MacroStream.wrap(instructions)
    if len(instrs) > MAX_PLAN_MACROS:
        return None
    reads = sum(1 for instr in instrs if isinstance(instr, ReadInstr))
    route = plan_route(driver.chip, reads)
    if route is None:
        return None
    program = driver._compile_spliced(instrs, name, optimize=False)
    return StreamPlan(program, route)
