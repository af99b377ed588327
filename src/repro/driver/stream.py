"""Stream emission: a macro-instruction stream is one cached program.

The *stream* — not the macro — is the driver's unit of emission.  A
macro-instruction sequence (an eager R-type macro is the one-instruction
case) is lowered once into a single fused, self-masked
:class:`~repro.driver.program.MicroProgram` (the cached per-(op, dtype,
operand-layout) bodies spliced behind cached mask preambles), kept in the
driver's stream tier, and handed to the chip's ``execute_program`` port.
Replaying it re-enters Python once per *stream*: one cache lookup, one
chip call.  Short bit-parallel bodies (int add at ~185 micro-ops,
comparisons at ~274) need this to keep the chip busy: per macro, their
fixed dispatch cost alone caps the driver's headroom below 1x
(``benchmarks/test_driver_throughput.py``).

A dispatch unit has no plan for exactly three reasons: it is a non-R
macro issued alone (``Driver.execute``), the cache is off (``cache_size=0``),
or the stream is longer than :data:`MAX_PLAN_MACROS`.  It is then lowered
and forwarded op-by-op by ``Driver._execute_lowered`` — bit-identically in
memory, ``SimStats``, read responses and its one fault window.  Nothing
selects between the routes, and neither refuses on its own: both start
with ``Driver.check_stream``, so a stream is refused whole, before one
op is sent, or not at all.

This module holds the two things a plan lookup needs besides the driver:
:class:`MacroStream`, the stream handle, and :data:`MAX_PLAN_MACROS`.
:attr:`Driver.emit_counters <repro.driver.driver.Driver.emit_counters>`
records which route served each dispatch unit (``"stream"`` /
``"macro"``), surfaced as ``emit.*`` by ``Backend.counters()``.
"""

from __future__ import annotations


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
#: Planning only to drop the plan loses: 4 096 random intra-warp moves
#: (simulator, 16x256, 2-vCPU Xeon) take 380-500 ms op by op, 550-640 ms
#: to plan and replay once; only a warm replay (110-130 ms) wins.
MAX_PLAN_MACROS = 4096
