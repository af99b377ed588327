"""Compiled micro-operation streams: the :class:`MicroProgram` IR.

The driver's job is to translate macro-instructions into micro-operation
streams fast enough to keep the chip busy (Section V-B).  Because lowering
is deterministic in the operands, the stream for a repeated
macro-instruction never changes — so the natural unit of reuse is a
*program*: an immutable, pre-validated sequence of micro-operations that
can be replayed many times at near-zero host cost ("compile once, replay
many times").

Two pieces live here:

- :class:`MicroProgram` — the immutable IR: the stream's 64-bit
  operation words (what the driver builds, splices, stores and ships
  DMA-style to a :class:`~repro.driver.driver.BufferSink`; op objects
  are a memo of their decoding, made only if asked for) plus a name, the
  :func:`~repro.arch.config.config_fingerprint` of the architecture it
  was validated against (cache keys embed it, and every consumer refuses
  a program compiled for another geometry), and its *bill* — the static
  ``SimStats`` of one execution.
- :class:`ProgramCache` — a small LRU mapping cache keys to compiled
  programs, with hit/miss counters surfaced by ``pim.Profiler``.

Programs are *built* by the driver's splicer or by
:func:`repro.driver.compiler.compile_ops` (which encodes a recorded op
stream) and *consumed* through a chip's ``execute_program`` port: the
simulator's :meth:`~repro.sim.simulator.Simulator.execute_program`
replay, or ``BufferSink.execute_program``'s copy of the words.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.arch.config import PIMConfig, config_fingerprint
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicVOp,
    MicroOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    decode_many,
    encode_many,
    gate_table,
    is_logic_h,
)
from repro.sim import replay, simulator
from repro.sim.stats import SimStats

#: The cache-key type: any hashable tuple assembled by the caller.
ProgramKey = Hashable


@dataclass(frozen=True)
class SuperStep:
    """One segment of a program's super-step decomposition.

    A ``"gates"`` segment is a maximal run of consecutive horizontal
    gates whose crossbar and row masks are *statically known* (both set
    by earlier operations of the same program — always true for
    self-masked fused streams); vectorized replay lowers each such run
    into one lane program. Every other operation — a mask change, read,
    write, vertical gate or H-tree move — is its own ``"op"`` segment,
    carrying the decoded ``op``; a stretch of gates under caller-set
    masks is one ``"op"`` segment without (gate words are never decoded
    here). ``start`` / ``stop`` index the program's ops; ``xb`` / ``row``
    are the ``(start, stop, step)`` masks the segment runs under
    (``None`` when unknown).
    """

    kind: str
    start: int
    stop: int
    xb: Optional[Tuple[int, int, int]] = None
    row: Optional[Tuple[int, int, int]] = None
    op: Optional[MicroOp] = None

    def __len__(self) -> int:
        return self.stop - self.start


class MicroProgram:
    """An immutable, validated micro-operation stream.

    Instances are identity-hashed: the simulator keys its per-program
    replay plans on the object itself, so equality by content would make
    every lookup O(len(ops)).

    A program *is* its 64-bit operation words (a 1-D ``np.uint64``
    array: what the driver splices, the persistent cache restores and
    :meth:`from_ops` encodes), so every program can be stored, shipped
    and planned.

    Attributes:
        ops: the micro-operations, in execution order — the words,
            decoded on first use and kept: a program that is only priced
            (:meth:`bill`), planned or shipped (:meth:`encoded`) never
            pays for the objects.
        name: a human-readable label (e.g. ``"add.int32"``) for profiling.
        config_fingerprint: the :func:`config_fingerprint` of the config
            the program was validated against.
        reads: number of :class:`ReadOp`s in the stream (replay returns
            the last read's response word).
        macros: number of macro-instructions the stream was recorded
            from (0 when built from raw ops); lets the driver keep its
            macro/micro counters consistent across fused replays.
        source_ops: number of micro-operations the stream held *before*
            the compiler's peephole passes ran (equals ``len(ops)`` for
            unoptimized programs) — the pre- vs post-optimization
            instruction count backends report.
    """

    def __init__(
        self,
        words: np.ndarray,
        name: str,
        config_fingerprint: Tuple[int, ...],
        reads: int = 0,
        macros: int = 0,
        source_ops: int = 0,
        bill: Optional[SimStats] = None,
    ):
        if getattr(words, "dtype", None) != np.uint64 or words.ndim != 1:
            raise TypeError(
                "a MicroProgram is built from a 1-D np.uint64 array of "
                "operation words (MicroProgram.from_ops encodes op objects)"
            )
        self._words = words
        self._ops: Optional[Tuple[MicroOp, ...]] = None  # decode_many's memo
        self.name = name
        self.config_fingerprint = config_fingerprint
        self.reads = reads
        self.macros = macros
        self.source_ops = source_ops
        self._bill = bill

    @property
    def ops(self) -> Tuple[MicroOp, ...]:
        if self._ops is None:  # decode_many re-checks every op's invariants
            self._ops = decode_many(self._words, self.config_fingerprint[4])
        return self._ops

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    @cached_property
    def super_steps(self) -> Tuple[SuperStep, ...]:
        """The program's :class:`SuperStep` decomposition (built once).

        Purely structural (geometry-independent), and read off the words:
        the kind column says which are horizontal gates, only the others —
        a fraction of a percent of a fused stream — are decoded
        (``decode_many`` rejects an unknown kind tag or a bad field among
        them), and mask state is tracked as the triples those establish.
        Gate runs are the gaps between them. The simulator's vectorized
        replay consumes this, and :meth:`replay_summary` reports it.
        """
        words = self._words
        segments: List[SuperStep] = []
        xb = row = None

        def gates(start: int, stop: int) -> None:
            if stop > start:
                kind = "op" if xb is None or row is None else "gates"
                segments.append(SuperStep(kind, start, stop, xb, row))

        others = np.flatnonzero(~is_logic_h(words))
        decoded = decode_many(words[others], self.config_fingerprint[4])
        cursor = 0
        for index, op in zip(others.tolist(), decoded):
            gates(cursor, index)
            segments.append(SuperStep("op", index, index + 1, xb, row, op))
            if isinstance(op, CrossbarMaskOp):
                xb = (op.start, op.stop, op.step)
            elif isinstance(op, RowMaskOp):
                row = (op.start, op.stop, op.step)
            cursor = index + 1
        gates(cursor, len(words))
        return tuple(segments)

    @property
    def gate_table(self) -> tuple:
        """The :func:`~repro.arch.micro_ops.gate_table` of the words: what
        the bill, the replay plan and checksum regions read instead of op
        objects. Built on each read and not kept — each reader memoizes
        its own result. ``ValueError`` for a gate word breaking a
        constructor invariant."""
        return gate_table(self._words)

    @property
    def self_masked(self) -> bool:
        """Whether every gate, move, vertical op and read runs under masks
        the program itself set — true of every stream the driver emits,
        false of an R-type body. Only then does :meth:`bill` hold from any
        mask state a chip may be in."""
        for segment in self.super_steps:
            if segment.kind == "op":
                op = segment.op
                # A gate whose masks are both known sits in a gate run.
                if op is None or (
                    segment.xb is None
                    and isinstance(op, (ReadOp, LogicVOp, MoveOp))
                ) or (segment.row is None and isinstance(op, ReadOp)):
                    return False
        return True

    def bill(self, config: PIMConfig) -> SimStats:
        """What one execution costs a chip whose masks select everything.

        The one :func:`~repro.sim.simulator.accounting_walk` of the
        program, made on first request and kept (the persistent cache
        stores it with the words), billed from the words
        (:meth:`_tallied`). One the chip would refuse is walked again op
        by op, only to raise the chip's own ``SimulationError`` at the op
        (a driver stream never gets here: ``Driver.check_stream`` refused
        it before it was built). H-tree hops are itemized in
        ``htree_hop_cycles``. Treat it as read-only.
        """
        walk = simulator.accounting_walk
        if self._bill is None:
            try:
                self._bill = walk(self._tallied(config.partitions), config)
            except (simulator.SimulationError, ValueError):
                self._bill = walk(self.ops, config)
        return self._bill

    def _tallied(self, partitions: int) -> list:
        """The stream as :func:`~repro.sim.simulator.accounting_walk` bills
        it from words: the non-gate ops (objects :attr:`super_steps` holds)
        and each stretch of gates between them as one
        :class:`~repro.sim.simulator.GateTally` — per gate type a count, and
        the patterns' gate counts (one ``_pattern_mask`` call each) summed."""
        steps = self.super_steps
        fields, keys, index = self.gate_table
        masks = replay.pattern_masks(keys, partitions)
        per_pattern = np.array([count for _, count in masks], dtype=np.int64)
        columns = np.stack(
            [fields["gate"] == code for code in GateType] + [per_pattern[index]]
        )
        starts = np.cumsum([0] + [len(step) for step in steps if step.op is None])
        sums = iter(np.add.reduceat(columns, starts[:-1], axis=1).T.tolist())
        return [
            simulator.GateTally(*next(sums)) if step.op is None else step.op
            for step in steps
        ]

    def replay_summary(self) -> Dict[str, int]:
        """Segmentation accounting: how much of the stream can fuse.

        Returns ``gate_runs`` (number of ``"gates"`` segments),
        ``gate_ops`` (ops inside them — what a vectorized replay fuses),
        and ``fallback_ops`` (ops replayed one at a time).
        """
        runs = [len(step) for step in self.super_steps if step.kind == "gates"]
        return {
            "ops": len(self),
            "super_steps": len(self.super_steps),
            "gate_runs": len(runs),
            "gate_ops": sum(runs),
            "fallback_ops": len(self) - sum(runs),
        }

    def encoded(self, word_size: int) -> "np.ndarray":
        """The stream as a ``np.uint64`` array of 64-bit operation words:
        the program itself (``word_size`` is the fingerprint's)."""
        return self._words

    @classmethod
    def from_ops(
        cls, ops, name: str, config: PIMConfig, source_ops: Optional[int] = None,
        macros: int = 0,
    ) -> "MicroProgram":
        """Encode an op sequence without optimization (validation is the
        compiler's job; prefer :func:`repro.driver.compiler.compile_ops`).
        ``ValueError`` for a field wider than the operation word's."""
        ops = tuple(ops)
        reads = sum(1 for op in ops if isinstance(op, ReadOp))
        program = cls(
            encode_many(ops, config.word_size), name, config_fingerprint(config),
            reads, macros, source_ops=len(ops) if source_ops is None else source_ops,
        )
        program._ops = ops  # the caller held the objects: nothing to decode
        return program


class ProgramCache:
    """An LRU cache of compiled :class:`MicroProgram`s with counters.

    The driver keys entries on ``(instruction kind, dtype, operand
    layout, parallelism, config fingerprint)`` — everything lowering
    depends on — so a hit is always safe to replay verbatim. Fused
    streams (:meth:`repro.driver.driver.Driver.compile`) additionally
    key on the optimizer configuration (the peephole ``optimize`` flag),
    so changing the optimization level mid-session can never replay a
    program compiled under different flags.

    The driver holds two independent instances: the per-R-type *body*
    tier (``Driver.programs``) and the whole-stream tier
    (``Driver.streams``: compiled streams and stream plans, both fused
    programs keyed on the instruction-tuple signature). Keeping the
    tiers separate keeps each one's hit/miss accounting meaningful;
    ``Driver.cache_hits`` / ``SimulatorBackend.cache_hits`` report the
    sum.

    Both tiers are thread-safe: lookups and inserts hold an internal
    lock, so a driver shared by several user threads keeps coherent LRU
    order and exact counters.
    Capacity overflow evicts least-recently-used entries and counts them
    in :attr:`evictions` (surfaced via ``Backend.cache_counters()``).

    When a :class:`~repro.driver.persist.PersistentProgramCache` is
    attached as ``store``, misses probe the disk tier before reporting a
    miss, and inserts write through — the cross-session warm-start path
    (``pim.init(cache_dir=...)``). Stream plans are cheaper to re-splice
    than to load, so their keys are looked up and inserted with
    ``durable=False`` and stay in memory only.
    """

    def __init__(self, maxsize: int = 4096, store=None):
        self.maxsize = max(int(maxsize), 0)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store = store
        self._lock = threading.Lock()
        self._entries: "OrderedDict[ProgramKey, MicroProgram]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ProgramKey) -> bool:
        return key in self._entries

    def get(self, key: ProgramKey, durable: bool = True) -> Optional[MicroProgram]:
        """Look up a program, counting the hit/miss and refreshing LRU order.

        ``durable=False`` marks a key that is :meth:`put` with
        ``durable=False`` (stream plans): the disk tier cannot hold it, so
        is not probed.
        """
        with self._lock:
            program = self._entries.get(key)
            if program is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return program
        if durable and self.store is not None and self.enabled:
            # Probe the disk tier outside the lock (file I/O); a load
            # still counts as a hit for callers — the compile was
            # skipped — and the entry is promoted into the LRU.
            program = self.store.load(key)
            if program is not None:
                with self._lock:
                    self.hits += 1
                    self._insert(key, program)
                return program
        with self._lock:
            self.misses += 1
        return None

    def put(
        self, key: ProgramKey, program: MicroProgram, durable: bool = True
    ) -> None:
        """Insert a program, evicting the least-recently-used beyond maxsize.

        ``durable=False`` keeps it out of the disk tier.
        """
        if not self.enabled:
            return
        with self._lock:
            self._insert(key, program)
        if durable and self.store is not None:
            self.store.store(key, program)

    def _insert(self, key: ProgramKey, program: MicroProgram) -> None:
        self._entries[key] = program
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all in-memory entries (counters and disk tier preserved)."""
        with self._lock:
            self._entries.clear()
