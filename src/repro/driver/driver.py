"""The host driver: macro-instructions in, micro-operations out.

The driver is the software replacement for the on-chip controllers of
previous works (Section V-B): it lowers each ISA macro-instruction into the
stateful-logic micro-operation sequence of the microarchitecture and
forwards the stream to the chip over one interface: ``execute(op)`` and
``execute_program(program)``, implemented by the simulator and by
:class:`BufferSink` (the artifact's driver-throughput method: the same
interface pointed at a memory buffer).

Because lowering is deterministic in the register operands, the driver
keeps a *program cache*: the micro-op body of an R-type instruction is
built once per (op, dtype, operand layout, config fingerprint) into an
immutable :class:`~repro.driver.program.MicroProgram` and replayed on
later calls with fresh mask operations prepended. A body's gates are
born as 64-bit operation words — what the driver hands the chip — and
streams are spliced, optimized and billed as word columns: no gate is an
object on the compile path. This is what makes the Python driver fast
enough to outpace the PIM chip's consumption rate (the claim benchmarked
in ``benchmarks/test_driver_throughput.py``).

There is one dispatch path: an R-type macro is a one-instruction stream,
and every stream is emitted as a cached, self-masked fused
:class:`~repro.driver.program.MicroProgram` through a single
``chip.execute_program`` call. Whatever has no plan — non-R-type macros
issued one at a time, a disabled cache, a stream longer than
:data:`~repro.driver.stream.MAX_PLAN_MACROS` — is lowered and forwarded
op-by-op by :meth:`Driver._execute_lowered`, the reference the
differential suites compare against. Every dispatch unit — on this
driver's chip, or on a backend that only prices through the driver —
ends in :meth:`Driver.close_window`, the one fault window.
Multi-instruction streams can additionally be recorded and
peephole-optimized with :meth:`Driver.compile` /
:meth:`Driver.run_program` (see :mod:`repro.driver.compiler`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.config import PIMConfig, config_fingerprint
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
    encode,
    encode_many,
    encode_rows,
)
from repro.driver import fixed, floating, parallel
from repro.driver.compiler import (
    CompileError,
    columns_of_words,
    compile_ops,
    kept,
    validate_ops,
)
from repro.driver.gates import GateBuilder
from repro.driver.persist import PersistentProgramCache, resolve_cache_dir
from repro.driver.program import MicroProgram, ProgramCache
from repro.driver.stream import MAX_PLAN_MACROS, MacroStream
from repro.faults.checksum import check_verify_mode, program_regions, verify_window
from repro.isa.instructions import (
    Instruction,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
    validate,
)
from repro.sim.simulator import GateTally, Simulator, accounting_walk
from repro.sim.stats import SimStats


#: Default LRU capacity of each program-cache tier.
DEFAULT_CACHE_SIZE = 4096


@lru_cache(maxsize=1024)
def _shared(kind, *fields):
    """One object per distinct op (``kind`` a micro-op class) or gate row
    (``kind`` is ``tuple``) of the short lowerings. A plan-less stream is
    lowered whole and checked before any of it is sent, so until then
    each of its moves holds a list of shared objects."""
    return fields if kind is tuple else kind(*fields)


class BufferSink:
    """A chip stand-in that encodes micro-ops into a bounded ring buffer.

    Mirrors the paper's driver-throughput methodology (artifact appendix):
    micro-operations are rerouted to a memory buffer instead of the
    simulator, so the measured time is purely the host's generation cost.
    :meth:`execute_program` copies a program's pre-encoded words DMA-style
    instead of re-encoding them operation by operation. Reads answer 0.
    """

    def __init__(self, config: PIMConfig, capacity: int = 100_000):
        self.config = config
        self.buffer = np.zeros(capacity, dtype=np.uint64)
        self.count = 0

    def execute(self, op: MicroOp) -> Optional[int]:
        self.buffer[self.count % len(self.buffer)] = encode(op, self.config.word_size)
        self.count += 1
        return 0 if isinstance(op, ReadOp) else None

    def execute_program(self, program: MicroProgram) -> Optional[int]:
        """Copy the program's operation words into the ring buffer."""
        words = program.encoded(self.config.word_size)
        capacity = len(self.buffer)
        size = len(words)
        start = self.count % capacity
        take = min(size, capacity - start)
        self.buffer[start : start + take] = words[:take]
        if take < size:
            rest = min(size - take, capacity)
            self.buffer[:rest] = words[size - rest : size]
        self.count += size
        return 0 if program.reads else None


class Driver:
    """Translates macro-instructions into micro-operations (Section V-B).

    Args:
        chip: the micro-op consumer (a :class:`repro.sim.Simulator` or a
            :class:`BufferSink`), exposing ``execute(op)`` and
            ``execute_program(program)``; ``None`` for a driver that only
            lowers and prices (``config`` is then required).
        config: architecture parameters (defaults to the chip's config).
        parallelism: ``"parallel"`` uses the partition-based fast paths for
            addition/subtraction and bitwise operations (the paper's
            configuration); ``"serial"`` forces the bit-serial suite
            everywhere (the parallelism ablation).
        cache_size: maximum number of compiled R-type bodies to retain
            (the stream-plan tier is bounded by the same size); ``None``
            means :data:`DEFAULT_CACHE_SIZE`, 0 disables caching.
            Evictions beyond the bound are counted per tier and surfaced
            via ``Backend.cache_counters()``.
        cache_dir: directory for the cross-session persistent program
            store (see :mod:`repro.driver.persist`): compiled bodies and
            optimized streams are written through and restored on later
            sessions' misses, skipping gate building entirely. Defaults
            from ``REPRO_CACHE_DIR``; ``None`` (and no env var) keeps
            the cache in-memory only.
        guard: enable gate-level lifetime checking (slow; for tests).
    """

    def __init__(
        self,
        chip,
        config: Optional[PIMConfig] = None,
        parallelism: str = "parallel",
        cache_size: Optional[int] = None,
        guard: bool = False,
        cache_dir: Optional[str] = None,
    ):
        if parallelism not in ("parallel", "serial"):
            raise ValueError("parallelism must be 'parallel' or 'serial'")
        self.chip = chip
        self.config = config if config is not None else chip.config
        self.parallelism = parallelism
        self.guard = guard
        cache_size = DEFAULT_CACHE_SIZE if cache_size is None else int(cache_size)
        self.cache_enabled = cache_size > 0
        self.cache_dir = resolve_cache_dir(cache_dir)
        #: The durable cross-session tier (``None`` when no cache
        #: directory is configured); shared by both in-memory tiers, its
        #: entries carry the replay plans of a chip that plans.
        planner = chip if isinstance(chip, Simulator) else None
        self.persist: Optional[PersistentProgramCache] = (
            PersistentProgramCache(self.cache_dir, self.config, planner)
            if self.cache_dir is not None
            else None
        )
        self.programs = ProgramCache(maxsize=cache_size, store=self.persist)
        #: The stream tier: compiled streams and stream plans (what
        #: :meth:`stream_program` builds), keyed on the instruction-tuple
        #: signature plus everything lowering depends on. Separate from
        #: :attr:`programs` (the per-R-type body tier) so body-cache hit
        #: rates stay meaningful.
        self.streams = ProgramCache(maxsize=cache_size, store=self.persist)
        # The config is fixed for the driver's lifetime; hoist the
        # fingerprint out of the per-instruction cache-key path.
        self._fingerprint = config_fingerprint(self.config)
        self.macro_count = 0
        self.micro_count = 0
        #: Dispatch units served per emission level: ``"stream"`` counts
        #: plan emissions (an eager R-type macro is a one-instruction
        #: stream), ``"macro"`` counts units :meth:`_execute_lowered`
        #: served op by op (a non-R macro or a plan-less stream).
        self.emit_counters: Dict[str, int] = {"stream": 0, "macro": 0}
        #: Installed :class:`repro.faults.FaultOverlay` (``None`` = no
        #: faults) over the owning backend's word image. Ticked once per
        #: dispatch unit, by :meth:`close_window` only, so plans, the
        #: op-by-op reference and the billed backends observe identical
        #: fault behaviour.
        self.faults = None
        #: Fault accounting beside the overlay's: ``verify_checks`` /
        #: ``verify_detected`` from :meth:`close_window`, and a pool's
        #: ``worker_faults`` / ``failovers`` / ``quarantined_shards``;
        #: surfaced via ``Backend.fault_counters()``.
        self.verify_tally: Dict[str, int] = {}

    @property
    def cache_hits(self) -> int:
        """Program-cache hits across both tiers (bodies + stream plans).

        Read-only: unlike ``macro_count``/``micro_count`` this cannot be
        reset by assignment; reset or snapshot the :attr:`programs` /
        :attr:`streams` counters directly (``pim.Profiler`` takes the
        snapshot approach).
        """
        return self.programs.hits + self.streams.hits

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def execute(self, instr: Instruction) -> Optional[int]:
        """Lower one macro-instruction and forward it to the chip.

        Returns the read word for :class:`ReadInstr`, otherwise ``None``.
        An R-type macro is a one-instruction stream and takes exactly the
        :meth:`execute_stream` path (cached self-masked plan, one chip
        call); the short non-R lowerings are forwarded op-by-op.
        """
        if isinstance(instr, RInstr):
            return self.execute_stream((instr,))
        return self._execute_lowered((instr,))

    def _execute_lowered(self, instrs: Tuple[Instruction, ...]) -> Optional[int]:
        """The plan-less path: one dispatch unit refused whole
        (:meth:`check_stream`), then forwarded op by op, one window."""
        self.emit_counters["macro"] += 1
        response: Optional[int] = None
        for instr, short in zip(instrs, self.check_stream(instrs)):
            for op in self._counted(instr, short):
                result = self.chip.execute(op)
                if result is not None:
                    response = result
        self.close_window()
        return response

    # ------------------------------------------------------------------
    # Compiled-program paths
    # ------------------------------------------------------------------
    def _rtype_key(self, instr: RInstr) -> Tuple:
        """The program-cache key: everything body lowering depends on."""
        return (
            instr.op,
            instr.dtype.name,
            instr.dest,
            instr.sources(),
            self.parallelism,
            self._fingerprint,
        )

    def _rtype_program(self, instr: RInstr) -> MicroProgram:
        """The compiled body program of an R-type instruction (cached).

        The body excludes the two leading mask operations (which vary per
        call). Its gates are born as operation words: the builder records
        rows, :func:`~repro.arch.micro_ops.encode_rows` packs and checks
        them as columns, and no gate object exists unless something asks
        the program for ``.ops``. Valid by construction: nothing else is
        checked.
        """
        if self.cache_enabled:
            key = self._rtype_key(instr)
            program = self.programs.get(key)
            if program is not None:
                return program
        builder, rows = GateBuilder.recording(self.config, guard=self.guard)
        self._build_rtype(builder, instr)
        program = MicroProgram(
            encode_rows(rows), f"{instr.op.value}.{instr.dtype.name}",
            self._fingerprint, source_ops=len(rows),
        )
        if self.cache_enabled:
            self.programs.put(key, program)
        return program

    def lower(self, instr: Instruction) -> List[MicroOp]:
        """Produce the full micro-operation sequence for an instruction,
        refused as a one-instruction stream (:meth:`check_stream`)."""
        (short,) = self.check_stream((instr,))
        return self._counted(instr, short)

    def _counted(self, instr: Instruction, short) -> List[MicroOp]:
        """:meth:`_lower_ops` of a checked instruction, counted."""
        ops = self._lower_ops(instr, short)
        self.macro_count += 1
        self.micro_count += len(ops)
        return ops

    def _lower_ops(self, instr: Instruction, short=None) -> List[MicroOp]:
        """Lowering without validation or counter updates (shared core);
        ``short`` is a non-R instruction's :meth:`_lower_short`, if made."""
        if isinstance(instr, RInstr):
            body = self._rtype_program(instr)
            return self._mask_ops(instr.warp_mask, instr.row_mask) + list(body.ops)
        return [
            _shared(LogicHOp, *op) if type(op) is tuple else op
            for op in (self._lower_short(instr) if short is None else short)
        ]

    def _lower_short(self, instr: Instruction) -> list:
        """The short non-R lowerings, a horizontal gate as its row (the
        splicer encodes it as it is, :meth:`_lower_ops` makes it an object)."""
        if isinstance(instr, MoveInstr):
            return self._lower_move(instr)
        if isinstance(instr, ReadInstr):
            return [
                CrossbarMaskOp(instr.warp, instr.warp, 1),
                RowMaskOp(instr.thread, instr.thread, 1),
                ReadOp(instr.reg),
            ]
        if isinstance(instr, WriteInstr):
            return self._mask_ops(instr.warp_mask, instr.row_mask) + [
                WriteOp(instr.reg, instr.value)
            ]
        raise TypeError(f"not an instruction: {instr!r}")

    def stream_bill(self, instructions) -> SimStats:
        """What a stream's verbatim lowering costs, without running it.

        In the form of :meth:`MicroProgram.bill`, after the stream passed
        :meth:`check_stream`: one :func:`accounting_walk` over each R-type's
        mask preamble and its body as one :class:`GateTally` (read off the
        body's carried bill), and each short lowering's ops.
        """
        config = self.config
        pieces: list = []
        for instr, short in zip(instructions, self.check_stream(instructions)):
            if short is None:
                pieces += self._mask_ops(instr.warp_mask, instr.row_mask)
                body = self._rtype_program(instr).bill(config)
                pieces.append(GateTally.of_bill(body, config))
            else:
                pieces += self._lower_ops(instr, short)
        return accounting_walk(pieces, config)

    def compile(
        self,
        instructions: List[Instruction],
        name: str = "stream",
        optimize: bool = True,
        emit: str = "stream",
    ) -> MicroProgram:
        """Record a macro-instruction sequence into one compiled program.

        Each instruction is lowered exactly as :meth:`execute` would, the
        streams are concatenated, and the result is (by default)
        peephole-optimized: redundant mask changes between consecutive
        instructions are coalesced and provably-redundant ``INIT1`` cycles
        eliminated (see :mod:`repro.driver.compiler`) — a bit-identical
        memory state in fewer cycles; replay it with :meth:`run_program`.
        A verbatim stream (``optimize=False``) *is* its
        :meth:`stream_program`, kept in memory only.

        The lowering is *spliced* (:meth:`_compile_spliced`): the words of
        cached per-R-type bodies (valid by construction, never
        re-validated) between encoded mask preambles, so the per-macro
        cost is a cache lookup plus an array copy. ``emit="macro"``
        selects the *reference lowering* — every macro lowered into op
        objects, the whole stream validated — which the conformance suite
        checks the spliced programs against, op for op.

        Other programs are cached in :attr:`streams` (written through to
        ``cache_dir``), keyed on the exact instruction sequence, the
        profiling ``name``, *and the full lowering configuration* (the
        ``optimize`` flag, the lowering, the parallelism mode, and the
        config fingerprint): switching any of those mid-session can never
        replay a stale program compiled under different flags.
        """
        if emit not in ("stream", "macro"):
            raise ValueError(f"emit must be 'stream' or 'macro', not {emit!r}")
        if emit == "stream" and not optimize:
            return self.stream_program(instructions, name)
        instrs = MacroStream.wrap(instructions)
        key = None
        if self.cache_enabled:
            key = ("stream", instrs, name, bool(optimize), emit,
                   self.parallelism, self._fingerprint)
            cached = self.streams.get(key)
            if cached is not None:
                return cached
        lower = self._compile_spliced if emit == "stream" else self._compile_reference
        program = lower(instrs, name, optimize)
        if key is not None:
            self.streams.put(key, program)
        return program

    def _compile_reference(
        self, instrs: Tuple[Instruction, ...], name: str, optimize: bool
    ) -> MicroProgram:
        """The reference lowering: refused whole, then op objects,
        validated and optimized one by one."""
        ops: List[MicroOp] = []
        for instr, short in zip(instrs, self.check_stream(instrs)):
            ops.extend(self._lower_ops(instr, short))
        return compile_ops(
            ops, self.config, name=name, optimize=optimize, macros=len(instrs)
        )

    def _compile_spliced(
        self, instrs: Tuple[Instruction, ...], name: str, optimize: bool = False
    ) -> MicroProgram:
        """Splice operation words: cached bodies between the encoding of
        everything else (mask preambles, the short non-R lowerings).

        The stream is refused whole first (:meth:`check_stream`); one
        ``encode_many`` call then encodes everything outside the bodies
        (what passed validation fits its word: ``PIMConfig`` bounds the
        geometry by the field widths). The peephole passes read the words
        as integer columns.
        """
        word_size = self.config.word_size
        pieces: list = []  # body programs, and between them op lists
        for instr, short in zip(instrs, self.check_stream(instrs)):
            if short is None:
                pieces.append(self._mask_ops(instr.warp_mask, instr.row_mask))
                pieces.append(self._rtype_program(instr))
            else:
                pieces.append(short)
        loose = [piece for piece in pieces if type(piece) is list]
        encoded = encode_many(chain.from_iterable(loose), word_size)
        cuts = iter(np.split(encoded, np.cumsum([len(piece) for piece in loose])))
        words = np.concatenate([encoded[:0]] + [
            next(cuts) if type(piece) is list else piece.encoded(word_size)
            for piece in pieces
        ])
        source_ops = len(words)
        if optimize:
            words = words[kept(columns_of_words(words, word_size))]
        return MicroProgram(
            words, name, self._fingerprint,
            reads=sum(isinstance(instr, ReadInstr) for instr in instrs),
            macros=len(instrs), source_ops=source_ops,
        )

    def check_stream(self, instrs: Tuple[Instruction, ...]) -> list:
        """The driver's one refusal: a stream is refused whole, before
        any of it is built, priced or sent, on every backend.

        ISA validation, then an R-type's mask ranges and float width, a
        move's destination warps (``CompileError``), or a short lowering's
        non-gate ops range-checked by
        :func:`~repro.driver.compiler.validate_ops` (``CompileError``) and
        walked as the chip walks them (its ``SimulationError``: H-tree
        patterns, read shape). Returns the short lowerings (``None`` for
        an R-type, whose body is valid by construction)."""
        config = self.config
        shorts: list = []
        for instr in instrs:
            validate(instr, config.registers)
            if isinstance(instr, MoveInstr):
                warps = instr.warp_mask or RangeMask.all(config.crossbars)
                dist = instr.warp_dist
                if warps.start + dist < 0 or warps.stop + dist >= config.crossbars:
                    raise CompileError(f"{instr}: destination warps out of range")
            if not isinstance(instr, RInstr):
                shorts.append(self._lower_short(instr))
                continue
            if instr.dtype.is_float and instr.dtype.bits != config.word_size:
                raise CompileError(
                    f"{instr}: {instr.dtype} needs {instr.dtype.bits}-bit words, "
                    f"this chip's are {config.word_size}-bit"
                )
            for mask, size, axis in ((instr.warp_mask, config.crossbars, "crossbar"),
                                     (instr.row_mask, config.rows, "row")):
                if mask is not None and mask.stop >= size:
                    raise CompileError(f"{axis} mask out of range")
            shorts.append(None)

        def loose():  # the short lowerings' non-gate ops
            return (op for short in shorts if short for op in short
                    if type(op) is not tuple)

        # Every short lowering sets the masks it runs under first: one walk
        # of them all refuses what a walk of each would.
        validate_ops(loose(), config)
        accounting_walk(loose(), config)
        return shorts

    def stream_program(self, instructions, name: str = "stream", build=None):
        """A verbatim stream's stream-tier entry, in memory only: what
        :meth:`execute_stream` dispatches and an O0 :meth:`compile` returns.

        ``build(instrs, name)`` makes it on a miss: by default the fused,
        unoptimized splice the chip replays (a plan must match op-by-op
        lowering in memory *and* cycle accounting, and the peephole
        passes trade cycles); a backend that replays no micro-ops passes
        the builder of its own handle. Re-splicing is cheaper than a disk
        load, so nothing here is persisted, and with the cache off
        (``cache_size=0``) nothing is kept.
        """
        instrs = MacroStream.wrap(instructions)
        key = ("plan", instrs, name, self.parallelism, self._fingerprint)
        program = self.streams.get(key, durable=False) if self.cache_enabled else None
        if program is None:
            program = (build or self._compile_spliced)(instrs, name)
            self.streams.put(key, program, durable=False)  # a no-op when off
        return program

    def execute_stream(
        self, instructions, name: str = "stream"
    ) -> Optional[int]:
        """Emit a whole macro-instruction stream as one dispatch unit.

        The stream's plan is its :meth:`stream_program`, dispatched with
        a single ``chip.execute_program`` call followed by one fault
        tick. A stream with no plan (a disabled cache, more than
        :data:`~repro.driver.stream.MAX_PLAN_MACROS` macros) touches no
        cache: it is lowered and forwarded op-by-op instead, still one
        fault tick, bit-identically. Either route refuses the stream
        whole (:meth:`check_stream`) before one op is sent. Returns the
        last read response.
        """
        instrs = MacroStream.wrap(instructions)
        if not instrs:
            return None
        if self.cache_enabled and len(instrs) <= MAX_PLAN_MACROS:
            program = self.stream_program(instrs, name)
            self.emit_counters["stream"] += 1
            return self._dispatch(program)
        return self._execute_lowered(instrs)

    def run_program(
        self, program: MicroProgram, verify: Optional[str] = None
    ) -> Optional[int]:
        """Replay a compiled program on the chip (``execute_program``).

        Returns the last read response (``None`` if the program contains
        no reads).

        ``verify="checksum"`` checksums the program's statically-derived
        written regions across the post-replay fault window and raises
        :class:`repro.faults.ChecksumError` when injected faults
        corrupted any of them. The checksums are host-side reads of the
        DMA-visible word image, so verification changes no cycle count
        and no memory bit.
        """
        check_verify_mode(verify)
        return self._dispatch(program, verify)

    def _dispatch(
        self, program: MicroProgram, verify: Optional[str] = None
    ) -> Optional[int]:
        """Counters, one chip call, then the fault tick or checksum window."""
        self.macro_count += program.macros
        self.micro_count += len(program)
        response = self.chip.execute_program(program)
        if verify is None:
            self.close_window()
            return response
        memory = getattr(self.chip, "memory", None)
        if memory is None:
            raise ValueError(
                "verify='checksum' requires a chip with a memory image"
            )
        self.close_window(
            memory.words, program_regions(program, self.config), program.name
        )
        return response

    def close_window(self, words=None, regions=None, name=None) -> None:
        """The fault window that ends every dispatch unit, on every backend.

        One tick of the installed overlay (none installed: an empty
        window). Given the word image ``words`` — a verified replay of
        program ``name`` — the tick is bracketed by checksums of its
        ``regions`` (``None``: the whole image), see
        :func:`repro.faults.checksum.verify_window`.
        """
        if words is not None:
            verify_window(words, regions, self.faults, name, self.verify_tally)
        elif self.faults is not None:
            self.faults.tick()

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    def _mask_ops(
        self, warp_mask: Optional[RangeMask], row_mask: Optional[RangeMask]
    ) -> List[MicroOp]:
        """The two-mask preamble of an instruction (``None`` = the whole axis)."""
        warps = warp_mask or RangeMask.all(self.config.crossbars)
        rows = row_mask or RangeMask.all(self.config.rows)
        return [
            CrossbarMaskOp(warps.start, warps.stop, warps.step),
            RowMaskOp(rows.start, rows.stop, rows.step),
        ]

    # ------------------------------------------------------------------
    # R-type
    # ------------------------------------------------------------------
    def _build_rtype(self, gb: GateBuilder, instr: RInstr) -> None:
        op, dest = instr.op, instr.dest
        a, b, c = instr.src_a, instr.src_b, instr.src_c
        is_float = instr.dtype.is_float
        use_parallel = self.parallelism == "parallel"

        if op in (ROp.BIT_NOT, ROp.BIT_AND, ROp.BIT_OR, ROp.BIT_XOR):
            if use_parallel:
                parallel.lower_bitwise_parallel(gb, op.value, dest, a, b)
            else:
                fixed.lower_bitwise(gb, op.value, dest, a, b)
        elif op == ROp.MUX:
            fixed.lower_mux(gb, dest, a, b, c)
        elif op == ROp.COPY:
            fixed.lower_copy(gb, dest, a)
        elif is_float:
            self._build_float(gb, op, dest, a, b)
        else:
            self._build_int(gb, op, dest, a, b, use_parallel)

    def _build_int(
        self, gb: GateBuilder, op: ROp, dest: int, a: int, b: Optional[int],
        use_parallel: bool,
    ) -> None:
        if op in (ROp.ADD, ROp.SUB):
            subtract = op == ROp.SUB
            if use_parallel and dest not in (a, b):
                parallel.lower_add_parallel(gb, dest, a, b, subtract)
            else:
                fixed.lower_add(gb, dest, a, b, subtract)
        elif op == ROp.MUL:
            fixed.lower_mul(gb, dest, a, b)
        elif op in (ROp.DIV, ROp.MOD):
            fixed.lower_divmod(gb, op.value, dest, a, b)
        elif op == ROp.NEG:
            fixed.lower_neg(gb, dest, a)
        elif op == ROp.ABS:
            fixed.lower_abs(gb, dest, a)
        elif op == ROp.SIGN:
            fixed.lower_sign(gb, dest, a)
        elif op == ROp.ZERO:
            fixed.lower_zero(gb, dest, a)
        elif op in (ROp.LT, ROp.LE, ROp.GT, ROp.GE, ROp.EQ, ROp.NE):
            fixed.lower_compare(gb, op.value, dest, a, b)
        else:
            raise ValueError(f"unsupported integer op {op}")

    def _build_float(
        self, gb: GateBuilder, op: ROp, dest: int, a: int, b: Optional[int]
    ) -> None:
        if op in (ROp.ADD, ROp.SUB):
            floating.lower_fadd(gb, dest, a, b, subtract=op == ROp.SUB)
        elif op == ROp.MUL:
            floating.lower_fmul(gb, dest, a, b)
        elif op == ROp.DIV:
            floating.lower_fdiv(gb, dest, a, b)
        elif op == ROp.NEG:
            floating.lower_fneg(gb, dest, a)
        elif op == ROp.ABS:
            floating.lower_fabs(gb, dest, a)
        elif op == ROp.SIGN:
            floating.lower_fsign(gb, dest, a)
        elif op == ROp.ZERO:
            floating.lower_fzero(gb, dest, a)
        elif op in (ROp.LT, ROp.LE, ROp.GT, ROp.GE, ROp.EQ, ROp.NE):
            fixed.lower_compare(gb, op.value, dest, a, b,
                                floating.float_lt, floating.float_eq)
        else:
            raise ValueError(f"unsupported float op {op}")

    # ------------------------------------------------------------------
    # Moves (thread-to-thread data transfer, Section III-E/F)
    # ------------------------------------------------------------------
    def _stage_registers(self) -> Tuple[int, int]:
        regs = list(self.config.scratch_register_indices())
        return regs[-1], regs[-2]

    def _lower_move(self, instr: MoveInstr) -> list:
        stage1, stage2 = self._stage_registers()
        warps = instr.warp_mask or RangeMask.all(self.config.crossbars)
        src_row = _shared(RowMaskOp, instr.src_thread, instr.src_thread, 1)
        last = self.config.partitions - 1
        init1, not_ = GateType.INIT1, GateType.NOT

        def gate(kind: GateType, src: int, dst: int) -> tuple:
            """A whole-column horizontal gate, as its row."""
            return _shared(tuple, kind, src, src, dst, 0, 0, 0, last, 1)

        def not_pair(src: int, via: int) -> list:
            """``dst_reg = src`` through the column ``via``: two NOT
            gates, each onto a freshly initialized column."""
            return [gate(init1, 0, via), gate(not_, src, via),
                    gate(init1, 0, instr.dst_reg), gate(not_, via, instr.dst_reg)]

        ops: list = [_shared(CrossbarMaskOp, warps.start, warps.stop, warps.step)]
        if instr.warp_dist == 0 and instr.src_thread == instr.dst_thread:
            # Same thread: a pure register-to-register copy, row-masked.
            if instr.src_reg == instr.dst_reg:
                return []
            return ops + [src_row] + not_pair(instr.src_reg, stage1)
        if instr.warp_dist == 0:
            # Intra-warp: a horizontal NOT to a staging column at the
            # source row, then a vertical NOT to the destination row (with
            # the landing, four NOT gates: the value parity is preserved).
            ops += [
                src_row, gate(init1, 0, stage1),
                gate(not_, instr.src_reg, stage1),  # stage1 = ~v
                _shared(LogicVOp, init1, 0, instr.dst_thread, stage1),
                _shared(LogicVOp, not_, instr.src_thread, instr.dst_thread,
                        stage1),  # stage1@dst = v
            ]
        else:
            # Inter-warp: the H-tree move writes the source word directly
            # into the staging column of the destination warps (a plain
            # overwrite).
            dist = instr.warp_dist
            dest = RangeMask(warps.start + dist, warps.stop + dist, warps.step)
            ops += [
                _shared(MoveOp, dist, instr.src_thread, instr.dst_thread,
                        instr.src_reg, stage1),
                _shared(CrossbarMaskOp, dest.start, dest.stop, dest.step),
            ]
        # Either way stage1 holds v in the destination row: land it.
        ops.append(_shared(RowMaskOp, instr.dst_thread, instr.dst_thread, 1))
        return ops + not_pair(stage1, stage2)
