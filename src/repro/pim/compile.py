"""``pim.compile``: whole-function graph capture with cached replay.

The Figure-12 user program becomes one fused program with a decorator::

    @pim.compile
    def my_func(a, b):
        return a * b + a

    z = my_func(x, y)        # first call: capture + lower + first replay
    z = my_func(x2, y2)      # later calls: replay the fused program

The first call with a given signature (argument lengths/dtypes, scalar
values, device geometry) is *record → lower → replay*. The function runs
once under a :class:`~repro.pim.graph.TraceSession`, which records the
macro-instructions it issues and dispatches none: tensors are allocated
as eager mode allocates them, and ``backend.stats`` and the word image
do not move. The recorded stream is lowered through the device backend
into one replayable program — on the simulator backend a single fused
:class:`~repro.driver.program.MicroProgram` riding the
``execute_program`` replay fast path — and the first result *is* the
first replay of that program, like every later call (``verify=``
included). So a first call bills what a replay bills: one eager call at
``opt_level=0``, bit for bit and cycle for cycle; the optimized program
at higher levels, never the eager stream. What the chip would have
refused at one instruction (an illegal H-tree pattern, an out-of-range
mask) is raised by the lowering, as the backend's own typed error
naming the program, before any of it runs. That lowering goes through the
driver's spliced stream compiler (:mod:`repro.driver.stream`): cached
per-R-type bodies are
stitched between cached mask preambles instead of re-lowered, so
capture-time compilation of long traces is cheap and op-for-op
identical to per-macro lowering. Later calls skip the entire tensor
layer and driver: new argument data is DMA-copied into the captured
input registers, the program replays, and deferred scalar reads are
re-issued.

Replay is **cycle-exact** with eager mode by default (``opt_level=0``):
the replayed stream is the eager stream, so memory contents and PIM
cycle counters match bit-for-bit. Higher optimization levels trade that
full-memory identity for speed while keeping every *observable* value
bit-identical (outputs, arguments, deferred scalar reads): level 1
runs the driver's peephole passes, level 2 adds graph-level constant
folding, common-subexpression elimination and dead-temporary
elimination, and level 3 adds register reuse so the
compiled graph reserves fewer crossbar cells (see
:mod:`repro.pim.optimizer`). ``CompiledFunction.opt_report()`` exposes
the pre- vs post-optimization instruction and cycle counts.

Limitations (enforced with :class:`~repro.pim.graph.TraceError` where
detectable): Python-level control flow is baked in at capture time, PIM
scalars read inside the function may only be returned (not used to steer
computation), and arguments must be compact tensors or scalars. Output
tensors are the compiled graph's persistent result buffers: every replay
returns the *same* tensor objects with refreshed contents (call
``.copy()`` to keep a result across calls), unlike eager mode's fresh
tensor per call.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.arch.config import config_fingerprint
from repro.faults.checksum import ChecksumError, check_verify_mode
from repro.isa.instructions import ReadInstr, written_region
from repro.pim.graph import Graph, ScalarRef, TraceError, TraceSession
from repro.pim.tensor import Tensor, TensorView

#: Python/NumPy scalar types accepted as baked-in compiled-call arguments.
_SCALAR_TYPES = (int, float, np.integer, np.floating)


def _resolve_replay(value, scalars: List):
    """Rebuild an output tree using this replay's deferred-read values."""
    if isinstance(value, ScalarRef):
        from repro.isa.dtypes import raw_to_value

        return raw_to_value(scalars[value.read_index], value.dtype)
    if isinstance(value, tuple):
        return tuple(_resolve_replay(v, scalars) for v in value)
    if isinstance(value, list):
        return [_resolve_replay(v, scalars) for v in value]
    if isinstance(value, dict):
        return {k: _resolve_replay(v, scalars) for k, v in value.items()}
    return value


def _collect_output_bases(value, acc: set) -> None:
    """Record the base tensors an output tree aliases (by identity)."""
    if isinstance(value, Tensor):
        acc.add(id(value))
    elif isinstance(value, TensorView):
        acc.add(id(value.base))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect_output_bases(item, acc)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_output_bases(item, acc)


def _check_deferred_reads(instructions, config) -> None:
    """Reject captures whose scalar reads replay cannot defer.

    Deferred reads are re-issued *after* the replayed program, which is
    only equivalent when nothing later in the stream overwrites the cell
    each read observed (true for the terminal read of a reduction, the
    common case). A mid-stream read of a subsequently recycled cell
    would silently return the later value, so it fails loudly instead.
    """
    pending: List[ReadInstr] = []
    for instr in instructions:
        if isinstance(instr, ReadInstr):
            pending.append(instr)
        elif pending:
            reg, warps, rows = written_region(instr, config)
            if any(
                reg == read.reg and read.warp in warps and read.thread in rows
                for read in pending
            ):
                raise TraceError(
                    "a scalar read inside the traced function observes "
                    "memory that later operations overwrite, so its value "
                    "cannot be re-read after replay. Restructure the "
                    "function so scalars are read from cells that stay "
                    "live (e.g. read them after the compiled call)."
                )


class CompiledGraph:
    """One captured-and-lowered graph: the unit the signature cache holds.

    Holds the capture-time argument and output tensors, and *reserves*
    the allocator cells the replayed stream writes (at ``opt_level=0``
    that is every cell the trace touched, including cells whose
    intermediate tensors were freed during capture; the optimizer
    shrinks the set when it eliminates whole temporaries) — nothing else
    may be allocated there. Dropping the compiled graph releases the
    reservation.
    """

    def __init__(
        self,
        device,
        session: TraceSession,
        program,
        bound_args: Tuple[Any, ...],
        outputs: Any,
    ):
        self.device = device
        self.graph: Graph = session.graph
        self.program = program
        self.reads = session.reads
        self.bound_args = bound_args
        self.outputs = outputs
        #: The optimizer's pre/post accounting (None for level-0 graphs).
        self.report = session.last_report
        cells = session.replay_cells
        if cells is None:
            cells = session.cells
        self.reserved = device.allocator.reserve_cells(cells)
        # Base tensors the outputs alias: replay must leave the marshalled
        # data in these (the output *is* the argument buffer); every other
        # argument tensor is restored so calling f(y, x) cannot corrupt
        # the captured x and y.
        self._output_base_ids: set = set()
        _collect_output_bases(outputs, self._output_base_ids)
        # Argument tensors the traced stream itself writes: eager mode
        # mutates the caller's tensor in place, so replay must copy the
        # computed contents back out instead of restoring stale data.
        regions = (written_region(i, device.config) for i in self.graph.instructions)
        written = list(filter(None, regions))  # reads write nothing
        self._mutated_bound_ids = {
            id(bound)
            for bound in bound_args
            if isinstance(bound, Tensor)
            and any(
                reg == bound.slot.reg
                and warps.stop >= bound.slot.warp_start
                and warps.start < bound.slot.warp_stop
                for reg, warps, _ in written
            )
        }

    def release(self) -> None:
        """Return the reserved scratch cells to the allocator."""
        if self.reserved and not self.device.closed:
            self.device.allocator.release_cells(self.reserved)
        self.reserved = []

    def __del__(self):
        try:
            self.release()
        except Exception:  # interpreter teardown
            pass

    def replay(self, args: Tuple[Any, ...], verify: Optional[str] = None):
        device = self.device
        backend = device.backend
        # Marshal: new argument data lands in the captured input slots (a
        # DMA-style raw copy, like the test harness's load path; a call
        # that reuses the original tensor objects copies nothing). All
        # sources are snapshotted before any slot is written, so passing
        # the captured tensors back in permuted positions cannot clobber
        # a value that another argument still needs; marshalled slots are
        # restored afterwards (unless an output aliases them), so the
        # captured tensors keep their own data across replays.
        pending = []
        saved = []
        write_back = []
        for bound, arg in zip(self.bound_args, args):
            if isinstance(bound, Tensor) and arg is not bound:
                pending.append((bound, device.read_raw(arg.slot, bound.length)))
                if id(bound) in self._mutated_bound_ids:
                    # Eager mode writes the caller's tensor in place; the
                    # replayed stream writes the bound slot, so the result
                    # is copied out to the caller afterwards.
                    write_back.append((bound, arg))
                if id(bound) not in self._output_base_ids:
                    saved.append((bound, device.read_raw(bound.slot, bound.length)))
        for bound, raw in pending:
            device.write_raw(bound.slot, raw)
        try:
            backend.run_program(self.program, verify=verify)
            # Deferred scalar reads are re-issued eagerly (their 3
            # micro-ops are charged exactly as eager mode charges them)
            # and converted with each ScalarRef's capture-time dtype.
            scalars = [backend.execute(instr) for instr in self.reads]
            return _resolve_replay(self.outputs, scalars)
        finally:
            # Results leave the bound slots before those are restored and
            # reach the caller after: a permuted call's argument may live
            # in the very slot another bound tensor gets back.
            results = [
                (arg, device.read_raw(bound.slot, bound.length))
                for bound, arg in write_back
            ]
            for bound, raw in saved:
                device.write_raw(bound.slot, raw)
            for arg, raw in results:
                device.write_raw(arg.slot, raw)


class CompiledFunction:
    """The callable returned by ``@pim.compile`` (one cache per function).

    Programs are cached per *signature*: argument kinds, tensor lengths
    and dtypes, baked-in scalar values, the device identity, its config
    fingerprint, and the backend — a re-``init`` or geometry change can
    never replay a stale graph.
    """

    def __init__(
        self,
        fn: Callable,
        device=None,
        opt_level: int = 0,
        cache_size: int = 32,
        verify: Optional[str] = None,
    ):
        from repro.pim.optimizer import resolve_opt_level

        functools.update_wrapper(self, fn)
        self.fn = fn
        self.opt_level = resolve_opt_level(opt_level)
        self.name = getattr(fn, "__name__", "graph")
        self.cache_size = max(int(cache_size), 1)
        check_verify_mode(verify)
        self.verify = verify
        #: Recovery accounting: replays retried after a checksum
        #: mismatch, and graphs recompiled around quarantined cells.
        self.fault_retries = 0
        self.fault_recompiles = 0
        self._device = device
        self._cache: "OrderedDict[Tuple, CompiledGraph]" = OrderedDict()
        self.captures = 0
        # User threads may share a CompiledFunction (the per-session
        # handle is the function, not the device), so the signature cache
        # and capture/replay critical section take a lock. Reentrant:
        # a traced body may call back into the same compiled function
        # (the nested-capture inlining path).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _signature(self, device, args) -> Tuple:
        parts: List[Tuple] = []
        first_seen: dict = {}
        for position, arg in enumerate(args):
            if isinstance(arg, Tensor):
                if arg.device is not device:
                    raise TraceError(
                        "argument tensor lives on a different device than "
                        "the one this function compiles for"
                    )
                # The aliasing pattern is part of the graph's identity:
                # f(x, x) captures both operands in one register, so a
                # later f(y, z) must recapture, not replay.
                alias = first_seen.setdefault(id(arg), position)
                parts.append(("tensor", arg.length, arg.dtype.name, alias))
            elif isinstance(arg, TensorView):
                raise TraceError(
                    "compiled functions take compact tensors; call "
                    ".compact() on views before passing them"
                )
            elif isinstance(arg, _SCALAR_TYPES):
                parts.append(("scalar", type(arg).__name__, arg))
            else:
                raise TraceError(
                    f"unsupported compiled-call argument {type(arg).__name__}; "
                    "pass pim.Tensor or plain scalars"
                )
        return (
            id(device),
            device.backend.name,
            config_fingerprint(device.config),
            tuple(parts),
        )

    def _capture(self, device, args) -> CompiledGraph:
        """Record the function once and lower the recording; runs nothing."""
        self.captures += 1
        session = device.begin_trace(self.name)
        try:
            out = self.fn(*args)
        finally:
            device.end_trace()
        _check_deferred_reads(session.graph.instructions, device.config)
        program = session.lower(opt_level=self.opt_level, keep_reads=False)
        return CompiledGraph(device, session, program, tuple(args), out)

    def _lookup(self, device, args) -> Tuple[Tuple, CompiledGraph]:
        """The signature's cache key and compiled graph (capturing if new)."""
        key = self._signature(device, args)
        entry = self._cache.get(key)
        if entry is not None and entry.device is device and not device.closed:
            self._cache.move_to_end(key)
            return key, entry
        if entry is not None:
            entry.release()
        entry = self._capture(device, args)
        self._store(key, entry)
        return key, entry

    # ------------------------------------------------------------------
    def __call__(self, *args):
        from repro.pim.device import default_device

        device = self._device or default_device()
        if device.tracing_here:
            # Nested inside another capture *on this thread*: inline into
            # the outer graph. Another thread's in-progress capture does
            # not count — those callers fall through to the lock below
            # and wait their turn.
            return self.fn(*args)
        with self._lock:
            key, entry = self._lookup(device, args)
            if self.verify is None:
                return entry.replay(args)
            return self._replay_verified(device, key, entry, args)

    def _replay_verified(self, device, key, entry, args):
        """Checksum-verified replay with retry → quarantine → recompile.

        A single mismatch is treated as a transient upset: the replay is
        retried once (re-marshalling the arguments). A second mismatch
        means persistent damage (stuck-at cells): the corrupted regions
        are mapped to allocator cells and quarantined, the cached graph
        is dropped, and the signature recaptures — its fresh allocations
        planned around the bad cells — and replays, verified, once more.
        """
        try:
            return entry.replay(args, verify=self.verify)
        except ChecksumError:
            self.fault_retries += 1
        try:
            return entry.replay(args, verify=self.verify)
        except ChecksumError as error:
            self.fault_recompiles += 1
            if error.regions:
                device.quarantine_regions(error.regions)
            entry.release()
            self._cache.pop(key, None)
            _, entry = self._lookup(device, args)
            return entry.replay(args, verify=self.verify)

    def _store(self, key: Tuple, entry: CompiledGraph) -> None:
        """Insert a captured graph, enforcing the LRU bound.

        Bounded because each entry reserves allocator cells: unbounded
        growth (e.g. a sweep over baked-in scalar arguments) would
        exhaust the device memory, not just the host's.
        """
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            _, evicted = self._cache.popitem(last=False)
            evicted.release()

    # ------------------------------------------------------------------
    @property
    def cached_graphs(self) -> int:
        """Number of captured (graph, signature) entries currently held."""
        return len(self._cache)

    def _entry_for(self, args) -> CompiledGraph:
        """The cached compiled graph for a signature (capturing if new;
        a capture records and lowers, it runs nothing)."""
        from repro.pim.device import default_device

        with self._lock:
            return self._lookup(self._device or default_device(), args)[1]

    def graph_for(self, *args) -> Graph:
        """The captured tensor-level IR for a signature (capturing if new)."""
        return self._entry_for(args).graph

    def opt_report(self, *args):
        """The optimizer's pre/post accounting for a signature.

        Returns the :class:`~repro.pim.optimizer.OptReport` recorded when
        the signature's graph was lowered (capturing if new), or ``None``
        at ``opt_level=0`` where the stream replays verbatim.
        """
        return self._entry_for(args).report

    def replay_info(self, *args):
        """Replay-engine accounting for a signature (capturing if new).

        On the simulator backend: the route replays will take
        (``"vectorized"`` super-steps or the op-by-op ``"reference"``)
        plus the fused program's super-step segmentation counts — how much of the
        stream executes as bulk fused updates versus op-at-a-time (see
        :meth:`repro.backend.base.Backend.program_replay_info`). Empty on
        backends with a single execution strategy.
        """
        entry = self._entry_for(args)
        return entry.device.backend.program_replay_info(entry.program)

    def clear(self) -> None:
        """Drop every cached graph (releases the reserved cells)."""
        for entry in self._cache.values():
            entry.release()
        self._cache.clear()


def compile(
    fn: Optional[Callable] = None,
    *,
    device=None,
    opt_level: int = 0,
    cache_size: int = 32,
    verify: Optional[str] = None,
):
    """Decorate a tensor function for capture-once / replay-many execution.

    Usable bare (``@pim.compile``) or parameterized
    (``@pim.compile(opt_level=2)``). ``opt_level`` selects the optimizer
    pipeline (0 = cycle-exact verbatim replay, the default; 1 = driver
    peephole passes; 2 = graph-level constant folding + CSE +
    dead-temporary elimination; 3 = level 2 plus register reuse — see
    :mod:`repro.pim.optimizer`). Optimized replays stay bit-identical
    on every observable value. ``cache_size``
    bounds the per-function signature cache (LRU; evicted graphs release
    their reserved device cells). ``verify="checksum"`` makes every
    replay self-checking: output regions are checksummed across the
    post-replay fault window, a detected corruption retries once
    (transient upsets), and a repeat offender quarantines the damaged
    cells in the allocator and recompiles the graph around them (see
    :mod:`repro.faults`). See the module docstring for the capture
    protocol, the cache key, and tracing limitations.
    """
    if fn is None:
        return functools.partial(
            compile,
            device=device,
            opt_level=opt_level,
            cache_size=cache_size,
            verify=verify,
        )
    return CompiledFunction(
        fn,
        device=device,
        opt_level=opt_level,
        cache_size=cache_size,
        verify=verify,
    )
