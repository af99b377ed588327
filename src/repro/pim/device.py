"""The PIM device: an execution backend + allocator behind the tensor API.

A :class:`PIMDevice` bundles everything one "chip" needs: the memory
allocator and a pluggable execution :class:`~repro.backend.base.Backend`.
The default backend is the bit-accurate driver + simulator pair; pass
``backend="numpy"`` to :func:`init` (or a backend instance/class) for the
fast functional model with identical cycle accounting.

The module keeps a lazily-created default device (configurable via
:func:`init`) so that the NumPy-style module functions (``pim.zeros``
etc.) work out of the box, as in the paper's examples. :func:`reset`
*closes* the default device: outstanding tensors raise a clear error on
use instead of silently touching a stale allocator.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.backend import Backend, UnknownKeywordError, make_backend
from repro.driver.stream import MacroStream
from repro.isa.dtypes import DType, array_to_raw, raw_to_array
from repro.isa.instructions import Instruction
from repro.pim.malloc import Allocator, Slot
from repro.sim.stats import SimStats


class PIMDevice:
    """One simulated PIM chip: execution backend + host memory manager."""

    def __init__(
        self,
        config: Optional[PIMConfig] = None,
        backend: Union[str, Backend, type, None] = None,
        **backend_kwargs,
    ):
        if config is None and isinstance(backend, Backend):
            config = backend.config  # adopt a pre-built backend's geometry
        self.config = config or PIMConfig()
        self.backend = make_backend(backend, self.config, **backend_kwargs)
        self.allocator = Allocator(self.config)
        self.closed = False
        self._trace = None
        self._trace_owner: Optional[int] = None
        #: Optimizer reports of recent graph lowerings on this device
        #: (``opt_level >= 1``), newest last, bounded to the last 32.
        #: ``pim.Profiler`` snapshots this to report the pre- vs
        #: post-optimization instruction and cycle counts of programs
        #: compiled inside a profiled block.
        self.opt_reports: List = []

    # ------------------------------------------------------------------
    # Backward-compatible access to the default backend's internals
    # ------------------------------------------------------------------
    @property
    def simulator(self):
        """The bit-accurate simulator (simulator backend only)."""
        sim = getattr(self.backend, "simulator", None)
        if sim is None:
            raise AttributeError(
                f"the {self.backend.name!r} backend has no simulator; use "
                "device.backend for backend-agnostic state access"
            )
        return sim

    @property
    def driver(self):
        """The host driver (simulator backend only)."""
        drv = getattr(self.backend, "driver", None)
        if drv is None:
            raise AttributeError(
                f"the {self.backend.name!r} backend has no host driver; use "
                "device.backend for backend-agnostic state access"
            )
        return drv

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.config.rows

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                "this PIMDevice has been reset (pim.reset()); create a new "
                "device with pim.init() and reallocate its tensors"
            )

    def close(self) -> None:
        """Invalidate the device: any further use raises a clear error."""
        self.closed = True

    def _check_not_tracing(self, what: str) -> None:
        """DMA-style transfers bypass the instruction stream, so a replay
        could never reproduce them — fail loudly during capture."""
        if self._trace is not None:
            from repro.pim.graph import TraceError

            raise TraceError(
                f"cannot {what} tensor data over the DMA interface inside a "
                "traced function: the transfer bypasses the instruction "
                "stream, so replays would see stale data. Create inputs "
                "outside the trace and pass them as arguments (or use "
                "via='isa' writes); read results back after the call."
            )

    def execute(self, instr: Instruction):
        """Run one macro-instruction on the backend — or, while this
        thread's trace is attached, record it and dispatch nothing (see
        :mod:`repro.pim.graph`): a read then has no value to return."""
        self._check_open()
        if self.tracing_here:
            return self._trace.record(instr)
        return self.backend.execute(instr)

    def execute_stream(self, instructions, name: str = "stream"):
        """Run a whole macro-instruction stream as one emission unit.

        See :meth:`repro.backend.base.Backend.run_stream`: the stream is
        fused into one cached emission plan and dispatched with a single
        call. A :class:`~repro.driver.stream.MacroStream` handle is
        handed to the backend as is, so its cached hash — the plan
        lookup of every stream tier — survives from one emission to the
        next. When tracing, every instruction is recorded individually
        and nothing is dispatched.
        """
        self._check_open()
        if self.tracing_here:
            for instr in instructions:
                self._trace.record(instr)
            return None
        return self.backend.run_stream(MacroStream.wrap(instructions), name=name)

    def compile(self, instructions, name: str = "stream", optimize: bool = True):
        """Record macro-instructions into one replayable compiled program.

        See :meth:`repro.backend.base.Backend.compile`: on the simulator
        backend this is :meth:`repro.driver.driver.Driver.compile` (one
        validated, optionally peephole-optimized ``MicroProgram``);
        replay it with :meth:`run_program`.
        """
        self._check_open()
        return self.backend.compile(instructions, name=name, optimize=optimize)

    def run_program(self, program, verify: Optional[str] = None):
        """Replay a compiled program on this chip's backend.

        ``verify="checksum"`` enables the driver's output-region
        checksum protocol (see :mod:`repro.faults.checksum`).
        """
        self._check_open()
        return self.backend.run_program(program, verify=verify)

    def install_faults(self, plan):
        """Arm a :class:`repro.faults.FaultPlan` on this device's backend."""
        self._check_open()
        return self.backend.install_faults(plan)

    def quarantine_regions(self, regions) -> List[tuple]:
        """Retire the allocator cells under corrupted checksum regions.

        ``regions`` are :data:`repro.faults.checksum.Region` descriptors
        from a :class:`~repro.faults.ChecksumError`. Damage inside a user
        register quarantines the exact ``(reg, warp)`` cells; damage in
        the driver's scratch registers retires the whole warp, since
        every computation placed there shares those columns.
        """
        cells = []
        warps = set()
        user = self.config.user_registers
        for reg, (xs, xe, xstep), _rows in regions:
            for warp in range(xs, xe + 1, xstep):
                if reg < user:
                    cells.append((reg, warp))
                else:
                    warps.add(warp)
        quarantined = self.allocator.quarantine(cells)
        for warp in sorted(warps):
            quarantined.extend(self.allocator.quarantine_warp(warp))
        return quarantined

    def stats_snapshot(self) -> SimStats:
        """Copy of the backend's counters (for profiling diffs)."""
        return self.backend.stats_snapshot()

    # ------------------------------------------------------------------
    # Graph capture (see repro.pim.graph / repro.pim.compile)
    # ------------------------------------------------------------------
    def begin_trace(self, name: str = "trace"):
        """Attach a :class:`~repro.pim.graph.TraceSession` to this device."""
        from repro.pim.graph import TraceError, TraceSession

        self._check_open()
        if self._trace is not None:
            raise TraceError("a trace is already active on this device")
        self._trace = TraceSession(self, name)
        self._trace_owner = threading.get_ident()
        # Observe allocator frees: the optimizer's dead-temporary
        # analysis needs to know which traced cells outlive the capture.
        self.allocator.observer = self._trace
        return self._trace

    @property
    def tracing_here(self) -> bool:
        """True when a trace is active *and owned by the calling thread*.

        Nested-capture inlining must key on this, not on ``_trace`` being
        set: with user threads sharing compiled functions, another
        thread's in-progress capture would otherwise be mistaken for "we
        are inside our own trace" and executed eagerly against it.
        """
        return (
            self._trace is not None
            and self._trace_owner == threading.get_ident()
        )

    def end_trace(self):
        """Detach and freeze the active trace session."""
        session = self._trace
        self._trace = None
        self._trace_owner = None
        self.allocator.observer = None
        if session is not None:
            session.close()
        return session

    # ------------------------------------------------------------------
    # Element addressing
    # ------------------------------------------------------------------
    def locate(self, slot: Slot, element: int) -> Tuple[int, int]:
        """(warp, thread) of a slot's element (row-major across warps)."""
        warp, thread = divmod(element, self.rows)
        return slot.warp_start + warp, thread

    # ------------------------------------------------------------------
    # Bulk data transfer (the test harness's DMA-style load path)
    # ------------------------------------------------------------------
    def _block(self, slot: Slot, length: int) -> np.ndarray:
        """The slot's first ``length`` elements as a ``(warps, rows)`` view
        of the image, in order; a length past the slot is refused."""
        if length > slot.warp_count * self.rows:
            raise ValueError(
                f"{length} elements do not fit {slot} "
                f"({slot.warp_count * self.rows} elements)"
            )
        stop = slot.warp_start - (-length // self.rows)
        return self.backend.words[slot.warp_start : stop, slot.reg]

    def load_array(self, slot: Slot, values: np.ndarray, dtype: DType) -> None:
        """Load host data directly into the simulated memory image.

        This is the paper's correctness-flow step (1), "loading the memory
        with sample data": it bypasses the instruction stream (and the
        profiling counters), exactly like a DMA/initialization interface.
        Element-by-element ISA writes remain available via the tensor API.
        """
        self._check_open()
        self._check_not_tracing("bulk-load")
        self.write_raw(slot, array_to_raw(np.asarray(values).reshape(-1), dtype))

    def dump_array(self, slot: Slot, length: int, dtype: DType) -> np.ndarray:
        """Read a slot's contents back to the host (correctness step (3))."""
        self._check_open()
        self._check_not_tracing("read back")
        return raw_to_array(self.read_raw(slot, length), dtype)

    def read_raw(self, slot: Slot, length: int) -> np.ndarray:
        """Snapshot a slot's raw words (DMA-style, uncounted)."""
        self._check_open()
        block = self._block(slot, length)
        raw = np.empty(length, block.dtype)  # one copy of exactly the words asked
        full, rest = divmod(length, self.rows)
        raw[: full * self.rows].reshape(full, self.rows)[...] = block[:full]
        if rest:
            raw[full * self.rows :] = block[full, :rest]
        return raw

    def write_raw(self, slot: Slot, raw: np.ndarray) -> None:
        """Write raw words into a slot (DMA-style, uncounted).

        With :meth:`read_raw`, this is how the compiled-graph replay path
        marshals fresh input data into the captured argument registers.
        """
        self._check_open()
        block = self._block(slot, raw.size)
        full, rest = divmod(raw.size, self.rows)
        block[:full] = raw[: full * self.rows].reshape(full, self.rows)
        if rest:
            block[full, :rest] = raw[full * self.rows :]

    # ------------------------------------------------------------------
    # Mask segmentation over element ranges
    # ------------------------------------------------------------------
    def segments(
        self, slot: Slot, elements: RangeMask
    ) -> List[Tuple[RangeMask, RangeMask]]:
        """Split an element-index mask into (warp_mask, row_mask) groups.

        Elements map to (warp, row) row-major; the masked rows of each warp
        form an arithmetic pattern, and consecutive warps with identical
        row patterns merge into one warp-range group — a single pair of
        mask micro-ops then covers the whole group.
        """
        rows = self.rows
        per_warp: List[Tuple[int, RangeMask]] = []
        first_warp = elements.start // rows
        last_warp = elements.stop // rows
        for warp in range(first_warp, last_warp + 1):
            lo, hi = warp * rows, (warp + 1) * rows - 1
            # First masked element >= lo.
            if elements.start >= lo:
                begin = elements.start
            else:
                skip = -(-(lo - elements.start) // elements.step)
                begin = elements.start + skip * elements.step
            end = min(hi, elements.stop)
            if begin > end:
                continue
            count = (end - begin) // elements.step
            end = begin + count * elements.step
            row_mask = RangeMask(begin - lo, end - lo, elements.step)
            per_warp.append((slot.warp_start + warp, row_mask))

        groups: List[list] = []  # [first warp, last warp, row mask]
        for warp, row_mask in per_warp:
            if groups and groups[-1][1] == warp - 1 and groups[-1][2] == row_mask:
                groups[-1][1] = warp
            else:
                groups.append([warp, warp, row_mask])
        return [(RangeMask(first, last, 1), mask) for first, last, mask in groups]


_default_device: Optional[PIMDevice] = None

#: Objects that must be shut down before ``reset()`` may proceed (live
#: ``repro.serve.Server`` instances register here on start). Weakly
#: referenced: a collected guard never blocks a reset. A guard exposes
#: ``reset_guard_active`` (bool) and ``reset_guard_reason`` (str).
_reset_guards: "weakref.WeakSet" = None


def register_reset_guard(guard) -> None:
    """Register an object whose liveness blocks :func:`reset`."""
    global _reset_guards
    if _reset_guards is None:
        import weakref

        _reset_guards = weakref.WeakSet()
    _reset_guards.add(guard)


def init(
    config: Optional[PIMConfig] = None,
    backend: Union[str, Backend, type, None] = None,
    **kwargs,
) -> PIMDevice:
    """Create (or replace) the default device, e.g. ``pim.init(PIMConfig())``.

    Keyword arguments matching :class:`~repro.arch.config.PIMConfig`
    fields construct a config directly (``pim.init(crossbars=4, rows=64)``);
    the rest are forwarded to the backend (e.g. ``parallelism="serial"``
    or ``cache_size=0``); a keyword the backend does not take raises
    ``TypeError`` naming it (:func:`repro.backend.make_backend`). There
    is no dispatch or replay knob: every macro stream goes plan → chip,
    else op-by-op lowering, chosen from what the driver and simulator
    can observe.
    ``backend`` selects the execution engine: ``"simulator"`` (default,
    bit-accurate), ``"numpy"`` (fast functional model, same cycle
    accounting), or ``"pooled"`` (inter-crossbar sharding across worker
    backends; ``workers=4`` and ``worker_backend="simulator"`` select
    the pool shape — see :mod:`repro.pool`).

    Cache controls: ``cache_size=`` bounds each program-cache tier's LRU
    (default 4096; 0 disables) and
    ``cache_dir=`` enables the cross-session persistent program cache
    (default from ``REPRO_CACHE_DIR``) so a warm-started session skips
    gate building — see :mod:`repro.driver.persist`.

    The previous default device (if any) is closed: tensors allocated on
    it raise a clear error instead of touching stale state.
    """
    global _default_device
    config_fields = set(PIMConfig.__dataclass_fields__)
    config_kwargs = {k: v for k, v in kwargs.items() if k in config_fields}
    backend_kwargs = {k: v for k, v in kwargs.items() if k not in config_fields}
    if config is None and config_kwargs:
        config = PIMConfig(**config_kwargs)
    elif config_kwargs:
        raise TypeError("pass either a PIMConfig or config keyword arguments")
    # Build the replacement first: a failed init (bad backend name, bad
    # config) must not invalidate the still-working previous default.
    try:
        device = PIMDevice(config, backend=backend, **backend_kwargs)
    except UnknownKeywordError as exc:  # it may be a misspelt config field
        raise UnknownKeywordError(
            f"{exc}; pim.init also takes the PIMConfig fields {sorted(config_fields)}"
        ) from None
    if _default_device is not None:
        _default_device.close()
    _default_device = device
    return _default_device


def default_device() -> PIMDevice:
    """The default device, created on first use with default parameters."""
    global _default_device
    if _default_device is None:
        _default_device = PIMDevice(PIMConfig(crossbars=16, rows=256))
    return _default_device


def reset() -> None:
    """Close and drop the default device (tests use this for isolation).

    Outstanding tensors are invalidated explicitly: their ``device``
    back-reference starts raising ``RuntimeError`` and their destructors
    become no-ops, so nothing can free into (or write through) a stale
    allocator.

    Resetting under a live server would tear the device out from under
    in-flight requests and leave their callers hanging, so an active
    ``repro.serve.Server`` makes ``reset()`` fail cleanly instead.
    """
    global _default_device
    if _reset_guards is not None:
        active = [
            getattr(guard, "reset_guard_reason", repr(guard))
            for guard in _reset_guards
            if getattr(guard, "reset_guard_active", False)
        ]
        if active:
            raise RuntimeError(
                "pim.reset() with active services: "
                + "; ".join(sorted(active))
                + ". Close them first."
            )
    if _default_device is not None:
        _default_device.close()
    _default_device = None
