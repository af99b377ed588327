"""The tensor-level graph IR behind ``pim.compile`` / ``pim.trace``.

Tracing runs a user function once with its real tensor arguments while a
:class:`TraceSession` is attached to the device. Nothing is dispatched
to the chip meanwhile: tensors are allocated exactly as eager mode
allocates them, and two things are recorded simultaneously:

- a **tensor-level graph** (:class:`Graph` of :class:`GraphNode`s): one
  node per library operation — elementwise op, ``where``, reduction,
  sort, constant broadcast, bulk move, scalar read/write, view — for
  introspection (``graph.summary()``) and cache identity;
- the exact **macro-instruction stream** those operations lowered to,
  which is what :meth:`TraceSession.lower` compiles through the device
  backend into one fused replayable program.

Because the capture only records, no device value exists while it runs:
a value read from PIM memory during tracing is returned as a
:class:`ScalarRef` (a deferred scalar), and *using* it to steer further
computation raises :class:`TraceError` — a replay could not reproduce a
stream that depended on input data. Reads whose values are only
*returned* (the ``z[::2].sum()`` pattern) are resolved by every replay.
The recorded stream reaches the chip afterwards: ``pim.compile`` replays
the lowered program (the first call included), and a ``pim.trace()``
block dispatches it once at block exit (:meth:`TraceSession.dispatch`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.driver.compiler import CompileError
from repro.isa.dtypes import DType, raw_to_value
from repro.isa.instructions import Instruction, ReadInstr
from repro.sim.simulator import SimulationError


class TraceError(RuntimeError):
    """Raised when a traced function does something replay cannot repeat."""


@dataclass
class GraphNode:
    """One tensor-level operation recorded during tracing."""

    index: int
    kind: str
    span: Tuple[int, int]  #: half-open range into ``Graph.instructions``
    depth: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        """Number of macro-instructions this node lowered to (own span)."""
        return self.span[1] - self.span[0]

    def __repr__(self) -> str:
        extra = "".join(
            f" {key}={value!r}" for key, value in sorted(self.meta.items())
        )
        return (
            f"GraphNode({self.index}, {self.kind!r}, instrs="
            f"{self.instructions}{extra})"
        )


class Graph:
    """A captured tensor program: nodes plus their lowered instructions."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: List[GraphNode] = []
        self.instructions: List[Instruction] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def summary(self) -> str:
        """Human-readable capture report (indented by nesting depth)."""
        lines = [
            f"graph {self.name!r}: {len(self.nodes)} nodes, "
            f"{len(self.instructions)} macro-instructions"
        ]
        for node in self.nodes:
            meta = " ".join(
                f"{key}={value}" for key, value in sorted(node.meta.items())
            )
            lines.append(
                f"  {'  ' * node.depth}{node.kind:<12} "
                f"[{node.instructions:>4} instrs] {meta}".rstrip()
            )
        return "\n".join(lines)


class ScalarRef:
    """A scalar read from PIM memory during tracing (deferred value).

    Carries the index of its read in the trace, so every replay can
    resolve it; ``value`` is ``None`` until the recorded stream has run
    (:meth:`TraceSession.dispatch`). Converting it to a Python number
    *inside* the traced function raises :class:`TraceError` — nothing
    has executed yet, so there is no value, and a replay could not
    follow a branch taken on one.
    """

    __slots__ = ("dtype", "read_index", "_session")

    def __init__(self, dtype: DType, read_index: int, session: "TraceSession"):
        self.dtype = dtype
        self.read_index = read_index
        self._session = session

    @property
    def value(self):
        values = self._session.values
        if values is not None:
            return raw_to_value(values[self.read_index], self.dtype)

    def _blocked(self, what: str):
        if self._session.active:
            raise TraceError(
                f"cannot {what} a PIM scalar inside a traced function: a "
                "trace records instructions without executing them, so the "
                "scalar has no value yet, and a replay could not repeat a "
                "decision taken on one. Read scalars after the traced "
                "call, or return them from the function."
            )
        return self.value

    def __float__(self) -> float:
        return float(self._blocked("convert"))

    def __int__(self) -> int:
        return int(self._blocked("convert"))

    def __index__(self) -> int:
        return int(self._blocked("index with"))

    def __bool__(self) -> bool:
        return bool(self._blocked("branch on"))

    # Comparisons would otherwise fall back to object identity and let a
    # traced function silently bake the wrong branch into the program.
    def __eq__(self, other):
        return self._blocked("compare") == other

    def __ne__(self, other):
        return self._blocked("compare") != other

    def __lt__(self, other):
        return self._blocked("compare") < other

    def __le__(self, other):
        return self._blocked("compare") <= other

    def __gt__(self, other):
        return self._blocked("compare") > other

    def __ge__(self, other):
        return self._blocked("compare") >= other

    __hash__ = None  # mutable-by-resolution; not a dict key

    def __repr__(self) -> str:
        return f"ScalarRef({self.value!r}, read={self.read_index})"


class TraceSession:
    """A live capture attached to a device by ``device.begin_trace()``.

    While attached, :meth:`record` receives every macro-instruction the
    device was asked to execute, tensor constructors :meth:`track` their cell
    placements (so the compiled graph can reserve them for replays), and
    the tensor library opens :meth:`node` scopes around its operations.
    """

    def __init__(self, device, name: str = "trace"):
        self.device = device
        self.graph = Graph(name)
        #: Every (register, warp) cell allocated during the trace. The
        #: replayed stream writes into these cells, so the compiled graph
        #: reserves whichever of them the allocator would otherwise hand
        #: out again (tensors free normally *during* capture, keeping the
        #: instruction stream — and the memory image — identical to eager
        #: execution).
        self.cells: set = set()
        #: The subset of :attr:`cells` still allocated right now — cells
        #: leave on :meth:`untrack_slot` (the allocator notifies frees
        #: while this session observes it) and re-enter when a later
        #: allocation reuses them. After :meth:`close`, this is exactly
        #: the cells of tensors that outlived the capture; the optimizer
        #: treats everything else as dead temporaries.
        self.live_cells: set = set()
        self.reads: List[ReadInstr] = []
        #: The raw words :meth:`dispatch` read, in :attr:`reads` order.
        self.values: Optional[List[int]] = None
        #: Cells the compiled graph must reserve for replays. Defaults to
        #: every traced cell; :meth:`lower` shrinks it when the optimizer
        #: eliminates whole temporaries (``opt_level >= 2``).
        self.replay_cells: Optional[set] = None
        #: The :class:`~repro.pim.optimizer.OptReport` of the most recent
        #: :meth:`lower` call (``None`` for verbatim level-0 lowerings).
        self.last_report = None
        self.active = True
        self._depth = 0

    # -- hooks called by the device / tensor layer ----------------------
    def record(self, instr: Instruction) -> None:
        self.graph.instructions.append(instr)
        if isinstance(instr, ReadInstr):
            self.reads.append(instr)

    def track(self, tensor) -> None:
        """Register a tensor allocated during the trace (records its cells)."""
        slot = tensor.slot
        cells = [
            (slot.reg, warp) for warp in range(slot.warp_start, slot.warp_stop)
        ]
        self.cells.update(cells)
        self.live_cells.update(cells)

    def untrack_slot(self, slot) -> None:
        """Record a slot freed mid-trace (its cells become dead candidates).

        Called by the allocator's free-observer hook. Cells of tensors
        allocated *before* the trace are not tracked, so freeing them
        here is a no-op; cells reallocated later re-enter via
        :meth:`track`.
        """
        if not self.active:
            return
        self.live_cells.difference_update(
            (slot.reg, warp) for warp in range(slot.warp_start, slot.warp_stop)
        )

    def read_cells(self) -> set:
        """The (register, warp) cells deferred scalar reads re-visit."""
        return {(read.reg, read.warp) for read in self.reads}

    def dead_cells(self) -> set:
        """Trace cells unobservable after the program ends.

        Allocated during the trace, freed before it finished, and not
        re-visited by a deferred scalar read — the only cells the
        optimizer may leave with different contents than eager mode.
        """
        return self.cells - self.live_cells - self.read_cells()

    @contextmanager
    def node(self, kind: str, **meta):
        """Open a graph-node scope; instructions recorded inside belong
        to it (nested scopes record their own nodes at greater depth)."""
        start = len(self.graph.instructions)
        depth = self._depth
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.graph.nodes.append(
                GraphNode(
                    index=len(self.graph.nodes),
                    kind=kind,
                    span=(start, len(self.graph.instructions)),
                    depth=depth,
                    meta=meta,
                )
            )

    def note(self, kind: str, **meta) -> None:
        """Record an instruction-free node (e.g. a view creation)."""
        here = len(self.graph.instructions)
        self.graph.nodes.append(
            GraphNode(
                index=len(self.graph.nodes),
                kind=kind,
                span=(here, here),
                depth=self._depth,
                meta=meta,
            )
        )

    def wrap_scalar(self, dtype: DType) -> ScalarRef:
        """The deferred scalar of the most recently recorded read."""
        return ScalarRef(dtype, len(self.reads) - 1, self)

    # -- finalization ---------------------------------------------------
    def close(self) -> None:
        self.active = False

    def dispatch(self) -> None:
        """Run the recorded stream on the device, once, as eager mode would.

        Every read-free stretch is one ``execute_stream`` and every read
        is issued in place, so memory and ``SimStats`` end up where eager
        execution leaves them, and every :class:`ScalarRef` handed out
        gets its value.
        """
        values = []
        stretch: List[Instruction] = []
        for instr in self.graph.instructions:
            if isinstance(instr, ReadInstr):
                self.device.execute_stream(stretch, name=self.graph.name)
                stretch = []
                values.append(self.device.execute(instr))
            else:
                stretch.append(instr)
        self.device.execute_stream(stretch, name=self.graph.name)
        self.values = values

    def lower(self, keep_reads: bool = True, opt_level: int = 0):
        """Compile the captured instruction stream through the backend.

        Returns the backend's program handle (a ``MicroProgram`` on the
        simulator backend). With ``keep_reads=False`` the scalar reads
        are left out — the protocol ``pim.compile`` uses, re-issuing them
        after each replay so every deferred scalar stays retrievable.
        The backend's ``compile`` hands the stream to the driver, which
        splices cached bodies instead of re-lowering every macro (see
        :mod:`repro.driver.stream`).

        ``opt_level`` selects the optimizer pipeline (see
        :mod:`repro.pim.optimizer`): 0 replays the eager stream verbatim
        (cycle-exact), 1 runs the driver's peephole passes, 2 adds
        constant folding, CSE and dead-temporary elimination on the
        graph IR, 3 adds register reuse. Levels >= 1 leave an
        :class:`~repro.pim.optimizer.OptReport` in
        :attr:`last_report` (and on ``device.opt_reports`` for the
        Profiler); levels >= 2 shrink :attr:`replay_cells`, the cell
        reservation compiled graphs hold.

        Under ``pim.compile`` nothing of the stream has run yet, so what
        the chip would have refused at one instruction — an illegal
        H-tree pattern, a mask or thread out of range, in the stream or
        in a left-out read — is raised here, as the driver's
        ``SimulationError`` / ``CompileError`` naming the program.
        """
        from repro.pim.optimizer import (
            OptReport,
            optimize_instructions,
            plan_reservation,
            resolve_opt_level,
        )

        level = resolve_opt_level(opt_level)
        raw = self.graph.instructions
        if not keep_reads:
            raw = [
                instr for instr in raw if not isinstance(instr, ReadInstr)
            ]
        instructions = raw
        passes: dict = {}
        config = self.device.config
        self.replay_cells = set(self.cells)
        if level >= 2:
            instructions, passes = optimize_instructions(
                raw, config, level, self.dead_cells()
            )
            self.replay_cells = plan_reservation(
                instructions, config, self.cells, self.live_cells,
                self.read_cells(),
            )
        backend = self.device.backend
        try:
            if not keep_reads:  # re-issued after each replay: refused before it
                backend.lowering.check_stream(self.reads)
            program = backend.compile(
                instructions, name=self.graph.name, optimize=level >= 1
            )
            after = backend.program_stats(program)
        except (SimulationError, CompileError) as exc:
            raise type(exc)(f"program {self.graph.name!r}: {exc}") from exc
        self.last_report = None
        if level >= 1:
            self.last_report = OptReport(
                name=self.graph.name,
                opt_level=level,
                macros_before=len(raw),
                macros_after=len(instructions),
                cycles_after=after.cycles,
                cells_before=len(self.cells),
                cells_after=len(self.replay_cells),
                passes=passes,
                # The verbatim stream is never lowered, and pricing it may
                # build gate bodies nothing executes (other registers than
                # the optimized layout's): whoever reads the baseline pays.
                baseline=partial(backend.stream_stats, raw),
            )
            self.device.opt_reports.append(self.last_report)
            del self.device.opt_reports[:-32]
        return program


@contextmanager
def trace(device=None, name: str = "trace"):
    """Context-manager capture: ``with pim.trace() as session:``.

    Records the block without executing it and dispatches the recorded
    stream once when the block exits normally
    (:meth:`TraceSession.dispatch`), so its tensors hold what eager
    execution would have left in them. Afterwards ``session.graph``
    holds the tensor-level IR and ``session.lower()`` compiles the
    captured stream into one fused program for the active backend.
    """
    from repro.pim.device import default_device

    device = device or default_device()
    session = device.begin_trace(name)
    try:
        yield session
    finally:
        device.end_trace()
    session.dispatch()
