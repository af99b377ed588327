"""The execution-backend protocol behind :class:`repro.pim.device.PIMDevice`.

A *backend* is the engine a device runs macro-instructions on. The tensor
library (``repro.pim``) is written entirely against this protocol, so the
same user program can execute on the bit-accurate simulator (the default,
:class:`~repro.backend.simulator.SimulatorBackend`) or on the fast
functional model (:class:`~repro.backend.numpy_backend.NumpyBackend`)
without touching user code — ``pim.init(backend="numpy")`` is the whole
switch.

Every backend exposes:

- :meth:`Backend.execute` — run one macro-instruction eagerly;
- :meth:`Backend.compile` / :meth:`Backend.run_program` — turn a recorded
  macro-instruction stream into a replayable program (the lowering target
  of the ``pim.compile`` graph front-end) and replay it;
- :attr:`Backend.words` — the raw ``(crossbars, registers, rows)`` word
  image, used by the device's DMA-style bulk load/dump path;
- :attr:`Backend.stats` — the :class:`~repro.sim.stats.SimStats` cycle
  counters, with identical accounting semantics across backends (the
  functional backend charges the same cycle model the simulator counts).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig
from repro.driver.driver import Driver
from repro.driver.program import config_fingerprint
from repro.isa.instructions import Instruction, MoveInstr, validate
from repro.sim.simulator import SimulationError
from repro.sim.stats import SimStats


class Backend(abc.ABC):
    """One execution engine for macro-instruction streams."""

    #: Short identifier used by ``pim.init(backend=...)`` and cache keys.
    name: str = "abstract"

    #: The :class:`~repro.driver.driver.Driver` whose lowering this backend
    #: bills, and the move-cost model it bills under. Set by subclasses.
    lowering = None
    move_cost: str = "unit"

    def __init__(self, config: PIMConfig):
        self.config = config

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def execute(self, instr: Instruction) -> Optional[int]:
        """Execute one macro-instruction; returns the word for reads."""

    @abc.abstractmethod
    def compile(
        self,
        instructions: Sequence[Instruction],
        name: str = "stream",
        optimize: bool = True,
    ):
        """Compile a macro-instruction stream into a replayable program.

        The returned handle is backend-specific (a
        :class:`~repro.driver.program.MicroProgram` on the simulator, a
        :class:`~repro.backend.numpy_backend.FunctionalProgram` on the
        NumPy backend); pass it back to :meth:`run_program`.
        """

    @abc.abstractmethod
    def run_program(self, program, verify: Optional[str] = None) -> Optional[int]:
        """Replay a program from :meth:`compile`; returns the last read.

        ``verify="checksum"`` additionally checksums the program's
        output regions across the post-replay fault window and raises
        :class:`repro.faults.ChecksumError` on corruption (see
        :mod:`repro.faults.checksum`). Verification is host-side and
        free of cycle/memory side effects.
        """

    def run_stream(
        self, instructions: Sequence[Instruction], name: str = "stream"
    ) -> Optional[int]:
        """Execute a macro-instruction stream as one emission unit.

        Backends with a stream compiler (see :mod:`repro.driver.stream`)
        fuse the stream into one cached emission plan and dispatch it
        with a single call; the default is the bit-identical per-macro
        loop. Returns the last read response, like the loop would.
        """
        response: Optional[int] = None
        for instr in instructions:
            result = self.execute(instr)
            if result is not None:
                response = result
        return response

    def program_stats(self, program) -> SimStats:
        """The per-replay cycle bill of a compiled program.

        The bill the program carries (walked once — no execution, no
        counter side effects), so callers can report pre- vs
        post-optimization cycle counts without running anything.
        """
        return program.stats_delta.copy()

    def instr_stats(self, instr: Instruction) -> SimStats:
        """The cycle bill of one macro-instruction lowered verbatim."""
        return self.lowering.instr_bill(instr).billed(self.move_cost)

    def stream_stats(self, instructions: Sequence[Instruction]) -> SimStats:
        """The cycle bill of a macro stream lowered verbatim (no program).

        The sum of the per-instruction bills: every lowering sets the
        masks it runs under before its first gate, move or read, so the
        walk of the concatenated lowering is the sum of the walks of
        its parts, and an R-type part is priced from its body's carried
        bill. The optimizer's report prices its baseline with it.
        """
        total = SimStats()
        for instr in instructions:
            total.merge(self.instr_stats(instr))
        return total

    # ------------------------------------------------------------------
    # State and accounting
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def words(self) -> np.ndarray:
        """Raw ``(crossbars, registers, rows)`` word image (DMA target)."""

    @property
    @abc.abstractmethod
    def stats(self) -> SimStats:
        """Cumulative cycle counters (same accounting on every backend)."""

    def stats_snapshot(self) -> SimStats:
        """Copy of the counters (for profiling diffs)."""
        return self.stats.copy()

    def _tier_total(self, counter: str) -> int:
        """A counter summed over the driver's two cache tiers (0 without one)."""
        driver = self.lowering
        if driver is None:
            return 0
        return getattr(driver.programs, counter) + getattr(driver.streams, counter)

    @property
    def cache_hits(self) -> int:
        """Compiled-program cache hits (bodies + streams)."""
        return self._tier_total("hits")

    @property
    def cache_misses(self) -> int:
        return self._tier_total("misses")

    @property
    def cache_evictions(self) -> int:
        """LRU evictions across the driver's cache tiers."""
        return self._tier_total("evictions")

    def cache_counters(self) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` — what ``pim.Profiler`` snapshots."""
        return self.cache_hits, self.cache_misses, self.cache_evictions

    def persist_counters(self) -> Dict[str, int]:
        """Cross-session persistent-cache counters.

        ``loads``/``misses``/``invalid``/``stores`` from the driver's
        :class:`~repro.driver.persist.PersistentProgramCache`; empty when
        no cache directory is configured (or the backend has no driver).
        """
        persist = getattr(self.lowering, "persist", None)
        return {} if persist is None else persist.counters()

    def emit_counters(self) -> Dict[str, int]:
        """Streams served per emission level (see
        :mod:`repro.driver.stream`): ``"stream"`` counts plan emissions
        (eager R-type macros included), ``"macro"`` counts streams
        lowered op-by-op.
        ``pim.Profiler`` snapshots this; backends without a stream
        compiler report nothing.
        """
        return {}

    def install_faults(self, plan):
        """Arm a :class:`repro.faults.FaultPlan` on this backend.

        Returns the bound :class:`repro.faults.FaultOverlay` (or ``None``
        for plans with only process-level faults). Backends without
        fault support reject installation rather than silently running
        fault-free.
        """
        raise NotImplementedError(
            f"the {self.name!r} backend does not support fault injection"
        )

    def fault_counters(self) -> Dict[str, int]:
        """Fault-injection and detection counters.

        ``ticks``/``flips``/``stuck_clamps`` from the installed
        :class:`~repro.faults.FaultOverlay`, plus detection/recovery
        counters the backend layers on top (``verify_checks``,
        ``verify_detected``, pool ``failovers``, ...). Empty when no
        fault plan is installed; ``pim.Profiler`` snapshots this like
        the replay/emit counters.
        """
        return {}

    def replay_counters(self) -> Dict[str, int]:
        """Program replays served per replay route.

        ``pim.Profiler`` snapshots this to attribute replays inside a
        block to ``"vectorized"`` super-step plans versus the op-by-op
        ``"reference"``. Backends with one replay route report nothing.
        """
        return {}

    def program_replay_info(self, program) -> Dict[str, object]:
        """How this backend would replay a compiled program.

        On the simulator backend: the replay route and the program's
        super-step segmentation counts (see
        :meth:`repro.driver.program.MicroProgram.replay_summary`).
        Backends with a single execution strategy report nothing.
        """
        return {}


class BilledBackend(Backend):
    """A backend that applies macro-instructions itself and bills them
    from a driver's lowering (:class:`NumpyBackend`, the pool).

    Every distinct instruction is priced once through a real
    :class:`~repro.driver.driver.Driver` whose chip port is never used
    (:meth:`Backend.instr_stats`, memoized here with the hit/miss
    counters ``cache_counters`` reports), and a stream is one cached
    program (``run_stream``: one replay plan, one stats merge, one fault
    tick). Subclasses say how instructions and programs reach memory.
    """

    def __init__(self, config: PIMConfig, move_cost: str, **driver_kwargs):
        super().__init__(config)
        if move_cost not in ("unit", "htree"):
            raise ValueError("move_cost must be 'unit' or 'htree'")
        self.move_cost = move_cost
        self.lowering = Driver(None, config=config, **driver_kwargs)
        self._fingerprint = config_fingerprint(config)
        self._stats = SimStats()
        self._instr_stats: Dict[Instruction, SimStats] = {}
        self._hits = 0
        self._misses = 0
        # Stream tier, mirroring the driver's StreamPlan cache.
        self._stream_programs: Dict[Tuple, object] = {}
        self._emit_counters: Dict[str, int] = {"stream": 0, "macro": 0}

    @property
    def stats(self) -> SimStats:
        return self._stats

    @property
    def cache_hits(self) -> int:
        return self._hits

    @property
    def cache_misses(self) -> int:
        return self._misses

    def emit_counters(self) -> Dict[str, int]:
        return dict(self._emit_counters)

    def _instr_delta(self, instr: Instruction) -> SimStats:
        """The cycle bill of one instruction's lowering (memoized); a
        first sight raises the chip's own errors (mask ranges, H-tree
        patterns) and those of the non-R lowerings' range checks."""
        validate(instr, self.config.registers)
        delta = self._instr_stats.get(instr)
        if delta is not None:
            self._hits += 1
            return delta
        self._misses += 1
        delta = self.instr_stats(instr)
        if len(self._instr_stats) < 65536:
            self._instr_stats[instr] = delta
        return delta

    def _eager_delta(self, instr: Instruction) -> SimStats:
        """:meth:`_instr_delta` for an instruction executed on its own.

        An inter-warp move lowering starts with a crossbar-mask op, which
        the simulator executes (and counts) before the H-tree validation
        rejects the ``MoveOp`` — so that cycle is charged here too.
        """
        try:
            return self._instr_delta(instr)
        except SimulationError:
            if isinstance(instr, MoveInstr) and instr.warp_dist:
                self._stats.record("mask_crossbar")
            raise

    def _admit(self, program, verify: Optional[str]) -> None:
        """The checks (and the cache hit) every ``run_program`` starts with."""
        if verify not in (None, "checksum"):
            raise ValueError(f"unknown verify mode {verify!r}; expected 'checksum'")
        if program.config_fingerprint != self._fingerprint:
            raise SimulationError(
                f"program {program.name!r} was compiled for fingerprint "
                f"{program.config_fingerprint}, this backend is "
                f"{self._fingerprint}"
            )
        self._hits += 1
