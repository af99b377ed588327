"""The execution-backend protocol behind :class:`repro.pim.device.PIMDevice`.

A *backend* is how a macro-instruction reaches the ``(crossbars,
registers, rows)`` word image. The tensor library (``repro.pim``) is
written entirely against this protocol, so the same user program can
execute on the bit-accurate simulator (the default,
:class:`~repro.backend.simulator.SimulatorBackend`) or on the fast
functional model (:class:`~repro.backend.numpy_backend.NumpyBackend`)
without touching user code — ``pim.init(backend="numpy")`` is the whole
switch.

Every backend exposes:

- :meth:`Backend.execute` — run one macro-instruction eagerly;
- :meth:`Backend.run_stream` — run a stream as one dispatch unit;
- :meth:`Backend.compile` / :meth:`Backend.run_program` — turn a recorded
  macro-instruction stream into a replayable program (the lowering target
  of the ``pim.compile`` graph front-end) and replay it;
- :attr:`Backend.words` — the raw word image, used by the device's
  DMA-style bulk load/dump path;
- :attr:`Backend.stats` — the :class:`~repro.sim.stats.SimStats` cycle
  counters, with identical accounting semantics across backends.

Every backend owns one :class:`~repro.driver.driver.Driver`
(:attr:`Backend.lowering`), and that driver keeps the books of a
dispatch unit for all of them: the stream tier, the emission counters,
the fault overlay and the one fault window that closes a unit
(:meth:`~repro.driver.driver.Driver.close_window`), and every backend
prices a stream with that driver's one walk
(:meth:`~repro.driver.driver.Driver.stream_bill`). Backends that apply
instructions without running micro-ops (the functional backend, the
pool) derive from :class:`BilledBackend`: their dispatch unit is a
priced stream program, and an eager instruction is a one-instruction
stream. Which cells an instruction writes is
:func:`repro.isa.instructions.written_region`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig, config_fingerprint
from repro.driver.driver import Driver
from repro.driver.stream import MacroStream
from repro.faults.checksum import check_verify_mode
from repro.isa.instructions import Instruction
from repro.sim.simulator import SimulationError
from repro.sim.stats import SimStats


class Backend(abc.ABC):
    """One execution engine for macro-instruction streams."""

    #: Short identifier used by ``pim.init(backend=...)`` and cache keys.
    name: str = "abstract"

    #: The :class:`~repro.driver.driver.Driver` whose lowering this backend
    #: bills and whose books (stream tier, counters, fault window) it
    #: keeps. Set by subclasses.
    lowering: Driver

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

        A verbatim compile is the program :meth:`run_stream` dispatches.
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

    @abc.abstractmethod
    def run_stream(
        self, instructions: Sequence[Instruction], name: str = "stream"
    ) -> Optional[int]:
        """Execute a macro-instruction stream as one emission unit.

        The stream is fused into one cached emission plan (see
        :mod:`repro.driver.stream`) and dispatched with a single call,
        bit-identically to a loop over :meth:`execute`. Returns the last
        read response, like the loop would.
        """

    def _pool_part(self, instructions: Sequence[Instruction], name: str):
        """A pooled stream's part on this worker: its stream program."""
        return self._stream_program(instructions, name)

    def program_stats(self, program) -> SimStats:
        """The per-replay cycle bill of a compiled program.

        The bill the program carries (walked once — no execution, no
        counter side effects), so callers can report pre- vs
        post-optimization cycle counts without running anything.
        """
        return program.stats_delta.copy()

    def stream_stats(self, instructions: Sequence[Instruction]) -> SimStats:
        """The cycle bill of a macro stream lowered verbatim (no program):
        the driver's one walk (:meth:`~repro.driver.driver.Driver.stream_bill`).
        The optimizer's report prices its baseline with it."""
        return self.lowering.stream_bill(instructions)

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
        """A counter summed over the driver's two cache tiers."""
        driver = self.lowering
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
        no cache directory is configured.
        """
        persist = self.lowering.persist
        return {} if persist is None else persist.counters()

    def emit_counters(self) -> Dict[str, int]:
        """Streams served per emission level (see
        :mod:`repro.driver.stream`): ``"stream"`` counts plan emissions
        (eager R-type macros included), ``"macro"`` counts streams
        lowered op-by-op. ``pim.Profiler`` snapshots this.
        """
        return dict(self.lowering.emit_counters)

    def install_faults(self, plan):
        """Arm a :class:`repro.faults.FaultPlan` on this backend.

        Its cell faults become the driver's overlay over :attr:`words`,
        ticked by the driver's one fault window at the end of every
        dispatch unit; returns the bound :class:`repro.faults.FaultOverlay`.
        """
        self.lowering.faults = plan.overlay_for(self.words, self.config)
        return self.lowering.faults

    def fault_counters(self) -> Dict[str, int]:
        """Fault-injection and detection counters.

        ``ticks``/``flips``/``stuck_clamps`` from the installed
        :class:`~repro.faults.FaultOverlay`, plus the driver's tally
        (``verify_checks``, ``verify_detected``, pool ``failovers``,
        ...). Empty when no fault plan is installed; ``pim.Profiler``
        snapshots this like the replay/emit counters.
        """
        faults = self.lowering.faults
        injected = {} if faults is None else faults.counters
        return {**injected, **self.lowering.verify_tally}

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


@dataclass(frozen=True, eq=False)
class BilledProgram:
    """What a :class:`BilledBackend`'s program handle carries, whatever it
    replays: identity-hashed, stamped with the geometry it was priced
    for, and billed ``stats_delta`` (the bill of the lowered, optionally
    peephole-optimized stream) once per replay."""

    name: str
    config_fingerprint: Tuple[int, ...]
    stats_delta: SimStats
    macros: int
    #: Micro-ops before the peephole passes ran (``MicroProgram.source_ops``).
    source_ops: int

    def __len__(self) -> int:
        return self.stats_delta.micro_ops


class BilledBackend(Backend):
    """A backend that applies macro-instructions itself and bills them
    from a driver's lowering (:class:`NumpyBackend`, the pool).

    A subclass says how a program reaches the word image
    (``run_program``) and what handle a priced stream becomes
    (``_assemble(instrs, name, delta, source_ops)``); its ``execute``
    is the one-instruction :meth:`_run_stream`. The rest is here, once:
    a verbatim stream — run or compiled — is the stream-tier entry
    (:meth:`_stream_program`) of a real
    :class:`~repro.driver.driver.Driver` whose chip port is never used,
    priced by its :meth:`~repro.driver.driver.Driver.stream_bill`, and
    every dispatch unit ends in the driver's fault window (:meth:`_settle`).
    A numpy pool worker's part (``_pool_part``) is unpriced: the pool bills.
    """

    def __init__(self, config: PIMConfig, **driver_kwargs):
        super().__init__(config)
        self.lowering = Driver(None, config=config, **driver_kwargs)
        self._fingerprint = config_fingerprint(config)
        self._stats = SimStats()

    @property
    def words(self) -> np.ndarray:
        return self._words  # allocated by the subclass

    @property
    def stats(self) -> SimStats:
        return self._stats

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def _compile(
        self, instructions: Sequence[Instruction], name: str, optimize: bool
    ) -> BilledProgram:
        """``compile``: a verbatim stream is its :meth:`_stream_program`; an
        optimized one is lowered through the real driver for its bill."""
        if not optimize:
            return self._stream_program(instructions, name)
        instrs = MacroStream.wrap(instructions)
        micro = self.lowering.compile(instrs, name=name, optimize=True)
        delta = micro.bill(self.config).copy()
        return self._assemble(instrs, name, delta, micro.source_ops)

    def _stream_program(
        self, instructions: Sequence[Instruction], name: str
    ) -> BilledProgram:
        """A verbatim stream's program: the driver's stream-tier entry,
        built by :meth:`_price_stream` — nothing is lowered, kept or
        persisted as micro-ops for a stream that never replays them."""
        return self.lowering.stream_program(
            instructions, name, build=self._price_stream
        )

    def _price_stream(self, instrs: MacroStream, name: str) -> BilledProgram:
        """A stream's handle, priced by :meth:`stream_stats` (which
        refuses the stream whole, as the splice refuses it)."""
        delta = self.stream_stats(instrs)
        return self._assemble(instrs, name, delta, delta.micro_ops)

    def _run_stream(
        self, instructions: Sequence[Instruction], name: str
    ) -> Optional[int]:
        """``run_stream`` (and ``execute``, a one-instruction stream): one
        cached program, one replay, one fault tick."""
        instrs = MacroStream.wrap(instructions)
        if not instrs:
            return None
        program = self._stream_program(instrs, name)
        self.lowering.emit_counters["stream"] += 1
        return self.run_program(program)

    # ------------------------------------------------------------------
    # The two ends of a dispatch unit
    # ------------------------------------------------------------------
    def _admit(self, program, verify: Optional[str]) -> None:
        """The checks every ``run_program`` starts with (a replay of a
        program the caller holds is no cache lookup)."""
        check_verify_mode(verify)
        if program.config_fingerprint != self._fingerprint:
            raise SimulationError(
                f"program {program.name!r} was compiled for fingerprint "
                f"{program.config_fingerprint}, this backend is "
                f"{self._fingerprint}"
            )

    def _settle(self, delta: SimStats, verify=None, regions=None, name=None) -> None:
        """What every dispatch unit ends with: its bill, then the driver's
        fault window — checksummed for a verified replay of ``name``."""
        self._stats.merge(delta)
        self.lowering.close_window(
            None if verify is None else self.words, regions, name
        )
