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
from repro.isa.instructions import Instruction
from repro.sim.stats import SimStats


class Backend(abc.ABC):
    """One execution engine for macro-instruction streams."""

    #: Short identifier used by ``pim.init(backend=...)`` and cache keys.
    name: str = "abstract"

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

        Computed statically (no execution, no counter side effects) with
        the same accounting rules replay charges, so callers can report
        pre- vs post-optimization cycle counts without running anything.
        """
        raise NotImplementedError(
            f"the {self.name!r} backend does not implement program_stats"
        )

    def stream_stats(self, instructions: Sequence[Instruction]) -> SimStats:
        """The cycle bill of a macro stream lowered verbatim (no program).

        Like :meth:`program_stats` for the unoptimized lowering of
        ``instructions``, but without building (or caching) a compiled
        program — the optimizer uses it to price its baseline.
        """
        raise NotImplementedError(
            f"the {self.name!r} backend does not implement stream_stats"
        )

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

    @property
    def cache_hits(self) -> int:
        """Compiled-stream cache hits (0 when the backend has no cache)."""
        return 0

    @property
    def cache_misses(self) -> int:
        """Compiled-stream cache misses (0 when the backend has no cache)."""
        return 0

    @property
    def cache_evictions(self) -> int:
        """LRU evictions across cache tiers (0 without a bounded cache)."""
        return 0

    def cache_counters(self) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` — what ``pim.Profiler`` snapshots."""
        return self.cache_hits, self.cache_misses, self.cache_evictions

    def persist_counters(self) -> Dict[str, int]:
        """Cross-session persistent-cache counters.

        ``loads``/``misses``/``invalid``/``stores`` from the driver's
        :class:`~repro.driver.persist.PersistentProgramCache`; empty when
        no cache directory is configured (or the backend has no driver).
        """
        return {}

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
