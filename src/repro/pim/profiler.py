"""The ``with pim.Profiler():`` context manager (paper Figure 12 / VI-B).

Captures the simulator's micro-operation counters around a code block and
exposes (optionally prints) the delta, plus the Eq. (1) throughput for a
given element parallelism.
"""

from __future__ import annotations

from typing import Optional

from repro.pim.device import PIMDevice, default_device
from repro.sim.stats import SimStats, throughput


class Profiler:
    """Profile the PIM cycles of a code block.

    Example::

        with pim.Profiler() as prof:
            z = x * y + x
        print(prof.cycles, prof.stats.op_counts)
    """

    def __init__(self, device: Optional[PIMDevice] = None, echo: bool = False):
        self._device = device
        self.echo = echo
        self.stats: Optional[SimStats] = None
        self._before: Optional[SimStats] = None
        self._cache_before: Optional[tuple] = None
        self._reports_before: tuple = ()
        #: Compiled-stream cache hits/misses of the backend inside the
        #: block (how often macro-instructions replayed a compiled stream
        #: versus paying full lowering; see ``repro.driver.program`` and
        #: ``repro.backend``).
        self.cache_hits: int = 0
        self.cache_misses: int = 0
        #: LRU evictions across the backend's cache tiers in the block
        #: (non-zero means the working set outgrew ``cache_size``).
        self.cache_evictions: int = 0
        #: Persistent-cache activity inside the block
        #: (``loads``/``misses``/``invalid``/``stores`` deltas; empty
        #: when no ``cache_dir`` is configured).
        self.persist_counts: dict = {}
        self._persist_before: dict = {}
        #: :class:`~repro.pim.optimizer.OptReport`\ s of graphs lowered
        #: inside the block (``opt_level >= 1`` captures): the pre- vs
        #: post-optimization instruction and cycle counts.
        self.opt_reports: list = []
        #: Program replays inside the block, per replay route
        #: (simulator backend: ``"vectorized"`` super-step plans vs the
        #: op-by-op ``"reference"``; empty on single-route backends).
        self.replay_counts: dict = {}
        self._replay_before: dict = {}
        #: Macro streams emitted inside the block, per emission level
        #: (``"stream"`` plan emissions — eager R-type macros included —
        #: vs ``"macro"`` streams lowered op-by-op; see
        #: :mod:`repro.driver.stream`). Empty on backends without a
        #: stream compiler.
        self.emit_counts: dict = {}
        self._emit_before: dict = {}
        #: Fault-injection activity inside the block (``ticks``/
        #: ``flips``/``stuck_clamps``/``verify_checks``/
        #: ``verify_detected``/``worker_faults``/``failovers`` deltas;
        #: empty when no :class:`~repro.faults.plan.FaultPlan` is
        #: installed and no checksum verification ran).
        self.fault_counts: dict = {}
        self._fault_before: dict = {}

    @property
    def device(self) -> PIMDevice:
        return self._device or default_device()

    def __enter__(self) -> "Profiler":
        self._before = self.device.stats_snapshot()
        self._cache_before = self.device.backend.cache_counters()
        # Snapshot by identity, not index: the device bounds its report
        # list, so entries present at __enter__ may be trimmed away by
        # in-block lowerings (the held references keep their ids unique).
        self._reports_before = tuple(self.device.opt_reports)
        self._replay_before = self.device.backend.replay_counters()
        self._emit_before = self.device.backend.emit_counters()
        self._persist_before = self.device.backend.persist_counters()
        self._fault_before = self.device.backend.fault_counters()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stats = self.device.backend.stats.diff(self._before)
        hits, misses, evictions = self.device.backend.cache_counters()
        self.cache_hits = hits - self._cache_before[0]
        self.cache_misses = misses - self._cache_before[1]
        self.cache_evictions = evictions - self._cache_before[2]
        persists = self.device.backend.persist_counters()
        self.persist_counts = {
            kind: count - self._persist_before.get(kind, 0)
            for kind, count in persists.items()
            if count - self._persist_before.get(kind, 0)
        }
        seen = {id(report) for report in self._reports_before}
        self.opt_reports = [
            report
            for report in self.device.opt_reports
            if id(report) not in seen
        ]
        after = self.device.backend.replay_counters()
        self.replay_counts = {
            engine: count - self._replay_before.get(engine, 0)
            for engine, count in after.items()
            if count - self._replay_before.get(engine, 0)
        }
        emits = self.device.backend.emit_counters()
        self.emit_counts = {
            level: count - self._emit_before.get(level, 0)
            for level, count in emits.items()
            if count - self._emit_before.get(level, 0)
        }
        faults = self.device.backend.fault_counters()
        self.fault_counts = {
            kind: count - self._fault_before.get(kind, 0)
            for kind, count in faults.items()
            if count - self._fault_before.get(kind, 0)
        }
        if self.echo and exc_type is None:
            print(self.stats.summary())
            print(
                f"  program cache  {self.cache_hits} hits / "
                f"{self.cache_misses} misses / "
                f"{self.cache_evictions} evictions"
            )
            if self.persist_counts:
                detail = " / ".join(
                    f"{count} {kind}"
                    for kind, count in sorted(self.persist_counts.items())
                )
                print(f"  persistent cache  {detail}")
            if self.replay_counts:
                detail = " / ".join(
                    f"{count} {engine}"
                    for engine, count in sorted(self.replay_counts.items())
                )
                print(f"  program replays  {detail}")
            if self.emit_counts:
                detail = " / ".join(
                    f"{count} {level}"
                    for level, count in sorted(self.emit_counts.items())
                )
                print(f"  stream emissions  {detail}")
            if self.fault_counts:
                detail = " / ".join(
                    f"{count} {kind}"
                    for kind, count in sorted(self.fault_counts.items())
                )
                print(f"  fault injection  {detail}")
            for report in self.opt_reports:
                print(f"  {report.summary()}")

    @property
    def cycles(self) -> int:
        """PIM cycles (micro-operations) spent inside the block."""
        if self.stats is None:
            raise RuntimeError("profiler block has not completed")
        return self.stats.cycles

    def throughput(self, operations: int) -> float:
        """Eq. (1) throughput for ``operations`` completed in the block."""
        return throughput(
            operations, self.cycles, self.device.config.frequency_hz
        )
