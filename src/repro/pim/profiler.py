"""The ``with pim.Profiler():`` context manager (paper Figure 12 / VI-B).

Captures the simulator's micro-operation counters around a code block and
exposes (optionally prints) the delta, plus the Eq. (1) throughput for a
given element parallelism.
"""

from __future__ import annotations

from typing import Optional

from repro.pim.device import PIMDevice, default_device
from repro.sim.stats import SimStats, throughput


#: The backend counter families a block is diffed over:
#: ``(Profiler attribute, Backend method, echo label)``.
_COUNTER_FAMILIES = (
    ("persist_counts", "persist_counters", "persistent cache"),
    ("replay_counts", "replay_counters", "program replays"),
    ("emit_counts", "emit_counters", "stream emissions"),
    ("fault_counts", "fault_counters", "fault injection"),
)


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
        self._counts_before: dict = {}
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
        #: :class:`~repro.pim.optimizer.OptReport`\ s of graphs lowered
        #: inside the block (``opt_level >= 1`` captures): the pre- vs
        #: post-optimization instruction and cycle counts.
        self.opt_reports: list = []
        #: Program replays inside the block, per replay route
        #: (simulator backend: ``"vectorized"`` super-step plans vs the
        #: op-by-op ``"reference"``; empty on single-route backends).
        self.replay_counts: dict = {}
        #: Macro streams emitted inside the block, per emission level
        #: (``"stream"`` plan emissions — eager R-type macros included —
        #: vs ``"macro"`` streams lowered op-by-op; see
        #: :mod:`repro.driver.stream`). Empty on backends without a
        #: stream compiler.
        self.emit_counts: dict = {}
        #: Fault-injection activity inside the block (``ticks``/
        #: ``flips``/``stuck_clamps``/``verify_checks``/
        #: ``verify_detected``/``worker_faults``/``failovers`` deltas;
        #: empty when no :class:`~repro.faults.plan.FaultPlan` is
        #: installed and no checksum verification ran).
        self.fault_counts: dict = {}

    @property
    def device(self) -> PIMDevice:
        return self._device or default_device()

    def __enter__(self) -> "Profiler":
        backend = self.device.backend
        self._before = self.device.stats_snapshot()
        self._cache_before = backend.cache_counters()
        self._counts_before = {
            attr: getattr(backend, method)()
            for attr, method, _ in _COUNTER_FAMILIES
        }
        # Snapshot by identity, not index: the device bounds its report
        # list, so entries present at __enter__ may be trimmed away by
        # in-block lowerings (the held references keep their ids unique).
        self._reports_before = tuple(self.device.opt_reports)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        backend = self.device.backend
        self.stats = backend.stats.diff(self._before)
        self.cache_hits, self.cache_misses, self.cache_evictions = (
            after - before
            for after, before in zip(backend.cache_counters(), self._cache_before)
        )
        for attr, method, _ in _COUNTER_FAMILIES:
            before = self._counts_before[attr]
            setattr(self, attr, {
                kind: count - before.get(kind, 0)
                for kind, count in getattr(backend, method)().items()
                if count - before.get(kind, 0)
            })
        seen = {id(report) for report in self._reports_before}
        self.opt_reports = [
            report
            for report in self.device.opt_reports
            if id(report) not in seen
        ]
        if self.echo and exc_type is None:
            print(self.stats.summary())
            print(
                f"  program cache  {self.cache_hits} hits / "
                f"{self.cache_misses} misses / "
                f"{self.cache_evictions} evictions"
            )
            for attr, _, label in _COUNTER_FAMILIES:
                counts = getattr(self, attr)
                if counts:
                    detail = " / ".join(
                        f"{count} {kind}" for kind, count in sorted(counts.items())
                    )
                    print(f"  {label}  {detail}")
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
