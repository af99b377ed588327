"""The ``with pim.Profiler():`` context manager (paper Figure 12 / VI-B).

Snapshots a backend's cycle bill (:class:`~repro.sim.stats.SimStats`) and
its one counter snapshot (:meth:`repro.backend.base.Backend.counters`)
around a code block and exposes (optionally prints) both deltas, plus the
Eq. (1) throughput for a given element parallelism.
"""

from __future__ import annotations

from typing import Optional

from repro.backend.base import family
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
        self._counters_before: dict = {}
        self._reports_before: tuple = ()
        #: The backend's :meth:`~repro.backend.base.Backend.counters` that
        #: moved inside the block, as ``family.kind`` deltas (e.g.
        #: ``cache.hits``, ``emit.stream``, ``fault.flips``).
        self.counters: dict = {}
        #: :class:`~repro.pim.optimizer.OptReport`\ s of graphs lowered
        #: inside the block (``opt_level >= 1`` captures): the pre- vs
        #: post-optimization instruction and cycle counts.
        self.opt_reports: list = []

    @property
    def device(self) -> PIMDevice:
        return self._device or default_device()

    def __enter__(self) -> "Profiler":
        backend = self.device.backend
        self._before = self.device.stats_snapshot()
        self._counters_before = backend.counters()
        # Snapshot by identity, not index: the device bounds its report
        # list, so entries present at __enter__ may be trimmed away by
        # in-block lowerings (the held references keep their ids unique).
        self._reports_before = tuple(self.device.opt_reports)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        backend = self.device.backend
        self.stats = backend.stats.diff(self._before)
        before = self._counters_before
        self.counters = {
            key: count - before.get(key, 0)
            for key, count in backend.counters().items()
            if count != before.get(key, 0)
        }
        seen = {id(report) for report in self._reports_before}
        self.opt_reports = [
            report
            for report in self.device.opt_reports
            if id(report) not in seen
        ]
        if self.echo and exc_type is None:
            print(self.stats.summary())
            for name in sorted({key.split(".")[0] for key in self.counters}):
                detail = " / ".join(
                    f"{count} {kind}"
                    for kind, count in sorted(family(self.counters, name).items())
                )
                print(f"  {name:<14} {detail}")
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
