"""The bit-accurate backend: host driver + cycle-accurate simulator.

This is the default engine and the reference for every other backend:
macro-instructions are lowered by :class:`repro.driver.driver.Driver`
into stateful-logic micro-operations and executed cycle-by-cycle on the
:class:`repro.sim.simulator.Simulator`. All of PR 1's compile/replay
machinery (program cache, ``execute_program`` fast path) sits behind
:meth:`SimulatorBackend.compile` / :meth:`run_program`, which is what the
``pim.compile`` graph front-end lowers whole traced functions through.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.arch.config import PIMConfig
from repro.backend.base import Backend
from repro.driver.driver import Driver
from repro.isa.instructions import Instruction
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats


class SimulatorBackend(Backend):
    """Bit-accurate execution: ``Driver`` lowering onto a ``Simulator``.

    Keyword arguments are forwarded to the driver (``parallelism``,
    ``cache_size``, ``guard``), except ``move_cost`` which selects the
    simulator's move-cost model.
    """

    name = "simulator"

    def __init__(
        self,
        config: PIMConfig,
        move_cost: str = "unit",
        **driver_kwargs,
    ):
        super().__init__(config)
        self.simulator = Simulator(config, move_cost=move_cost)
        self.driver = Driver(self.simulator, **driver_kwargs)

    # ------------------------------------------------------------------
    def execute(self, instr: Instruction) -> Optional[int]:
        return self.driver.execute(instr)

    def compile(
        self,
        instructions: Sequence[Instruction],
        name: str = "stream",
        optimize: bool = True,
    ):
        return self.driver.compile(list(instructions), name=name, optimize=optimize)

    def run_program(self, program, verify: Optional[str] = None) -> Optional[int]:
        return self.driver.run_program(program, verify=verify)

    def run_stream(
        self, instructions: Sequence[Instruction], name: str = "stream"
    ) -> Optional[int]:
        return self.driver.execute_stream(instructions, name=name)

    def emit_counters(self):
        return dict(self.driver.emit_counters)

    def install_faults(self, plan):
        """Bind a fault plan's cell faults to the simulator's memory.

        The overlay is owned (and ticked) by the driver so that macro
        dispatch, fused-stream emission, and program replay open
        identical fault windows; the memory keeps a reference for
        introspection (``memory.overlay``).
        """
        overlay = plan.overlay_for(self.simulator.memory.words, self.config)
        self.driver.faults = overlay
        self.simulator.memory.overlay = overlay
        return overlay

    def fault_counters(self):
        counters = {}
        if self.driver.faults is not None:
            counters.update(self.driver.faults.counters)
        if self.driver.verify_checks:
            counters["verify_checks"] = self.driver.verify_checks
        if self.driver.verify_detected:
            counters["verify_detected"] = self.driver.verify_detected
        return counters

    def program_stats(self, program) -> SimStats:
        """Static per-replay accounting of a fused ``MicroProgram``.

        Uses :func:`~repro.sim.simulator.accounting_walk` with the masks
        a fresh chip starts from — exactly what ``execute_program``
        charges for self-masked fused streams.
        """
        return self._walk_ops(program.ops)

    def stream_stats(self, instructions: Sequence[Instruction]) -> SimStats:
        """Accounting of a verbatim lowering, without building a program.

        The per-instruction body cache makes re-lowering cheap (the
        capture already compiled every distinct instruction), and no
        ``MicroProgram`` is constructed or inserted into the cache.
        """
        ops = []
        for instr in instructions:
            ops.extend(self.driver._lower_ops(instr))
        return self._walk_ops(ops)

    def replay_counters(self):
        return dict(self.simulator.replay_counters)

    def program_replay_info(self, program):
        """Replay route + segmentation accounting for one program.

        ``engine`` is what :meth:`run_program` will use, as decided (and
        memoized) by the simulator itself: a ``"vectorized"`` plan needs
        a self-masked program (static per-replay accounting exists —
        ``self_masked``, read from the same memo, so this never re-walks
        the program) whose gate runs are narrow enough for lanes to pay;
        everything else replays through the op-by-op ``"reference"``.
        The remaining keys are the IR's
        :meth:`~repro.driver.program.MicroProgram.replay_summary`, so
        ``gate_ops``/``fallback_ops`` reflect what a vectorized replay
        fuses.
        """
        plan = self.simulator._plan(program)
        info = dict(program.replay_summary())
        info["engine"] = "reference" if plan.steps is None else "vectorized"
        info["self_masked"] = plan.static_stats is not None
        return info

    def _walk_ops(self, ops) -> SimStats:
        from repro.arch.masks import RangeMask
        from repro.sim.simulator import accounting_walk

        return accounting_walk(
            ops,
            self.config,
            self.simulator.move_cost,
            xb=RangeMask.all(self.config.crossbars),
            row=RangeMask.all(self.config.rows),
            strict=True,
        )

    # ------------------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        return self.simulator.memory.words

    @property
    def stats(self) -> SimStats:
        return self.simulator.stats

    @property
    def cache_hits(self) -> int:
        """Hits across both driver cache tiers (bodies + streams)."""
        return self.driver.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.driver.programs.misses + self.driver.streams.misses

    @property
    def cache_evictions(self) -> int:
        return self.driver.programs.evictions + self.driver.streams.evictions

    def persist_counters(self):
        if self.driver.persist is None:
            return {}
        return self.driver.persist.counters()
