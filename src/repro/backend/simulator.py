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
    ``cache_size``, ``guard``).
    """

    name = "simulator"

    def __init__(self, config: PIMConfig, **driver_kwargs):
        super().__init__(config)
        self.simulator = Simulator(config)
        self.driver = self.lowering = Driver(self.simulator, **driver_kwargs)

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

    def _stream_program(self, instructions: Sequence[Instruction], name: str):
        """A pool shard's part of a stream: the driver's plan for it."""
        return self.driver.stream_program(instructions, name)

    def program_stats(self, program) -> SimStats:
        """A copy of the bill a fused ``MicroProgram`` carries — exactly
        what ``execute_program`` charges for self-masked fused streams."""
        return program.bill(self.config).copy()

    def replay_counters(self):
        return dict(self.simulator.replay_counters)

    def program_replay_info(self, program):
        """Replay route + segmentation accounting for one program.

        ``engine`` is what :meth:`run_program` will use, as decided (and
        memoized) by the simulator itself: a ``"vectorized"`` plan needs
        a program whose carried bill holds from any mask state
        (``self_masked``); everything else replays through the op-by-op
        ``"reference"``. ``plan`` is the plan itself, summarized per gate
        run (:meth:`repro.sim.replay.GateRun.summary` /
        :meth:`~repro.sim.replay.PlaneRun.summary`, with its
        ``"layout"`` and the layout rule's input, ``"gates_per_plane"`` or
        ``"gates_per_plane_at_most"``; ``None`` on the reference route),
        ``plan_source`` (``"derived"``, or ``"loaded"`` from an entry) and
        ``plan_build_ms`` what this process paid for it (``ReplayPlan``).
        The remaining keys are the IR's
        :meth:`~repro.driver.program.MicroProgram.replay_summary`.
        """
        plan = self.simulator._plan(program)
        info = dict(program.replay_summary())
        info["engine"] = "reference" if plan.steps is None else "vectorized"
        info["self_masked"] = plan.static_stats is not None
        info["plan"] = None if plan.steps is None else [
            step.summary() for step in plan.steps if type(step) is not tuple
        ]
        info["plan_source"] = plan.source
        info["plan_build_ms"] = plan.build_ms
        return info

    # ------------------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        return self.simulator.memory.words

    @property
    def stats(self) -> SimStats:
        return self.simulator.stats
