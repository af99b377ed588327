"""Fixtures shared by the replay test modules."""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.sim import replay


def _grad_terms(x, y):
    """``bench``'s ``session_warm`` function: a dead temporary, a constant
    subgraph and a recomputed product for the O3 optimizer."""
    _ = x - y
    scale = pim.full(len(x), 0.5, dtype=pim.float32, device=x.device) * 4.0
    pred = x * y + x
    resid = x * y - x
    return pred, (resid * scale).sum()


@pytest.fixture(scope="session")
def session_plan():
    """The ``session_warm`` program (``_grad_terms`` at O3, 4x16, n=64),
    its config, and the run record of each of its gate super-steps (word
    and plane runs, as ``replay._gate_runs`` makes them for its plan)."""
    config = PIMConfig(crossbars=4, rows=16)
    device = pim.PIMDevice(config, backend="simulator")
    rng = np.random.default_rng(3)
    x, y = (pim.from_numpy(rng.uniform(0.5, 2.0, 64).astype(np.float32),
                           device=device) for _ in range(2))
    func = pim.CompiledFunction(_grad_terms, device=device, opt_level=3)
    func(x, y)
    program = func._entry_for((x, y)).program
    sim = device.backend.simulator
    columns = replay.plan_columns(program, config, dict(sim._plane_bodies.items()))
    runs = list(replay._gate_runs(columns, program, config, sim.memory, sim._plane_bodies))
    device.close()
    return program, config, runs
