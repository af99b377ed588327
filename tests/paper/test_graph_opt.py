"""Graph-optimizer benchmark: ``pim.compile(opt_level=...)`` cycle savings.

The acceptance criteria enforced here (the PR's headline claims):

1. **>= 10% cycle reduction** — on the naive linear-regression gradient
   workload (the recompute-the-residual pattern ``linear_regression.py``'s
   math invites), the highest optimization level must replay in at least
   10% fewer PIM cycles than the verbatim level-0 program.
2. **Bit-identical outputs** — on *both* backends, every optimized
   capture and replay returns exactly the eager results (raw bits), and
   both backends report identical cycle totals at every level.
3. **Smaller working set** — level 3's register reuse must reserve fewer
   crossbar cells than level 0 (dead temporaries return to the
   allocator).

Every level's replay cycles, reserved cells and pass counts are
deterministic and pinned (:data:`SURVEY`).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pim as pim

CROSSBARS, ROWS, N = 4, 64, 256

#: opt_level -> (replay cycles per call, reserved cells, nonzero pass
#: counts) on the simulator backend.
SURVEY = {
    0: (91_729, 24, {}),
    1: (91_577, 24, {}),
    2: (72_049, 18, {"cse_dropped": 1, "dce_dropped": 3, "folded": 1}),
    3: (72_049, 16, {"cse_dropped": 1, "dce_dropped": 3, "folded": 1,
                     "registers_reused": 1}),
}


def grad_terms(x, y):
    """One naive gradient evaluation for ``pred = x * y + x``.

    Written the way example code drifts into being: the shared ``x * y``
    product is recomputed for the residual term, a constant-only
    subgraph computes the ``2/n``-style scale factor on-device, and a
    leftover debugging temporary is computed but never used. The
    optimizer must find all three (CSE, constant folding, dead-temporary
    elimination) without changing a single observable bit.
    """
    _ = x - y                                              # dead temporary
    scale = pim.full(len(x), 0.5, dtype=pim.float32) * 4.0  # folds to 2.0
    pred = x * y + x
    resid = x * y - x          # recomputed product: the CSE victim
    return pred, (resid * scale).sum()


def _inputs():
    rng = np.random.default_rng(7)
    x = (rng.uniform(-1, 1, N) * 4).astype(np.float32)
    y = (rng.uniform(0.5, 1.5, N)).astype(np.float32)
    return x, y


def _fresh(backend: str):
    device = pim.init(crossbars=CROSSBARS, rows=ROWS, backend=backend)
    x_h, y_h = _inputs()
    return device, pim.from_numpy(x_h), pim.from_numpy(y_h)


@pytest.fixture(autouse=True)
def _reset():
    yield
    pim.reset()


def _eager_reference():
    device, x, y = _fresh("simulator")
    before = device.stats_snapshot()
    pred, total = grad_terms(x, y)
    cycles = device.backend.stats.diff(before).cycles
    bits = pred.to_numpy().view(np.uint32).copy()
    scalar = np.float32(float(total)).view(np.uint32)
    pim.reset()
    return bits, scalar, cycles


def _compiled_replay(backend: str, level: int):
    """(output bits, scalar bits, replay cycles, reserved cells, report)."""
    device, x, y = _fresh(backend)
    func = pim.compile(grad_terms, opt_level=level)
    pred, total = func(x, y)  # capture
    capture_bits = pred.to_numpy().view(np.uint32).copy()
    capture_scalar = np.float32(float(total)).view(np.uint32)
    before = device.stats_snapshot()
    pred, total = func(x, y)  # replay
    cycles = device.backend.stats.diff(before).cycles
    bits = pred.to_numpy().view(np.uint32).copy()
    scalar = np.float32(float(total)).view(np.uint32)
    assert np.array_equal(bits, capture_bits)
    assert scalar == capture_scalar
    entry = next(iter(func._cache.values()))
    reserved = len(entry.reserved)
    report = func.opt_report(x, y)
    pim.reset()
    return bits, scalar, cycles, reserved, report


def test_graph_opt_acceptance():
    """>= 10% cycles saved at the highest level, bit-identical outputs
    on both backends, matching cross-backend cycle totals."""
    ref_bits, ref_scalar, eager_cycles = _eager_reference()

    cycles = {}
    reserved = {}
    for backend in ("simulator", "numpy"):
        for level in (0, pim.OPT_LEVEL_MAX):
            bits, scalar, spent, cells, _ = _compiled_replay(backend, level)
            assert np.array_equal(bits, ref_bits), (backend, level)
            assert scalar == ref_scalar, (backend, level)
            cycles[(backend, level)] = spent
            reserved[(backend, level)] = cells

    # Level 0 replay is cycle-exact with eager mode; the two backends
    # agree at every level.
    assert cycles[("simulator", 0)] == eager_cycles
    for level in (0, pim.OPT_LEVEL_MAX):
        assert cycles[("simulator", level)] == cycles[("numpy", level)]

    saved = 1.0 - cycles[("simulator", pim.OPT_LEVEL_MAX)] / cycles[
        ("simulator", 0)
    ]
    assert saved >= 0.10, f"cycle reduction {saved:.1%} < 10%"
    assert (
        reserved[("simulator", pim.OPT_LEVEL_MAX)] < reserved[("simulator", 0)]
    ), "register reuse did not shrink the reservation"


def test_graph_opt_level_survey():
    """Every level on the simulator backend: bit-identical to eager, and
    its cycles, reserved cells and pass counts as pinned."""
    ref_bits, ref_scalar, _ = _eager_reference()
    assert sorted(pim.OPT_LEVELS) == sorted(SURVEY)
    for level in pim.OPT_LEVELS:
        bits, scalar, cycles, cells, report = _compiled_replay(
            "simulator", level
        )
        assert np.array_equal(bits, ref_bits)
        assert scalar == ref_scalar
        passes = {k: v for k, v in (report.passes if report else {}).items() if v}
        assert (cycles, cells, passes) == SURVEY[level], level
