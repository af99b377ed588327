"""Graph capture/replay benchmark: ``pim.compile`` on the Figure-12 workload.

Three claims are enforced (the PR's acceptance criteria):

1. **Bit-accurate identity** — on the simulator backend, a compiled
   function's capture call *and* every cached replay produce exactly the
   eager call's memory image, per-kind op counts, and PIM cycle total.
2. **Cross-backend equivalence** — the NumPy functional backend returns
   the same values and reports the same PIM cycles as the bit-accurate
   backend, eager and compiled alike.
3. **Replay speed** — cached graph replay beats eager dispatch by >= 3x
   wall-clock on the functional backend, where host dispatch cost (the
   thing ``pim.compile`` removes) is the bottleneck; the bit-accurate
   backend's speedup is reported alongside (its wall-clock is dominated
   by micro-op execution, which replay cannot skip).

The workload's cycles per call and its result are deterministic and
pinned (:data:`CYCLES_PER_CALL`, :data:`RESULT`); timings are printed
beside their floor.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.pim as pim

#: One ``my_func`` call on the inputs of ``_fresh``: its PIM cycles and
#: its result.
CYCLES_PER_CALL = 41_240
RESULT = 32.0


def my_func(a, b):
    """Figure 12's myFunc plus the strided reduction."""
    z = a * b + a
    return z[::2].sum()


def _fresh(backend: str, crossbars: int = 4, rows: int = 16, n: int = 64):
    device = pim.init(crossbars=crossbars, rows=rows, backend=backend)
    x = pim.zeros(n, dtype=pim.float32)
    y = pim.zeros(n, dtype=pim.float32)
    x[4], y[4] = 8.0, 0.5
    x[5], y[5] = 20.0, 1.0
    x[8], y[8] = 10.0, 1.0
    return device, x, y


@pytest.fixture(autouse=True)
def _reset():
    yield
    pim.reset()


def test_compiled_graph_is_bit_identical_to_eager():
    """Capture and every replay: same memory, same counters as eager."""
    device, x, y = _fresh("simulator")
    expected = my_func(x, y)
    before = device.stats_snapshot()
    assert my_func(x, y) == expected
    eager_delta = device.backend.stats.diff(before)
    eager_words = device.backend.words.copy()
    pim.reset()

    device, x, y = _fresh("simulator")
    func = pim.compile(my_func)
    before = device.stats_snapshot()
    assert func(x, y) == expected  # capture call
    capture_delta = device.backend.stats.diff(before)
    for _ in range(3):  # cached replays
        before = device.stats_snapshot()
        assert func(x, y) == expected
        replay_delta = device.backend.stats.diff(before)
        assert replay_delta.cycles == eager_delta.cycles
        assert replay_delta.op_counts == eager_delta.op_counts
        assert replay_delta.gates_executed == eager_delta.gates_executed
    assert capture_delta.cycles == eager_delta.cycles == CYCLES_PER_CALL
    assert np.array_equal(device.backend.words, eager_words)
    assert func.captures == 1
    assert expected == RESULT


def test_numpy_backend_matches_bit_accurate_cycles_and_results():
    """The functional backend: same values, same reported cycles."""
    device, x, y = _fresh("simulator")
    before = device.stats_snapshot()
    expected = my_func(x, y)
    sim_delta = device.backend.stats.diff(before)
    pim.reset()

    device, x, y = _fresh("numpy")
    before = device.stats_snapshot()
    eager = my_func(x, y)
    np_delta = device.backend.stats.diff(before)
    assert eager == expected
    assert np_delta.cycles == sim_delta.cycles
    assert np_delta.op_counts == sim_delta.op_counts

    func = pim.compile(my_func)
    assert func(x, y) == expected  # capture
    before = device.stats_snapshot()
    assert func(x, y) == expected  # replay
    replay_delta = device.backend.stats.diff(before)
    assert replay_delta.cycles == sim_delta.cycles == CYCLES_PER_CALL
    assert expected == RESULT


def _time_modes(backend: str, crossbars: int, rows: int, n: int, reps: int):
    """(eager s/call, replay s/call, speedup) on a fresh device pair."""
    device, x, y = _fresh(backend, crossbars, rows, n)
    my_func(x, y)  # warm caches outside the timed region
    start = time.perf_counter()
    for _ in range(reps):
        my_func(x, y)
    eager = (time.perf_counter() - start) / reps

    func = pim.compile(my_func)
    func(x, y)  # capture
    func(x, y)  # first replay builds the backend's replay plan
    start = time.perf_counter()
    for _ in range(reps):
        func(x, y)
    replay = (time.perf_counter() - start) / reps
    return eager, replay


def test_graph_replay_acceptance_speedup():
    """The headline claim: cached replay >= 3x over eager dispatch.

    Measured on the functional backend, where eager wall-clock is the
    host dispatch cost the compiled path removes (on the bit-accurate
    backend both modes are bound by micro-op execution; see the survey
    row). Best-of-2 rounds for noise robustness.
    """
    best = 0.0
    for _ in range(2):
        eager, replay = _time_modes("numpy", 16, 256, 4096, reps=5)
        best = max(best, eager / replay)
        pim.reset()
    print(
        f"acceptance (numpy, 16x256, n=4096): eager {eager * 1e3:7.2f} ms  "
        f"replay {replay * 1e3:7.2f} ms  speedup {eager / replay:5.2f}x "
        f"(best-of-2 {best:5.2f}x, floor 3x)"
    )
    assert best >= 3.0, f"graph replay speedup {best:.2f}x < 3x"


def test_graph_replay_survey():
    """Non-gating survey rows across backends and geometries."""
    for backend, crossbars, rows, n, reps in [
        ("numpy", 4, 16, 64, 10),
        ("simulator", 4, 16, 64, 3),
    ]:
        eager, replay = _time_modes(backend, crossbars, rows, n, reps)
        print(
            f"survey {backend:<9} {crossbars:>3}x{rows:<5} n={n:<6} "
            f"eager {eager * 1e3:8.2f} ms  replay {replay * 1e3:8.2f} ms  "
            f"speedup {eager / replay:5.2f}x"
        )
        pim.reset()
