"""Vectorized simulator replay benchmark: the Figure-12 survey workload.

The PR-4 acceptance criteria, enforced here:

1. **Identity** — at every ``opt_level`` vectorized replay leaves the
   same memory image and :class:`~repro.sim.stats.SimStats` on a cached
   device and on a ``cache_size=0`` device; at ``opt_level=0`` both
   additionally reproduce the memory image and cycle totals of the
   op-by-op reference exactly (eager on the ``cache_size=0`` device:
   every macro lowered and executed one micro-op at a time — replay
   *is* that stream).
2. **Replay speed** — on the bit-accurate simulator backend, cached
   vectorized replay beats the op-by-op reference by >= 5x wall-clock.
   (Cached eager dispatch is itself vectorized, one plan per macro, so
   it is surveyed but no longer the baseline of the floor.)
3. **Layout rule** — narrow eager bodies dense enough for bit-planes
   replay them, >= 1.3x faster than with every run forced to word lanes,
   with the same memory image and stats.
4. **Fusion** — those plane bodies, each INIT1 folded into the gate
   consuming it, replay >= 1.2x faster than unfused, same image and stats.

Timings (reference vs eager vs vectorized-replay survey, plus a
``word_size=64`` row) are printed beside their floors; the workload's
segmentation is deterministic and pinned.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.backend.base import family
from repro.driver.program import MicroProgram
from repro.sim import replay
from repro.sim.simulator import Simulator


def my_func(a, b):
    """Figure 12's myFunc plus the strided reduction."""
    z = a * b + a
    return z[::2].sum()


def _fresh(crossbars: int = 4, rows: int = 16, n: int = 64, **backend_kwargs):
    """A device with the Figure-12 inputs; ``cache_size=0`` makes it the
    op-by-op reference (no plans: every macro lowered and forwarded)."""
    device = pim.init(
        crossbars=crossbars, rows=rows, backend="simulator", **backend_kwargs
    )
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


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
def test_engines_are_bit_identical(opt_level):
    """Cached vs cache_size=0: same memory image, same stats, every level;
    level-0 replay is the op-by-op reference stream."""
    device, x, y = _fresh(cache_size=0)
    eager_before = device.stats_snapshot()
    expected = my_func(x, y)
    eager_delta = device.backend.stats.diff(eager_before)
    eager_words = device.backend.words.copy()
    assert family(device.backend.counters(), "emit")["stream"] == 0  # all lowered
    pim.reset()

    images = {}
    stats = {}
    for leg, kwargs in (("cached", {}), ("uncached", {"cache_size": 0})):
        device, x, y = _fresh(**kwargs)
        func = pim.compile(my_func, opt_level=opt_level)
        assert func(x, y) == expected  # capture
        before = device.stats_snapshot()
        assert func(x, y) == expected  # replay (builds the plan)
        assert func(x, y) == expected  # steady-state replay
        counters = family(device.backend.counters(), "replay")
        assert counters["vectorized"] >= 2 and counters["reference"] == 0
        images[leg] = device.backend.words.copy()
        stats[leg] = device.backend.stats.diff(before)
        if opt_level == 0:
            assert np.array_equal(images[leg], eager_words), leg
            assert stats[leg].cycles == 2 * eager_delta.cycles, leg
        pim.reset()
    assert np.array_equal(images["cached"], images["uncached"])
    assert stats["cached"] == stats["uncached"]


def _time_eager(crossbars: int, rows: int, n: int, reps: int, **backend_kwargs):
    """Eager s/call on a fresh device (``cache_size=0``: the reference)."""
    _, x, y = _fresh(crossbars, rows, n, **backend_kwargs)
    my_func(x, y)  # warm caches/imports outside the timed region
    start = time.perf_counter()
    for _ in range(reps):
        my_func(x, y)
    eager = (time.perf_counter() - start) / reps
    pim.reset()
    return eager


def _time_replay(crossbars: int, rows: int, n: int, reps: int):
    """Compiled steady-state replay s/call on a fresh device."""
    _, x, y = _fresh(crossbars, rows, n)
    func = pim.compile(my_func)
    func(x, y)  # capture
    func(x, y)  # first replay builds the replay plan
    start = time.perf_counter()
    for _ in range(reps):
        func(x, y)
    replay = (time.perf_counter() - start) / reps
    pim.reset()
    return replay


def test_vectorized_replay_floor():
    """The headline claim: vectorized replay >= 5x over the op-by-op
    reference on the bit-accurate backend."""
    best = 0.0
    for _ in range(2):
        reference = _time_eager(4, 16, 64, reps=2, cache_size=0)
        replay = _time_replay(4, 16, 64, reps=2)
        best = max(best, reference / replay)
    print(
        f"acceptance (simulator, 4x16, n=64): op-by-op reference "
        f"{reference * 1e3:8.2f} ms  vectorized replay {replay * 1e3:7.2f} ms  "
        f"speedup {reference / replay:5.2f}x (best-of-2 {best:5.2f}x, floor 5x)"
    )
    assert best >= 5.0, f"vectorized replay speedup {best:.2f}x < 5x"


def test_replay_survey():
    """Non-gating survey: reference vs eager vs compiled-replay wall-clock."""
    for crossbars, rows, n, reps in [(4, 16, 64, 2), (8, 32, 256, 1)]:
        reference = _time_eager(crossbars, rows, n, reps, cache_size=0)
        eager = _time_eager(crossbars, rows, n, reps)
        replay = _time_replay(crossbars, rows, n, reps)
        print(
            f"survey {crossbars:>3}x{rows:<5} n={n:<6} "
            f"reference {reference * 1e3:9.2f} ms  eager {eager * 1e3:9.2f} ms "
            f"({reference / eager:5.2f}x)  replay {replay * 1e3:8.2f} ms "
            f"({reference / replay:5.2f}x)"
        )


def test_wide_word_survey():
    """``word_size=64`` survey row: the Figure-12 op stream, verbatim, on
    ``uint64`` words (a 64-partition chip accepts every 32-partition
    pattern) — op-by-op reference vs vectorized replay of one program,
    identity asserted on memory, stats and the read response."""
    _, x, y = _fresh()
    func = pim.compile(my_func)
    func(x, y)
    ops = func._entry_for((x, y)).program.ops
    config = PIMConfig(crossbars=4, rows=16, columns=2048, word_size=64)
    program = MicroProgram.from_ops(ops, "fig12.w64", config)
    reference, vectorized = Simulator(config), Simulator(config)
    reference.memory.words[...] = vectorized.memory.words[...] = (
        np.random.default_rng(0).integers(
            0, 1 << 64, size=reference.memory.words.shape, dtype=np.uint64
        )
    )
    start = time.perf_counter()
    expected = None
    for op in ops:
        result = reference.execute(op)
        expected = result if result is not None else expected
    reference_s = time.perf_counter() - start
    assert vectorized.execute_program(program) == expected  # builds the plan
    assert np.array_equal(vectorized.memory.words, reference.memory.words)
    assert vectorized.stats == reference.stats
    assert vectorized.replay_counters == {"vectorized": 1, "reference": 0}
    replay_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vectorized.execute_program(program)
        replay_s = min(replay_s, time.perf_counter() - start)
    print(
        f"survey   4x16    word_size=64 ({len(ops)} ops, uint64 lanes) "
        f"reference {reference_s * 1e3:9.2f} ms  replay "
        f"{replay_s * 1e3:8.2f} ms ({reference_s / replay_s:5.2f}x)"
    )


def test_wide_eager_floor():
    """64x1024, n=65,536: eager ``x*y + x`` replays its fp bodies as
    bit-planes, against the ``cache_size=0`` op-by-op reference — the
    same memory image and stats, and >= 2x wall-clock."""
    legs = {}
    for leg, kwargs in (("planned", {}), ("reference", {"cache_size": 0})):
        device, x, y = _fresh(64, 1024, 65_536, **kwargs)
        before = device.stats_snapshot()
        start = time.perf_counter()
        x * y + x  # the planned leg builds its plans here
        seconds = time.perf_counter() - start
        delta = device.backend.stats.diff(before)
        words = device.backend.words.copy()
        if leg == "planned":
            before = device.stats_snapshot()
            start = time.perf_counter()
            x * y + x
            seconds = time.perf_counter() - start
            assert device.backend.stats.diff(before) == delta
            assert family(device.backend.counters(), "replay")["reference"] == 0
            plans = device.backend.simulator._plans.values()
            assert {type(step).__name__ for plan in plans for step in plan.steps
                    if type(step) is not tuple} == {"PlaneRun"}
        legs[leg] = (seconds, words, delta)
        pim.reset()
    (planned, words, delta), (reference, ref_words, ref_delta) = (
        legs["planned"], legs["reference"]
    )
    assert np.array_equal(words, ref_words)
    assert delta == ref_delta
    print(
        f"wide eager (simulator, 64x1024, n=65536, x*y + x): op-by-op "
        f"reference {reference * 1e3:9.2f} ms  bit-plane replay "
        f"{planned * 1e3:8.2f} ms  speedup {reference / planned:5.2f}x (floor 2x)"
    )
    assert reference / planned >= 2.0, f"wide speedup {reference / planned:.2f}x < 2x"


def _eager_leg(reps: int, **patches):
    """Steady-state eager s/call at 4x16, n=64, with ``replay`` attributes
    set to ``patches``; the memory image, stats delta and run layouts
    after the timed calls."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in patches.items():
            patch.setattr(replay, name, value)
        device, x, y = _fresh()
        my_func(x, y)  # builds the gates and the plans
        before = device.stats_snapshot()
        start = time.perf_counter()
        for _ in range(reps):
            my_func(x, y)
        seconds = (time.perf_counter() - start) / reps
        delta = device.backend.stats.diff(before)
        words = device.backend.words.copy()
        layouts = {type(step).__name__ for plan in device.backend.simulator._plans.values()
                   for step in plan.steps or () if type(step) is not tuple}
        pim.reset()
    return seconds, words, delta, layouts


def test_narrow_eager_floor():
    """4x16, n=64: eager Figure-12 bodies of at most 64 lanes replay as
    bit-planes where dense enough — >= 1.3x over every run forced to word
    lanes (``MIN_GATES_PER_PLANE = inf``), same memory image and stats."""
    best = 0.0
    for _ in range(2):
        planes, words, delta, layouts = _eager_leg(4)
        forced, forced_words, forced_delta, forced_layouts = _eager_leg(
            4, MIN_GATES_PER_PLANE=float("inf"))
        assert np.array_equal(words, forced_words)
        assert delta == forced_delta
        assert "PlaneRun" in layouts and "PlaneRun" not in forced_layouts
        best = max(best, forced / planes)
    print(
        f"narrow eager (simulator, 4x16, n=64): word lanes forced "
        f"{forced * 1e3:8.2f} ms  density rule {planes * 1e3:8.2f} ms  "
        f"speedup {forced / planes:5.2f}x (best-of-2 {best:5.2f}x, floor 1.3x)"
    )
    assert best >= 1.3, f"narrow eager speedup {best:.2f}x < 1.3x"


def test_fused_eager_floor():
    """4x16, n=64: eager Figure-12 plane bodies with each INIT1 folded
    into the NOT or NOR consuming it — >= 1.2x over fusion switched off
    (``replay._fuse_init1`` the identity), same memory image and stats."""
    best = 0.0
    for _ in range(2):
        fused, words, delta, _ = _eager_leg(4)
        unfused, unfused_words, unfused_delta, _ = _eager_leg(
            4, _fuse_init1=lambda distinct, ids: (distinct, ids))
        assert np.array_equal(words, unfused_words)
        assert delta == unfused_delta
        best = max(best, unfused / fused)
    print(
        f"fused eager (simulator, 4x16, n=64): unfused {unfused * 1e3:8.2f} ms  "
        f"fused {fused * 1e3:8.2f} ms  speedup {unfused / fused:5.2f}x "
        f"(best-of-2 {best:5.2f}x, floor 1.2x)"
    )
    assert best >= 1.2, f"fused eager speedup {best:.2f}x < 1.2x"


def test_replay_info_reports_segmentation():
    """The compiled function exposes the route + super-step counts."""
    device, x, y = _fresh()
    func = pim.compile(my_func)
    func(x, y)
    info = func.replay_info(x, y)
    assert info["engine"] == "vectorized"
    assert info["self_masked"] is True
    assert info["gate_ops"] > 0.9 * info["ops"]
    segmentation = ("ops", "gate_runs", "gate_ops", "fallback_ops")
    assert {key: info[key] for key in segmentation} == {
        "ops": 41_237, "gate_runs": 92, "gate_ops": 40_951, "fallback_ops": 286,
    }
