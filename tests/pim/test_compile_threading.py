"""Thread-safety regression test: one CompiledFunction, many threads.

User threads may share one device and call the same compiled function
(the serving layer does not: :mod:`repro.serve` runs every batch on the
event loop's thread), so ``CompiledFunction.__call__`` and the driver's
two program-cache tiers must tolerate concurrent callers.  The hazards
this hammers:

- the capture race: N threads hit a cold CompiledFunction at once; the
  signature must be captured exactly once, everyone else replays;
- the driver cache tiers: concurrent compiles/lookups must keep the LRU
  dict consistent (no lost entries, no double-count drift);
- result integrity: every thread's scalar result must be bit-identical
  to the single-threaded golden value for its inputs.

Failures here historically present as rare ``KeyError``/``RuntimeError``
flakes or silently wrong results, so the test runs enough iterations to
make a race likely while staying fast on the small geometry.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.pim as pim


# 5 threads x 2 resident input tensors leaves headroom in the 16 user
# registers of the small geometry for the captured graph's intermediates.
THREADS = 5
CALLS_PER_THREAD = 12


@pytest.fixture(autouse=True)
def _cleanup():
    yield
    pim.reset()


def model(a, b):
    z = a * b + a
    return z[::2].sum()


def _inputs(seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(-50, 50, 32).astype(np.int32),
            rng.integers(-50, 50, 32).astype(np.int32))


def _golden(a, b):
    z = a.astype(np.int64) * b + a
    return int(np.int32(z[::2].sum()))


def test_many_threads_one_compiled_function():
    device = pim.init(crossbars=4, rows=8, backend="simulator")
    func = pim.compile(model)

    # Tensors are created up front on the main thread: worker threads
    # only ever touch the device through func(), whose internal lock is
    # the synchronization point under test.
    tensors, goldens = [], []
    for index in range(THREADS):
        a, b = _inputs(seed=100 + index)
        tensors.append((pim.from_numpy(a), pim.from_numpy(b)))
        goldens.append(_golden(a, b))

    barrier = threading.Barrier(THREADS)
    failures = []

    def hammer(index):
        x, y = tensors[index]
        expected = goldens[index]
        barrier.wait()  # maximize contention on the capture race
        for turn in range(CALLS_PER_THREAD):
            try:
                result = func(x, y)
            except Exception as error:  # noqa: BLE001 - recorded for report
                failures.append((index, turn, repr(error)))
                return
            if int(result) != expected:
                failures.append((index, turn, f"{result} != {expected}"))
                return

    threads = [
        threading.Thread(target=hammer, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, failures
    # All threads share one signature: exactly one capture ever happens,
    # no matter how the race resolved.
    assert func.captures == 1
    assert func.cached_graphs == 1

    hits, misses, evictions = device.backend.cache_counters()
    # Capture compiled some bodies (misses); every later call replays the
    # compiled graph, so the counters stay sane rather than growing per
    # call. Exact values depend on the lowering, so assert shape only.
    assert misses > 0
    assert evictions == 0
    assert hits >= 0


def test_concurrent_distinct_signatures():
    """Two shapes racing: the per-signature entry table stays consistent."""
    pim.init(crossbars=4, rows=8, backend="simulator")
    func = pim.compile(model)

    cases = []
    for index, length in enumerate((16, 32) * 2):
        rng = np.random.default_rng(7 + index)
        a = rng.integers(-20, 20, length).astype(np.int32)
        b = rng.integers(-20, 20, length).astype(np.int32)
        cases.append((pim.from_numpy(a), pim.from_numpy(b), _golden(a, b)))

    barrier = threading.Barrier(len(cases))
    failures = []

    def run(case_index):
        x, y, expected = cases[case_index]
        barrier.wait()
        for _ in range(6):
            result = func(x, y)
            if int(result) != expected:
                failures.append((case_index, int(result), expected))
                return

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(len(cases))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, failures
    assert func.cached_graphs == 2  # one per shape
    assert func.captures == 2
