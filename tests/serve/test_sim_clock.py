"""The serving scheduler on the simulated clock: placement, replay, states.

:class:`~repro.serve.Server` runs every batch inline on the event loop's
thread, on the worker whose simulated clock frees first. What must hold:

- placement follows the simulated clocks, not host completion order — a
  stalled worker does not delay the next batch while another is free;
- a seeded run is reproducible: the same payloads, arrivals, deadline,
  retries and fault plan give equal ``ServerMetrics`` (``wall_s`` aside);
- under any interleaving of submits, injected faults and stalls, loop
  progress and ``close()``, every future resolves exactly once, none is
  pending after ``close()``, and the books match the outcomes.

The fault seed rotates with ``REPRO_FAULT_SEED``; Hypothesis draws the
state-machine runs (``--hypothesis-seed`` pins them).
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.arch.config import PIMConfig
from repro.faults import FaultPlan, WorkerFault, resolve_fault_seed
from repro.serve import (
    CompiledWorkload,
    DeadlineExceeded,
    Server,
    ServerClosed,
    serve_workload,
)


CONFIG = PIMConfig(crossbars=4, rows=16)
LENGTH = CONFIG.total_rows


def model(a, b):
    return a * b + a


def golden(a, b):
    return np.int32(a.astype(np.int64) * b + a)


def _payloads(count, seed=3):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(-1000, 1000, length).astype(np.int32),
         rng.integers(-1000, 1000, length).astype(np.int32))
        for length in (LENGTH, LENGTH // 2) * (count // 2)
    ]


def test_a_stalled_worker_does_not_delay_the_next_batch():
    # Request 1 holds worker 0 for a simulated second at no host cost;
    # requests 2 and 3 each find worker 1's clock earlier and run there.
    plan = FaultPlan(CONFIG, serve_stalls={1: 1.0})
    workload = CompiledWorkload(model)

    async def main():
        server = Server(workers=2, config=CONFIG, fault_plan=plan)
        await server.start()
        try:
            payload = _payloads(2)[0]
            for _ in range(3):
                await server.submit(workload, payload)
        finally:
            await server.close()
        return server.metrics()

    metrics = asyncio.run(main())
    stalled, free = metrics.worker_busy_s
    assert stalled > 1.0 and free < 1.0
    # Latencies: 1 s + s (the stall), s and 2 s (queued on worker 1).
    assert metrics.p50_latency_s < 1.0
    assert free == pytest.approx(2 * (stalled - 1.0))


def test_same_seed_same_metrics():
    seed = resolve_fault_seed(17)
    payloads = _payloads(40, seed=seed % 9973 + 1)
    arrivals = [index * 1e-5 for index in range(len(payloads))]

    def run():
        plan = FaultPlan(
            CONFIG, seed=seed, fail_every=7, stall_every=11, stall_s=2e-4,
        )
        # The budget fits one 1 ms retry backoff, not a stall queued
        # ahead of it: some retries deliver, some time out.
        results, metrics = serve_workload(
            CompiledWorkload(model), payloads, arrivals=arrivals,
            deadline=1.2e-3, retries=2, return_exceptions=True,
            workers=3, config=CONFIG, backend="numpy", fault_plan=plan,
        )
        for (a, b), result in zip(payloads, results):
            if not isinstance(result, DeadlineExceeded):
                np.testing.assert_array_equal(result, golden(a, b))
        return dataclasses.replace(metrics, wall_s=0.0)

    first = run()
    assert first.retries > 0, "the plan must inject faults"
    assert run() == first


class _Model:
    """``a * a + a`` in two signatures; a ``boom`` payload raises."""

    def __init__(self):
        # One per server: compiled handles are keyed on device identity.
        self.inner = CompiledWorkload(model)

    def signature(self, payload):
        return payload[0].shape

    def __call__(self, device, payload):
        a, boom = payload
        if boom:
            raise ValueError("workload error")
        return self.inner(device, (a, a))


class ServerMachine(RuleBasedStateMachine):
    """One 2-worker numpy ``Server`` driven one loop step at a time."""

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.plan = FaultPlan(CONFIG, seed=resolve_fault_seed())
        self.server = Server(workers=2, config=CONFIG, fault_plan=self.plan)
        self.loop.run_until_complete(self.server.start())
        self.workload = _Model()
        self.rng = np.random.default_rng(0)
        self.tasks = []  # (task, payload array)
        self.resolutions = Counter()
        # Submits start in creation order, so the n-th one created before
        # close() is the server's request n.
        self.accepted = 0
        self.closed = False

    def teardown(self):
        try:
            if not self.closed:
                self.drain()
                self.close()
            # Invariants are not run after teardown's own close().
            self.nothing_pending_after_close()
            self.books_match_outcomes()
        finally:
            self.loop.close()

    def _settle(self):
        # One thread: whatever can resolve does so within a few passes
        # of the loop, so the timeout only bounds a hang.
        pending = [task for task, _ in self.tasks if not task.done()]
        if pending:
            self.loop.run_until_complete(asyncio.wait(pending, timeout=1.0))

    @rule(
        half=st.booleans(),
        arrival=st.integers(0, 8),
        deadline=st.sampled_from([None, 3e-5, 1e-4, 1e-3]),
        retries=st.integers(0, 2),
        fault=st.sampled_from([None, None, "boom", "fail", "stall"]),
    )
    def submit(self, half, arrival, deadline, retries, fault):
        length = LENGTH // 2 if half else LENGTH
        a = self.rng.integers(-1000, 1000, length).astype(np.int32)
        if not self.closed:
            self.accepted += 1
            if fault == "fail":
                self.plan.serve_failures |= {self.accepted}
            elif fault == "stall":
                self.plan.serve_stalls[self.accepted] = 5e-5
        task = self.loop.create_task(self.server.submit(
            self.workload, (a, fault == "boom"), arrival=arrival * 1e-5,
            deadline=deadline, retries=retries,
        ))
        task.add_done_callback(lambda done: self.resolutions.update([done]))
        self.tasks.append((task, a))
        if self.closed:
            self._settle()  # refused at once: ServerClosed

    @rule(steps=st.integers(1, 4))
    def step(self, steps):
        for _ in range(steps):
            self.loop.run_until_complete(asyncio.sleep(0))

    @precondition(lambda self: not self.closed)
    @rule()
    def drain(self):
        self._settle()
        assert all(task.done() for task, _ in self.tasks), "a request hangs"

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        self.loop.run_until_complete(self.server.close())
        self.closed = True
        self._settle()

    @invariant()
    def each_future_resolves_at_most_once(self):
        assert all(count == 1 for count in self.resolutions.values())

    @invariant()
    def nothing_pending_after_close(self):
        if self.closed:
            assert all(task.done() for task, _ in self.tasks)

    @invariant()
    def books_match_outcomes(self):
        if not all(task.done() for task, _ in self.tasks):
            return
        outcomes = Counter()
        for task, a in self.tasks:
            error = task.exception()
            if error is None:
                np.testing.assert_array_equal(task.result(), golden(a, a))
                outcomes["served"] += 1
            elif isinstance(error, (ValueError, WorkerFault)):
                outcomes["served"] += 1
            elif isinstance(error, DeadlineExceeded):
                outcomes["timeouts"] += 1
            else:
                assert isinstance(error, ServerClosed), repr(error)
                assert self.closed
        metrics = self.server.metrics()
        assert metrics.timeouts == outcomes["timeouts"]
        assert metrics.requests == outcomes["served"] + outcomes["timeouts"]


ServerMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServerStateMachine = ServerMachine.TestCase
