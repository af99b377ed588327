"""The async batch-serving scheduler over a pool of worker devices.

:class:`Server` models the production front-end the ROADMAP's north star
asks for: many logical sessions submit work concurrently, an asyncio
scheduler coalesces compatible requests into batches, and each batch runs
on the worker device whose simulated clock frees first — each worker a
full :class:`~repro.pim.device.PIMDevice` replica (any backend, including
the pooled one). Compiled-program caches do the heavy lifting: a worker
that has already served a request signature replays the cached program,
and a server started with ``cache_dir=`` warm-starts every worker from
the cross-session :class:`~repro.driver.persist.PersistentProgramCache`.

Latency accounting runs on *simulated device time*: executing a request
costs ``cycles / frequency_hz`` seconds of its worker's clock, a request
starts at ``max(arrival, worker-free time)``, and the reported p50/p99
latencies and sustained requests/sec are computed on that clock. The
crossbars behind one host driver run in lockstep, so the scheduler
coroutine is the only executor: batches run inline on the event loop's
thread, placed by the simulated clocks alone, and a seeded run replays
the same batches, latencies and fault timeline every time. Wall-clock
time is reported alongside for the host-cost view.

Batching is by *signature affinity*: the scheduler drains whatever is
queued and groups requests whose workload and payload signature match,
so a batch replays one compiled program repeatedly on one worker
(maximum program-cache locality) instead of interleaving signatures
across workers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig
from repro.faults.plan import WorkerFault
from repro.pim.device import PIMDevice

#: Base of the exponential retry backoff: attempt ``n``'s re-arrival is
#: delayed ``RETRY_BACKOFF_S * 2**(n-1)`` simulated seconds after the
#: failed attempt.
RETRY_BACKOFF_S = 1e-3


class ServerClosed(RuntimeError):
    """The server was closed while (or before) the request could run.

    Raised by ``submit`` on a closed server, and set on every future
    still outstanding when :meth:`Server.close` tears the scheduler
    down — callers never hang on an abandoned future.
    """


class DeadlineExceeded(TimeoutError):
    """A request missed its deadline on the simulated device clock."""


def _signature_of(workload: Callable, payload: Any) -> Tuple:
    """The batching key: workload identity + payload shape/dtype."""
    custom = getattr(workload, "signature", None)
    if custom is not None:
        return (id(workload), custom(payload))
    if isinstance(payload, np.ndarray):
        return (id(workload), payload.shape, str(payload.dtype))
    if isinstance(payload, (tuple, list)):
        return (
            id(workload),
            tuple(
                (a.shape, str(a.dtype))
                if isinstance(a, np.ndarray)
                else (type(a).__name__, a)
                for a in payload
            ),
        )
    return (id(workload), type(payload).__name__)


@dataclass
class _Request:
    """One queued unit of work (a logical session's call)."""

    workload: Callable
    payload: Any
    arrival: float
    key: Tuple
    future: "asyncio.Future"
    seq: int = 0
    #: Original submit-time arrival; retries move ``arrival`` forward
    #: (backoff), but latency and the deadline stay anchored here.
    submitted: float = 0.0
    attempt: int = 0
    retries: int = 0
    deadline_at: Optional[float] = None


@dataclass
class _Worker:
    """One pool worker: a device replica plus its simulated clock."""

    index: int
    device: PIMDevice
    busy_until: float = 0.0
    busy_time: float = 0.0


@dataclass
class ServerMetrics:
    """Aggregated serving statistics (simulated-time unless noted)."""

    requests: int = 0
    batches: int = 0
    workers: int = 0
    sim_makespan_s: float = 0.0
    requests_per_sec: float = 0.0
    p50_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    worker_busy_s: Tuple[float, ...] = ()
    wall_s: float = 0.0
    timeouts: int = 0
    retries: int = 0
    failovers: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """The fields as a JSON-shaped dict (``worker_busy_s`` a list)."""
        return {**asdict(self), "worker_busy_s": list(self.worker_busy_s)}


class Server:
    """An asyncio batch scheduler over ``workers`` device replicas.

    The scheduler coroutine runs every batch itself, inline on the event
    loop's thread, on the worker whose simulated clock frees first (ties
    go to the lowest index), and yields to the loop between batches. No
    batch is ever in flight across an ``await``, so placement, latencies
    and injected faults depend only on the requests and the fault plan,
    never on host timing.

    Args:
        workers: pool size (device replicas, each its own backend).
        config: device geometry (defaults to a small test geometry).
        backend: backend name per worker (``"numpy"`` default — serving
            wants host speed; use ``"simulator"`` for bit-level audits or
            ``"pooled"`` to shard each replica further).
        batch_limit: maximum requests coalesced into one batch.
        fault_plan: an optional :class:`~repro.faults.plan.FaultPlan`
            whose serving-tier entries inject deterministic worker
            failures (``serve_failures`` / ``fail_every``) and stalls
            (``serve_stalls`` / ``stall_every``) keyed on request
            sequence number and attempt; failed attempts re-arrive after
            :data:`RETRY_BACKOFF_S`-based exponential backoff.
        **backend_kwargs: forwarded to every worker's backend
            (``cache_dir=...`` warm-starts all workers from one
            persistent program cache, ``parallelism``, ...).

    Usage::

        server = Server(workers=4)
        await server.start()
        result = await server.submit(workload, payload)
        ...
        await server.close()
        print(server.metrics().as_dict())
    """

    def __init__(
        self,
        workers: int = 4,
        config: Optional[PIMConfig] = None,
        backend: str = "numpy",
        batch_limit: int = 32,
        fault_plan=None,
        **backend_kwargs,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.config = config or PIMConfig(crossbars=4, rows=64)
        self.batch_limit = max(int(batch_limit), 1)
        self.workers = [
            _Worker(i, PIMDevice(self.config, backend=backend, **backend_kwargs))
            for i in range(workers)
        ]
        self._queue: "asyncio.Queue[_Request]" = None  # built in start()
        self._scheduler_task: Optional["asyncio.Task"] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        # One row per finished request (its latency is end - arrival).
        self._arrivals: List[float] = []
        self._ends: List[float] = []
        self._batches = 0
        self._wall_start: Optional[float] = None
        self._closed = False
        self._fault_plan = fault_plan
        self._seq = 0
        self._outstanding: set = set()
        self._timeouts = 0
        self._retries = 0
        self._failovers = 0

    # ------------------------------------------------------------------
    async def start(self) -> "Server":
        """Bind to the running event loop and start the scheduler."""
        from repro.pim import device as device_mod

        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._wall_start = time.perf_counter()
        self._scheduler_task = asyncio.ensure_future(self._scheduler())
        device_mod.register_reset_guard(self)
        return self

    @property
    def reset_guard_active(self) -> bool:
        """True while started and not closed (blocks ``pim.reset()``)."""
        return self._loop is not None and not self._closed

    @property
    def reset_guard_reason(self) -> str:
        return f"serve.Server ({len(self.workers)} workers)"

    async def submit(
        self,
        workload: Callable,
        payload: Any = None,
        arrival: float = 0.0,
        deadline: Optional[float] = None,
        retries: int = 0,
    ) -> Any:
        """Queue one request and await its result.

        ``workload(device, payload)`` runs on the event loop's thread,
        on the device of the worker whose simulated clock frees first;
        ``arrival`` is the request's simulated arrival time (seconds on
        the device clock — schedulers and benchmarks supply it, sessions
        submitting "now" can leave 0.0). An ``Exception`` it raises is
        delivered to the caller.

        ``deadline`` is a per-request budget in simulated seconds,
        measured from ``arrival``: a request that cannot finish inside
        it fails with :class:`DeadlineExceeded` (never retried — the
        budget is the contract). ``retries`` is the number of times a
        :class:`~repro.faults.plan.WorkerFault` re-queues the request
        with exponential backoff before the fault is delivered.
        """
        if self._loop is None:
            raise RuntimeError("Server.start() has not been awaited")
        if self._closed:
            raise ServerClosed("server is closed")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        future = self._loop.create_future()
        arrival = float(arrival)
        self._seq += 1
        request = _Request(
            workload,
            payload,
            arrival,
            _signature_of(workload, payload),
            future,
            seq=self._seq,
            submitted=arrival,
            retries=max(int(retries), 0),
            deadline_at=None if deadline is None else arrival + deadline,
        )
        self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        self._queue.put_nowait(request)
        return await future

    async def close(self) -> None:
        """Stop the scheduler and fail every request it has not served.

        The scheduler yields only between batches, so the batch that ran
        last has delivered; every request still queued (retries in their
        backoff window included) gets :class:`ServerClosed` set on its
        future so no caller hangs.
        """
        if self._closed:
            return
        self._closed = True
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
        for future in list(self._outstanding):
            _set_exception(future, ServerClosed("server closed with request outstanding"))

    # ------------------------------------------------------------------
    async def _scheduler(self) -> None:
        group_cap = self.batch_limit * len(self.workers)
        while True:
            request = await self._queue.get()
            group = [request]
            deferred: List[_Request] = []
            # Signature-affinity coalescing: take every queued request
            # with the same key (up to one full pool round), requeue the
            # rest. The queue is FIFO per signature, so per-session
            # ordering of identical calls is preserved.
            while len(group) < group_cap:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt.key == request.key:
                    group.append(nxt)
                else:
                    deferred.append(nxt)
            for item in deferred:
                self._queue.put_nowait(item)
            # Shard the group across the pool: one batch per worker (at
            # most ``batch_limit`` each), each on the worker whose clock
            # frees first — same-signature floods parallelize instead of
            # pinning one worker while the rest idle.
            chunks = min(len(self.workers), len(group))
            size = -(-len(group) // chunks)
            for offset in range(0, len(group), size):
                worker = min(self.workers, key=lambda w: w.busy_until)
                self._run_batch(worker, group[offset : offset + size])
                await asyncio.sleep(0)  # the served clients resume

    def _run_batch(self, worker: _Worker, batch: List[_Request]) -> None:
        """Execute one batch on one worker, inline on the loop's thread.

        Simulated-time bookkeeping: each request occupies the worker's
        clock for its measured device cycles plus any injected stall,
        from ``max(arrival, busy_until)``; its latency is the span from
        submission to completion on that clock. Each future is resolved
        as its request finishes, and a retry goes back on the queue.
        """
        device = worker.device
        plan = self._fault_plan
        self._batches += 1
        for request in batch:
            start = max(request.arrival, worker.busy_until)
            # Deadline fail-fast: if the worker's clock already puts the
            # start past the budget, don't burn device cycles at all.
            if request.deadline_at is not None and start >= request.deadline_at:
                self._finish_timeout(request)
                continue
            stall_s = 0.0
            if plan is not None:
                # Injected DMA/compile stall: simulated seconds added to
                # the request's duration, no device cycles.
                stall_s = plan.serve_stall_s(request.seq, request.attempt)
            cycles_before = device.backend.stats.cycles
            value = error = None
            if plan is not None and plan.serve_should_fail(
                request.seq, request.attempt
            ):
                error = WorkerFault(
                    f"injected serve fault (request {request.seq}, "
                    f"attempt {request.attempt})"
                )
            else:
                try:
                    value = request.workload(device, request.payload)
                except Exception as exc:  # delivered to the caller
                    error = exc
            cycles = device.backend.stats.cycles - cycles_before
            duration = cycles / self.config.frequency_hz + stall_s
            end = start + duration
            worker.busy_until = end
            worker.busy_time += duration
            if isinstance(error, WorkerFault) and request.attempt < request.retries:
                # Exponential backoff on the simulated clock: the retry
                # re-arrives after the failed attempt plus the backoff,
                # but its deadline stays anchored at the original
                # arrival — retries spend the same budget.
                backoff = RETRY_BACKOFF_S * (2.0 ** request.attempt)
                request.attempt += 1
                request.arrival = end + backoff
                self._retries += 1
                self._queue.put_nowait(request)
                continue
            if request.deadline_at is not None and end > request.deadline_at:
                self._finish_timeout(request)
                continue
            self._arrivals.append(request.submitted)
            self._ends.append(end)
            if error is not None:
                _set_exception(request.future, error)
            else:
                if request.attempt:
                    self._failovers += 1
                _set_result(request.future, value)

    def _finish_timeout(self, request: _Request) -> None:
        """Account and deliver a missed deadline (latency = the budget)."""
        self._timeouts += 1
        self._arrivals.append(request.submitted)
        self._ends.append(request.deadline_at)
        budget = request.deadline_at - request.submitted
        _set_exception(
            request.future,
            DeadlineExceeded(
                f"request {request.seq} missed its {budget:.6f}s deadline "
                f"(attempt {request.attempt})"
            ),
        )

    # ------------------------------------------------------------------
    def metrics(self) -> ServerMetrics:
        """Aggregate statistics over everything served so far."""
        latencies = np.subtract(self._ends, self._arrivals)
        count = len(latencies)
        makespan = (max(self._ends) - min(self._arrivals)) if count else 0.0
        wall = (
            time.perf_counter() - self._wall_start
            if self._wall_start is not None
            else 0.0
        )
        return ServerMetrics(
            requests=count,
            batches=self._batches,
            workers=len(self.workers),
            sim_makespan_s=makespan,
            requests_per_sec=(count / makespan) if makespan else 0.0,
            p50_latency_s=float(np.percentile(latencies, 50)) if count else 0.0,
            p99_latency_s=float(np.percentile(latencies, 99)) if count else 0.0,
            worker_busy_s=tuple(worker.busy_time for worker in self.workers),
            wall_s=wall,
            timeouts=self._timeouts,
            retries=self._retries,
            failovers=self._failovers,
        )


def _set_result(future: "asyncio.Future", value: Any) -> None:
    if not future.done():
        future.set_result(value)


def _set_exception(future: "asyncio.Future", error: BaseException) -> None:
    if not future.done():
        future.set_exception(error)


class CompiledWorkload:
    """Serve one traced tensor function across the pool's devices.

    Wraps a plain ``fn(*tensors) -> tensor`` into the server's
    ``workload(device, payload)`` shape: numpy payload arrays become
    device tensors, the call goes through a per-device
    :class:`~repro.pim.compile.CompiledFunction` (so every worker builds
    its signature cache once and replays afterwards), and the result
    returns as numpy. The per-device compiled handles live here, keyed
    by device identity.
    """

    def __init__(self, fn: Callable):
        self.fn = fn
        self._compiled: Dict[int, Any] = {}

    def _compiled_for(self, device: PIMDevice):
        from repro.pim.compile import CompiledFunction

        handle = self._compiled.get(id(device))
        if handle is None:
            handle = self._compiled[id(device)] = CompiledFunction(
                self.fn, device=device
            )
        return handle

    def signature(self, payload) -> Tuple:
        arrays = payload if isinstance(payload, (tuple, list)) else (payload,)
        return tuple(
            (a.shape, str(a.dtype)) if isinstance(a, np.ndarray) else repr(a)
            for a in arrays
        )

    def __call__(self, device: PIMDevice, payload) -> np.ndarray:
        from repro.pim.functional import from_numpy, to_numpy

        handle = self._compiled_for(device)
        arrays = payload if isinstance(payload, (tuple, list)) else (payload,)
        tensors = [from_numpy(array, device=device) for array in arrays]
        out = handle(*tensors)
        return to_numpy(out)


def serve_workload(
    workload: Callable,
    payloads: Sequence[Any],
    arrivals: Optional[Sequence[float]] = None,
    deadline: Optional[float] = None,
    retries: int = 0,
    return_exceptions: bool = False,
    **server_kwargs,
) -> Tuple[List[Any], ServerMetrics]:
    """Serve a payload list to completion and return (results, metrics).

    The synchronous convenience wrapper tests, benchmarks, and the CLI
    use: builds a :class:`Server`, submits every payload concurrently
    (``arrivals[i]`` on the simulated clock, default all-at-once), and
    tears the server down. Results keep submission order.

    ``deadline`` and ``retries`` apply per request (see
    :meth:`Server.submit`). With ``return_exceptions=True`` a failed
    request's exception (e.g. :class:`DeadlineExceeded`) is returned in
    its result slot instead of aborting the run — the chaos benchmarks
    use this to assert zero requests are *lost* even when some fail.
    """
    if arrivals is None:
        arrivals = [0.0] * len(payloads)
    if len(arrivals) != len(payloads):
        raise ValueError("arrivals and payloads must have equal length")

    async def _main():
        server = Server(**server_kwargs)
        await server.start()
        try:
            tasks = [
                asyncio.ensure_future(
                    server.submit(
                        workload,
                        payload,
                        arrival=arrival,
                        deadline=deadline,
                        retries=retries,
                    )
                )
                for payload, arrival in zip(payloads, arrivals)
            ]
            results = await asyncio.gather(
                *tasks, return_exceptions=return_exceptions
            )
        finally:
            await server.close()
        return list(results), server.metrics()

    return asyncio.run(_main())
