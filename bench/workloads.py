"""The seven benchmark workloads (why each exists: ``bench/README.md``).

A workload builds its device and seeded inputs in :meth:`Workload.setup`
(warm-up included, unless the workload *is* the cold path), then
:meth:`Workload.run` repeats its op for a fixed number of seconds. Every
op's output is verified against host NumPy between ops, outside the
per-op timed interval. The stack is driven through its public entry
points only (``repro.pim``, ``repro.serve``, ``repro.driver``).
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.driver import BufferSink, Driver, MacroStream
from repro.isa.instructions import RInstr, ROp
from repro.pim.linalg import Matrix, dot
from repro.serve import CompiledWorkload, Server
from repro.theory import theoretical_cycles

from bench.calibrate import slowdown

#: Relative tolerance of a float32 reduction against its float64
#: reference, as a share of the sum of the terms' magnitudes.
REDUCTION_RTOL = 1e-5

#: Cumulative counters every workload snapshots around its timed loop.
COUNTER_KEYS = (
    "cycles", "micro_ops", "theory_cycles", "cache_hits", "cache_misses",
    "cache_evictions", "emit_stream", "emit_macro", "replay_vectorized",
    "replay_thunk", "persist_loads", "persist_stores", "persist_invalid",
)


def backend_counters(backend) -> Dict[str, int]:
    """One backend's cumulative counters, through the Backend protocol."""
    stats = backend.stats
    hits, misses, evictions = backend.cache_counters()
    emit = backend.emit_counters()
    replay = backend.replay_counters()
    persist = backend.persist_counters()
    return {
        "cycles": stats.cycles,
        "micro_ops": stats.micro_ops,
        "theory_cycles": theoretical_cycles(stats),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_evictions": evictions,
        "emit_stream": emit.get("stream", 0),
        "emit_macro": emit.get("macro", 0),
        "replay_vectorized": replay.get("vectorized", 0),
        "replay_thunk": replay.get("thunk", 0),
        "persist_loads": persist.get("loads", 0),
        "persist_stores": persist.get("stores", 0),
        "persist_invalid": persist.get("invalid", 0),
    }


def add_counters(total: Dict[str, int], part: Dict[str, int]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def fig12_func(a, b):
    """Figure 12's ``myFunc`` plus the strided reduction."""
    z = a * b + a
    return z[::2].sum()


def grad_terms(x, y):
    """The naive gradient evaluation of ``benchmarks/test_graph_opt.py``:
    a dead temporary, a constant-only subgraph and a recomputed product
    for the optimizer to find."""
    _ = x - y
    scale = pim.full(len(x), 0.5, dtype=pim.float32, device=x.device) * 4.0
    pred = x * y + x
    resid = x * y - x
    return pred, (resid * scale).sum()


def serve_int_model(a, b):
    return a * b + a


def serve_grad_model(x, y):
    pred = x * y + x
    resid = x * y - x
    return pred * resid


def float_pair(rng, n):
    x = (rng.uniform(-1, 1, n) * 4).astype(np.float32)
    y = rng.uniform(0.5, 1.5, n).astype(np.float32)
    return x, y


def reduction_error(value: float, terms: np.ndarray) -> Optional[str]:
    """Compare a float32 on-device sum with the float64 sum of ``terms``."""
    terms = terms.astype(np.float64)
    reference = float(terms.sum())
    budget = REDUCTION_RTOL * float(np.abs(terms).sum()) + 1e-30
    if not abs(float(value) - reference) <= budget:
        return f"reduction {value!r} differs from reference {reference!r}"
    return None


class RunLog:
    """What one timed loop produced."""

    def __init__(self):
        self.latencies: List[float] = []
        self.failed = 0
        self.errors: List[str] = []
        #: Machine slowdown factor that applies to each op (the mean of
        #: the calibration bursts before and after its segment).
        self.slowdown: List[float] = []
        #: Wall seconds the ops took (serial loops: the sum of the op
        #: intervals; the serving loop: the sum of its segments), raw and
        #: at the reference machine speed.
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0

    def close_segment(self, first_op: int, wall_s: float, factor: float) -> None:
        self.slowdown.extend([factor] * (len(self.latencies) - first_op))
        self.wall_s += wall_s
        self.scaled_wall_s += wall_s / factor

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """Base class: a serial closed loop of one op, verified between ops."""

    name = ""
    #: Percentile reported as ``call_ms_tail``: the highest one that
    #: keeps about ten samples beyond it at this workload's op rate.
    tail_pct = 90.0
    #: Layer that owns the op's own span (what the op body is made of).
    root_layer = "pim"
    config = PIMConfig()
    #: Length of one segment of the timed loop.
    segment_s = 0.1

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])
        #: Exact values the determinism guard must find, by metric name.
        self.expect_exact: Dict[str, float] = {}
        self._first: Dict[Any, Any] = {}

    # -- to implement ----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result) -> Optional[str]:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        raise NotImplementedError

    def before_op(self, index: int) -> None:
        """Untimed preparation of one op."""

    def after_op(self, index: int) -> None:
        """Untimed clean-up of one op."""

    def teardown(self) -> None:
        """Release what setup built."""

    def layer_extras(self, tracer, log: RunLog) -> Dict[str, float]:
        """Workload-specific per-layer metrics of the traced pass."""
        return {}

    # -- shared ----------------------------------------------------------
    def repeats_exactly(self, key, value) -> Optional[str]:
        """Identical inputs must give bit-identical outputs every time."""
        first = self._first.setdefault(key, value)
        same = (
            np.array_equal(first, value)
            if isinstance(value, np.ndarray)
            else first == value
        )
        if not same:
            return f"input {key!r} gave {value!r}, earlier {first!r}"
        return None

    def run(self, seconds: float, tracer=None) -> RunLog:
        """The timed loop: segments of ops with a machine-speed
        calibration burst (``bench/calibrate.py``) between them."""
        log = RunLog()
        self.start_run(log, tracer)
        deadline = perf_counter() + seconds
        before = slowdown()
        while perf_counter() < deadline:
            first_op = len(log.latencies)
            wall_s = self.run_segment(log, tracer)
            after = slowdown()
            log.close_segment(first_op, wall_s, (before + after) / 2)
            before = after
        self.finish_run(log)
        return log

    def start_run(self, log: RunLog, tracer) -> None:
        """Before the first segment."""

    def finish_run(self, log: RunLog) -> None:
        """After the last segment (deferred verification)."""

    def run_segment(self, log: RunLog, tracer) -> float:
        """Ops back to back for ``segment_s``; returns their wall seconds."""
        first_op = len(log.latencies)
        segment_end = perf_counter() + self.segment_s
        while True:
            self.timed_op(len(log.latencies), log, tracer)
            if perf_counter() >= segment_end:
                break
        return sum(log.latencies[first_op:])

    def timed_op(self, index: int, log: RunLog, tracer) -> None:
        self.before_op(index)
        frame = (
            tracer.begin("op", self.root_layer, op_id=index)
            if tracer is not None else None
        )
        error = None
        start = perf_counter()
        try:
            result = self.op(index)
        except Exception as exc:  # counted, reported, never hidden
            result, error = None, f"op {index} raised {exc!r}"
        end = perf_counter()
        if frame is not None:
            tracer.end(frame)
        log.latencies.append(end - start)
        if error is None:
            try:
                error = self.check(index, result)
            except Exception as exc:
                error = f"check of op {index} raised {exc!r}"
        if error is not None:
            log.fail(error)
        self.after_op(index)


class DeviceWorkload(Workload):
    """A workload on one long-lived device."""

    backend = "simulator"

    def make_device(self):
        return pim.PIMDevice(self.config, backend=self.backend)

    def counters(self) -> Dict[str, int]:
        return backend_counters(self.device.backend)

    def teardown(self) -> None:
        self.device.close()


class Fig12EagerSim(DeviceWorkload):
    name = "fig12_eager_sim"
    config = PIMConfig(crossbars=4, rows=16)
    length = 64
    pairs = 2

    def setup(self) -> None:
        self.device = self.make_device()
        self.host = [float_pair(self.rng, self.length) for _ in range(self.pairs)]
        self.tensors = [
            (pim.from_numpy(x, device=self.device),
             pim.from_numpy(y, device=self.device))
            for x, y in self.host
        ]
        self.call = self.build_call()
        for pair in self.tensors:  # builds gates, fills the driver caches
            self.call(*pair)
        self.call(*self.tensors[0])  # compiled: first replay builds the plan

    def build_call(self):
        return fig12_func

    def op(self, index: int):
        return self.call(*self.tensors[index % self.pairs])

    def check(self, index: int, result) -> Optional[str]:
        pair = index % self.pairs
        x, y = self.host[pair]
        return (
            reduction_error(result, (x * y + x)[::2])
            or self.repeats_exactly(pair, result)
        )


class Fig12ReplaySim(Fig12EagerSim):
    name = "fig12_replay_sim"
    config = PIMConfig(crossbars=8, rows=32)
    length = 256

    def build_call(self):
        # The repo's cycle-identity contract: an O0 replay bills exactly
        # the cycles of one eager call at the same geometry.
        before = self.device.backend.stats.cycles
        fig12_func(*self.tensors[0])
        self.expect_exact["sim_cycles_per_call"] = float(
            self.device.backend.stats.cycles - before
        )
        self.compiled = pim.compile(fig12_func, device=self.device)
        return self.compiled

    def layer_extras(self, tracer, log: RunLog) -> Dict[str, float]:
        info = self.compiled.replay_info(*self.tensors[0])
        extras = {
            "sim.fused_op_frac": info["gate_ops"] / info["ops"],
            "sim.fallback_ops": float(info["fallback_ops"]),
        }
        # Cost of checksum verification on this program: the same
        # function compiled with verify="checksum", against the plain one.
        verified = pim.compile(fig12_func, device=self.device, verify="checksum")
        pair = self.tensors[0]
        for _ in range(3):
            verified(*pair)
        plain_s, verified_s = [], []
        for turn in range(16):  # alternate the order: drift hits both alike
            for call, samples in (
                (self.compiled, plain_s), (verified, verified_s)
            )[:: 1 if turn % 2 else -1]:
                start = perf_counter()
                call(*pair)
                samples.append(perf_counter() - start)
        extras["faults.verify_ms_per_call"] = 1e3 * float(
            np.median(verified_s) - np.median(plain_s)
        )
        return extras


class LinregEagerNumpy(DeviceWorkload):
    name = "linreg_eager_numpy"
    backend = "numpy"
    config = PIMConfig(crossbars=16, rows=256)
    samples = 4096
    learning_rate = 0.15
    #: Steps per epoch; the weights restart at zero each epoch, so the
    #: gradient never shrinks to rounding noise and every epoch repeats
    #: the first one bit for bit.
    epoch = 40
    warmup_steps = 5

    def setup(self) -> None:
        self.device = self.make_device()
        n = self.samples
        self.x = self.rng.uniform(-1, 1, n).astype(np.float32)
        self.y = (
            1.7 * self.x + 0.6 + self.rng.normal(scale=0.05, size=n)
        ).astype(np.float32)
        self.design = Matrix.from_numpy(
            np.stack([self.x, np.ones(n, np.float32)], axis=1),
            device=self.device,
        )
        self.x_col = self.design.column(0)
        self.y_dev = pim.from_numpy(self.y, device=self.device)
        self.slope = self.intercept = 0.0
        # Register allocation cycles through a few operand layouts; each
        # new one is lowered once, so the first steps are slow.
        for _ in range(self.warmup_steps):
            self.op(1)

    def op(self, index: int):
        """One gradient step of ``examples/linear_regression.py``."""
        if index % self.epoch == 0:
            self.slope = self.intercept = 0.0
        self.weights = (self.slope, self.intercept)
        n = self.samples
        predictions = self.design.matvec([self.slope, self.intercept])
        residual = predictions - self.y_dev
        grad_slope = 2.0 * dot(residual, self.x_col) / n
        grad_intercept = 2.0 * residual.sum() / n
        self.slope -= self.learning_rate * grad_slope
        self.intercept -= self.learning_rate * grad_intercept
        return grad_slope, grad_intercept

    def check(self, index: int, result) -> Optional[str]:
        slope, intercept = self.weights
        x = self.x.astype(np.float64)
        residual = slope * x + intercept - self.y.astype(np.float64)
        half_n = self.samples / 2.0
        return (
            reduction_error(result[0] * half_n, residual * x)
            or reduction_error(result[1] * half_n, residual)
            or self.repeats_exactly(index % self.epoch, result)
        )


class SessionCold(Workload):
    """Fresh device + empty persistent cache: capture, optimize, build
    gates, store, then build the replay plan and read the result back."""

    name = "session_cold"
    config = PIMConfig(crossbars=4, rows=16)
    length = 64

    def setup(self) -> None:
        self.x, self.y = float_pair(self.rng, self.length)
        product = self.x * self.y
        self.pred_bits = (product + self.x).view(np.uint32)
        self.total_terms = (product - self.x) * np.float32(2.0)
        self.totals = dict.fromkeys(COUNTER_KEYS, 0)
        self.report = None

    def cache_dir(self, index: int) -> str:
        return os.path.join(self.scratch_dir, f"cold-{index}")

    def before_op(self, index: int) -> None:
        os.makedirs(self.cache_dir(index), exist_ok=True)

    def after_op(self, index: int) -> None:
        shutil.rmtree(self.cache_dir(index), ignore_errors=True)

    def op(self, index: int):
        device = pim.PIMDevice(
            self.config, backend="simulator", cache_dir=self.cache_dir(index)
        )
        x = pim.from_numpy(self.x, device=device)
        y = pim.from_numpy(self.y, device=device)
        func = pim.CompiledFunction(grad_terms, device=device, opt_level=3)
        pred, total = func(x, y)
        first = (pred.to_numpy().view(np.uint32).copy(), total)
        pred, total = func(x, y)
        second = (pred.to_numpy().view(np.uint32).copy(), total)
        device.close()
        self.last_device = device
        return first, second

    def check(self, index: int, result) -> Optional[str]:
        device = self.last_device
        add_counters(self.totals, backend_counters(device.backend))
        self.report = device.opt_reports[-1]
        (first_bits, first_total), (bits, total) = result
        if not np.array_equal(bits, self.pred_bits):
            return "pred differs from the float32 reference"
        if not (np.array_equal(first_bits, bits) and first_total == total):
            return "replay differs from the capturing call"
        return (
            reduction_error(total, self.total_terms)
            or self.repeats_exactly("total", total)
        )

    def counters(self) -> Dict[str, int]:
        return dict(self.totals)

    def report_extras(self) -> Dict[str, float]:
        return {
            "pim.opt_cycles_saved_frac": self.report.cycle_reduction,
            "pim.reserved_cells": float(self.report.cells_after),
        }

    def layer_extras(self, tracer, log: RunLog) -> Dict[str, float]:
        return {**self.report_extras(), **self.cold_path_probe()}

    def cold_path_probe(self, repeats: int = 3) -> Dict[str, float]:
        """Direct timings of the cold-path stages, on the captured stream.

        Capture runs on a cold device, so it includes gate building; the
        compile timings use a second fresh device (empty caches, then
        warm). Taken after the timed loop; raw wall time.
        """
        from repro.isa.instructions import ReadInstr
        from repro.pim.optimizer import optimize_instructions

        config = self.config
        samples: Dict[str, list] = {}

        def timed(key: str, fn):
            start = perf_counter()
            value = fn()
            samples.setdefault(key, []).append(1e3 * (perf_counter() - start))
            return value

        for _ in range(repeats):
            device = pim.PIMDevice(config, backend="simulator")
            x = pim.from_numpy(self.x, device=device)
            y = pim.from_numpy(self.y, device=device)

            def capture():
                with pim.trace(device, name="probe") as session:
                    grad_terms(x, y)
                return session

            session = timed("pim.capture_ms", capture)
            stream = [
                instr for instr in session.graph.instructions
                if not isinstance(instr, ReadInstr)
            ]
            optimized, _ = timed(
                "pim.optimize_ms",
                lambda: optimize_instructions(
                    stream, config, 3, session.dead_cells()
                ),
            )
            fresh = pim.PIMDevice(config, backend="simulator")
            program = timed(
                "driver.compile_cold_ms",
                lambda: fresh.compile(optimized, name="probe", optimize=True),
            )
            timed(
                "driver.compile_hit_ms",
                lambda: fresh.compile(optimized, name="probe", optimize=True),
            )
            timed("first_replay", lambda: fresh.run_program(program))
            for _ in range(3):
                timed("steady_replay", lambda: fresh.run_program(program))
            device.close()
            fresh.close()
        medians = {key: float(np.median(v)) for key, v in samples.items()}
        medians["sim.plan_build_ms"] = (
            medians.pop("first_replay") - medians.pop("steady_replay")
        )
        return medians


class SessionWarm(SessionCold):
    """The same session against a cache directory a previous one filled."""

    name = "session_warm"

    def setup(self) -> None:
        super().setup()
        super().before_op(0)
        self.op(0)
        self.totals = dict.fromkeys(COUNTER_KEYS, 0)

    def cache_dir(self, index: int) -> str:
        return os.path.join(self.scratch_dir, "warm")

    def before_op(self, index: int) -> None:
        pass

    def after_op(self, index: int) -> None:
        pass

    def teardown(self) -> None:
        shutil.rmtree(self.cache_dir(0), ignore_errors=True)

    def layer_extras(self, tracer, log: RunLog) -> Dict[str, float]:
        return self.report_extras()


class DriverEmitStream(Workload):
    """Whole-stream emission into a ``BufferSink``: the paper's
    host-driver-outpaces-the-chip measurement, nothing else running."""

    name = "driver_emit_stream"
    tail_pct = 99.0
    root_layer = "harness"
    stream_len = 64
    #: Distinct streams emitted in rotation, so the plan cache holds more
    #: than one entry. Each costs ~0.4 s of set-up (encoding its plan).
    streams = 4
    #: Every this-many ops the whole ring buffer is compared, not just
    #: the micro-op count (prime, so all streams get their turn).
    deep_check_every = 61

    def setup(self) -> None:
        from repro.isa.dtypes import float32, int32

        config = self.config
        self.sink = BufferSink(config)
        self.driver = Driver(self.sink, config=config)
        rng = random.Random(self.seed)
        user = config.user_registers
        pool = []
        for op, dtype in ((ROp.ADD, int32), (ROp.LT, int32),
                          (ROp.MUL, float32), (ROp.ADD, float32)):
            for _ in range(self.stream_len // 4):
                dest, a, b = (rng.randrange(user) for _ in range(3))
                pool.append(RInstr(op, dtype, dest=dest, src_a=a, src_b=b))
        self.plans = [
            MacroStream(
                pool[(7 * index + position) % len(pool)]
                for position in range(self.stream_len)
            )
            for index in range(self.streams)
        ]
        # Reference: each macro lowered on its own (the per-macro path,
        # sharing only the cached gate bodies); concatenated, these are
        # the words a fused stream plan must leave in the sink.
        capacity = len(self.sink.buffer)
        self.expected_count, self.expected_words = [], []
        for plan in self.plans:
            words = np.concatenate([
                self.driver.compile([instr], optimize=False, emit="macro")
                .encoded(config.word_size)
                for instr in plan
            ])
            self.expected_count.append(len(words))
            self.expected_words.append(words[-capacity:])
            self.driver.execute_stream(plan)  # builds and caches the plan

    def before_op(self, index: int) -> None:
        self.count_before = self.sink.count

    def op(self, index: int):
        return self.driver.execute_stream(self.plans[index % self.streams])

    def check(self, index: int, result) -> Optional[str]:
        which = index % self.streams
        emitted = self.sink.count - self.count_before
        if emitted != self.expected_count[which]:
            return f"stream {which} emitted {emitted} micro-ops"
        if index % self.deep_check_every == 0:
            # A batch longer than the sink leaves its last ``capacity``
            # words in the buffer, from index 0 (BufferSink.execute_batch).
            if not np.array_equal(self.sink.buffer, self.expected_words[which]):
                return f"stream {which} left wrong words in the sink"
        return None

    def counters(self) -> Dict[str, int]:
        driver = self.driver
        totals = dict.fromkeys(COUNTER_KEYS, 0)
        totals.update(
            # The sink has no clock: one micro-op is one chip cycle.
            cycles=driver.micro_count,
            micro_ops=driver.micro_count,
            cache_hits=driver.programs.hits + driver.streams.hits,
            cache_misses=driver.programs.misses + driver.streams.misses,
            cache_evictions=(
                driver.programs.evictions + driver.streams.evictions
            ),
            emit_stream=driver.emit_counters["stream"],
            emit_macro=driver.emit_counters["macro"],
        )
        return totals


class ServeMixedPooled(Workload):
    """Closed loop through ``repro.serve``: ``clients`` coroutines each
    send a request only after their previous reply arrived."""

    name = "serve_mixed_pooled"
    tail_pct = 95.0
    root_layer = "serve"
    config = PIMConfig(crossbars=8, rows=128)
    workers = 2
    clients = 4
    payloads_per_model = 16
    warmup_rounds = 6
    #: Draining four in-flight requests costs ~1 % of a segment this long.
    segment_s = 0.25

    def setup(self) -> None:
        n = self.config.total_rows
        rng = self.rng
        int_model = CompiledWorkload(serve_int_model)
        grad_model = CompiledWorkload(serve_grad_model)
        self.requests = []  # (workload, payload, expected bits)
        for _ in range(self.payloads_per_model):
            a = rng.integers(-1000, 1000, n).astype(np.int32)
            b = rng.integers(-1000, 1000, n).astype(np.int32)
            self.requests.append((int_model, (a, b), a * b + a))
            x, y = float_pair(rng, n)
            product = x * y
            self.requests.append(
                (grad_model, (x, y), (product + x) * (product - x))
            )
        self.loop = asyncio.new_event_loop()
        self.server = Server(
            workers=self.workers, config=self.config, backend="pooled",
            worker_backend="numpy",
        )
        self.loop.run_until_complete(self.server.start())
        self.loop.run_until_complete(self._warm_up())

    async def _warm_up(self) -> None:
        # Both workers must have compiled both signatures.
        for _ in range(self.warmup_rounds):
            await asyncio.gather(*[
                self.server.submit(workload, payload)
                for workload, payload, _ in self.requests[: 2 * self.clients]
            ])

    def counters(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for worker in self.server.workers:
            add_counters(totals, backend_counters(worker.device.backend))
        return totals

    def teardown(self) -> None:
        self.loop.run_until_complete(self.server.close())
        self.loop.close()

    # -- the closed loop -------------------------------------------------
    def start_run(self, log: RunLog, tracer) -> None:
        self.served = []  # (request index, result) verified after the loop
        self.tracer = tracer
        self.service_spans: Dict[int, tuple] = {}
        self.metrics_before = self.server.metrics()
        self.timeline: List[tuple] = []
        self.positions = [2 * client for client in range(self.clients)]
        self.live_requests = self.requests
        if tracer is not None:
            # One wrapper per model, so signature batching is unchanged.
            wrappers: Dict[int, _TracedWorkload] = {}
            for workload, _, _ in self.requests:
                if id(workload) not in wrappers:
                    wrappers[id(workload)] = _TracedWorkload(workload, self)
            self.live_requests = [
                (wrappers[id(workload)], payload, expected)
                for workload, payload, expected in self.requests
            ]

    def run_segment(self, log: RunLog, tracer) -> float:
        # A segment ends with every client's reply in hand (a barrier),
        # so the calibration burst that follows delays no request.
        start = perf_counter()
        self.loop.run_until_complete(
            self._closed_loop(self.live_requests, start + self.segment_s, log)
        )
        return perf_counter() - start

    def finish_run(self, log: RunLog) -> None:
        for index, result in self.served:
            expected = self.requests[index][2]
            if not (
                isinstance(result, np.ndarray)
                and result.dtype == expected.dtype
                and np.array_equal(result.view(np.uint32),
                                   expected.view(np.uint32))
            ):
                log.fail(f"request {index} returned a wrong result")

    async def _closed_loop(self, requests, deadline: float, log: RunLog):
        await asyncio.gather(*[
            self._client(client, requests, deadline, log)
            for client in range(self.clients)
        ])

    async def _client(self, client: int, requests, deadline: float,
                      log: RunLog) -> None:
        # Requests go out in (int, float) pairs so that the mix — and
        # with it the simulated cycles per request — is exact. Clients
        # walk disjoint residues of the request list, so no payload is
        # ever in flight twice.
        position = self.positions[client]
        tracer = self.tracer
        while perf_counter() < deadline:
            for index in (position % len(requests),
                          (position + 1) % len(requests)):
                workload, payload, _ = requests[index]
                if tracer is not None:
                    root_id = tracer.new_id()
                    workload.pending[id(payload)] = root_id
                start = perf_counter()
                try:
                    result = await self.server.submit(workload, payload)
                except Exception as exc:
                    result = None
                    log.fail(f"request {index} raised {exc!r}")
                end = perf_counter()
                log.latencies.append(end - start)
                if result is not None:
                    self.served.append((index, result))
                if tracer is not None:
                    service = self.service_spans.pop(root_id, (end, end))
                    tracer.record(
                        "op", self.root_layer, start, end, root_id,
                        service[1] - service[0], root_id,
                    )
                    self.timeline.append((start, service[0], service[1], end))
            position += 2 * self.clients
        self.positions[client] = position

    def layer_extras(self, tracer, log: RunLog) -> Dict[str, float]:
        timeline = np.array(self.timeline)
        submit, entered, returned, resumed = timeline.T
        metrics = self.server.metrics()
        busy = tracer.totals()["busy"]
        imbalance = []
        for worker in self.server.workers:
            shard_busy = [
                busy.get(id(shard), 0.0)
                for shard in worker.device.backend.workers
            ]
            if sum(shard_busy):
                imbalance.append(max(shard_busy) / np.mean(shard_busy))
        # Span times at the reference machine speed, like the end-to-end
        # numbers (one factor for the whole round).
        to_ms = 1e3 * log.scaled_wall_s / log.wall_s
        extras = {
            "serve.queue_wait_ms_p50": to_ms * np.percentile(entered - submit, 50),
            "serve.queue_wait_ms_p99": to_ms * np.percentile(entered - submit, 99),
            "serve.service_ms_p50": to_ms * np.percentile(returned - entered, 50),
            "serve.deliver_ms_p50": to_ms * np.percentile(resumed - returned, 50),
            "serve.batch_size_mean": (
                (metrics.requests - self.metrics_before.requests)
                / max(metrics.batches - self.metrics_before.batches, 1)
            ),
            "serve.worker_busy_frac": float(
                (returned - entered).sum() / (self.workers * log.wall_s)
            ),
            "serve.retries": float(metrics.retries),
            "serve.timeouts": float(metrics.timeouts),
            "pool.shard_imbalance": float(np.mean(imbalance)) if imbalance else 0.0,
        }
        extras["serve.sched_us_per_req"] = self._scheduler_cost()
        return {key: float(value) for key, value in extras.items()}

    def _scheduler_cost(self, seconds: float = 0.5) -> float:
        """The same closed loop with a workload that does nothing."""
        served = 0

        async def client(deadline):
            nonlocal served
            while perf_counter() < deadline:
                await self.server.submit(_noop_workload, None)
                served += 1

        async def loop():
            await asyncio.gather(*[
                client(start + seconds) for _ in range(self.clients)
            ])

        start = perf_counter()
        self.loop.run_until_complete(loop())
        return 1e6 * (perf_counter() - start) / max(served, 1)


def _noop_workload(device, payload):
    return None


class _TracedWorkload:
    """Opens the service span of a request on its worker thread."""

    def __init__(self, inner: CompiledWorkload, owner: ServeMixedPooled):
        self.inner = inner
        self.owner = owner
        self.signature = inner.signature
        #: id(payload) -> root span id (which doubles as the op id), set
        #: by the client just before it submits.
        self.pending: Dict[int, int] = {}

    def __call__(self, device, payload):
        root_id = self.pending[id(payload)]
        tracer = self.owner.tracer
        start = perf_counter()
        frame = tracer.begin("serve.service", "pim", op_id=root_id,
                             parent_id=root_id)
        try:
            return self.inner(device, payload)
        finally:
            tracer.end(frame)
            self.owner.service_spans[root_id] = (start, perf_counter())


WORKLOADS = {
    cls.name: cls
    for cls in (
        Fig12EagerSim, Fig12ReplaySim, LinregEagerNumpy, ServeMixedPooled,
        SessionCold, SessionWarm, DriverEmitStream,
    )
}

