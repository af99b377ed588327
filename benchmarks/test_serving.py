"""Serving-layer benchmark: pool throughput and persistent warm-start.

Two acceptance claims of the pool + serving subsystem, both enforced:

1. **Pool throughput**: a 4-worker device pool sustains >= 2x the
   requests/sec of a single device on a many-client compiled workload.
   Throughput is measured on the *simulated* device clock (cycles /
   frequency under the scheduler's busy-until model), so the claim is
   deterministic — host GIL scheduling never enters the measurement.

2. **Warm start**: compiling against a pre-populated persistent cache
   directory (``cache_dir=``) does none of a cold compile's work. Gated
   on exact facts about ``Driver.compile`` of the heaviest lowerings
   (float32 multiply chains): a warm session records no gates through
   ``GateBuilder``, walks no program to price it, loads exactly one
   valid entry per compiled stream, and derives nothing of a replay plan
   (the entry carries it). The share of cold wall-clock that skips is
   reported, not gated.

Results go to ``results/serving.txt`` (human-readable) and
``results/BENCH_serving.json`` (machine-readable: requests/sec, p50/p99
latency, warm-start skip fraction).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import pytest

import numpy as np

from repro.arch.config import PIMConfig, small_config
from repro.driver.driver import Driver
from repro.isa.dtypes import float32
from repro.isa.instructions import RInstr, ROp
from repro.serve import CompiledWorkload, serve_workload
from repro.sim.simulator import Simulator

from benchmarks.conftest import RESULTS_DIR

SERVE_CONFIG = PIMConfig(crossbars=4, rows=64)
REQUESTS = 48

_LINES: List[str] = []
_JSON: Dict[str, object] = {}


def _model(a, b):
    return a * b + a


def _payloads(count, length, seed=11):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(-1000, 1000, length).astype(np.int32),
         rng.integers(-1000, 1000, length).astype(np.int32))
        for _ in range(count)
    ]


def test_pool_throughput_acceptance():
    """>= 2x requests/sec on 4 workers vs a single device (sim time)."""
    payloads = _payloads(REQUESTS, SERVE_CONFIG.total_rows)
    golden = [np.int32(a.astype(np.int64) * b + a) for a, b in payloads]

    metrics = {}
    for workers in (1, 4):
        results, m = serve_workload(
            CompiledWorkload(_model), payloads,
            workers=workers, config=SERVE_CONFIG, backend="numpy",
        )
        for result, expected in zip(results, golden):
            np.testing.assert_array_equal(result, expected)
        metrics[workers] = m

    one, four = metrics[1], metrics[4]
    speedup = four.requests_per_sec / one.requests_per_sec
    _LINES.append(
        f"throughput  1 worker : {one.requests_per_sec:12,.0f} req/s "
        f"(p50 {one.p50_latency_s * 1e6:7.1f} us, "
        f"p99 {one.p99_latency_s * 1e6:7.1f} us)"
    )
    _LINES.append(
        f"throughput  4 workers: {four.requests_per_sec:12,.0f} req/s "
        f"(p50 {four.p50_latency_s * 1e6:7.1f} us, "
        f"p99 {four.p99_latency_s * 1e6:7.1f} us)"
    )
    _LINES.append(f"pool speedup: {speedup:.2f}x ({REQUESTS} requests)")
    _JSON.update(
        requests=REQUESTS,
        requests_per_sec_1w=one.requests_per_sec,
        requests_per_sec_4w=four.requests_per_sec,
        pool_speedup=speedup,
        p50_latency_s=four.p50_latency_s,
        p99_latency_s=four.p99_latency_s,
        batches_4w=four.batches,
    )
    assert speedup >= 2.0, f"pool speedup {speedup:.2f}x below 2x floor"


def _gate_build_streams():
    """Three distinct fp-multiply chains: the heaviest gate lowerings."""
    streams = []
    for dest in (2, 4, 6):
        streams.append([
            RInstr(ROp.MUL, float32, dest=dest, src_a=0, src_b=1),
            RInstr(ROp.ADD, float32, dest=dest + 1, src_a=dest, src_b=1),
        ])
    return streams


def _compile_session(cache_dir):
    """One fresh session: compile every stream, return (seconds, programs)."""
    config = small_config(crossbars=1, rows=16)
    driver = Driver(Simulator(config), cache_dir=str(cache_dir))
    elapsed = 0.0
    programs = []
    for index, stream in enumerate(_gate_build_streams()):
        start = time.perf_counter()
        programs.append(driver.compile(stream, name=f"serve-warm-{index}"))
        elapsed += time.perf_counter() - start
    return elapsed, programs, driver


def _compiled_session(cache_dir):
    """One fresh compiled session (the shape ``bench``'s ``session_warm``
    times): new device on ``cache_dir``, O3 compile, two calls."""
    import repro.pim as pim

    config = small_config(crossbars=4, rows=16)
    device = pim.PIMDevice(config, backend="simulator", cache_dir=str(cache_dir))
    rng = np.random.default_rng(3)
    x, y = (
        pim.from_numpy(rng.uniform(0.5, 2.0, 64).astype(np.float32), device=device)
        for _ in range(2)
    )
    func = pim.CompiledFunction(
        lambda a, b: (a * b + a, (a * b - a).sum()), device=device, opt_level=3
    )
    results = []
    for _ in range(2):
        pred, total = func(x, y)
        results.append((pred.to_numpy().copy(), total))
    info = func.replay_info(x, y)
    program = func._entry_for((x, y)).program
    device.close()
    return results, info, program


def test_warm_start_skips_gate_build(tmp_path, monkeypatch):
    """A warm cache_dir skips the gate build, the billing walk and the
    plan derivation, and a warm compiled session never turns a gate word
    back into an object: exact counts gate; the wall-clock share that
    skips is only reported."""
    from repro.driver.gates import GateBuilder
    from repro.sim import simulator

    calls = {"recording": 0, "accounting_walk": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        GateBuilder, "recording",
        counted("recording", GateBuilder.recording),
    )
    monkeypatch.setattr(
        simulator, "accounting_walk",
        counted("accounting_walk", simulator.accounting_walk),
    )

    cold_s, cold_programs, cold_driver = _compile_session(tmp_path / "cache")
    assert cold_driver.persist.counters()["stores"] > 0
    assert calls["recording"] > 0 and calls["accounting_walk"] > 0

    calls.update(recording=0, accounting_walk=0)
    warm_s, warm_programs, warm_driver = _compile_session(tmp_path / "cache")
    counters = warm_driver.persist.counters()
    assert calls == {"recording": 0, "accounting_walk": 0}, (
        "a warm compile builds no gates and walks no program"
    )
    assert counters["loads"] == len(warm_programs), (
        "every warm compile must come from disk, not a re-build"
    )
    assert counters["invalid"] == 0 and counters["stores"] == 0
    config = warm_driver.config
    for cold_program, warm_program in zip(cold_programs, warm_programs):
        assert warm_program.bill(config) == cold_program.bill(config)
        assert warm_program.ops == cold_program.ops
    assert calls["accounting_walk"] == 0, "the bill came with the entry"

    # The entry carries the replay plan: over a populated cache_dir both
    # calls of a compiled session derive nothing of it (no lane table, no
    # plane count or body), build no LogicHOp, decode only the non-gate
    # words, and leave the restored program undecoded.
    from repro.arch import micro_ops
    from repro.driver import program as program_module
    from repro.sim import replay

    derivation = ("lane_table", "_planes_at_least", "derive_plane_body")
    calls.update(dict.fromkeys(derivation, 0))
    for name in derivation:
        monkeypatch.setattr(replay, name, counted(name, getattr(replay, name)))
    cold_results, cold_info, _ = _compiled_session(tmp_path / "session")
    assert all(calls[name] > 0 for name in derivation)
    assert cold_info["plan_source"] == "derived"
    calls.update(dict.fromkeys(derivation, 0))
    built, decoded = [], []
    monkeypatch.setattr(
        micro_ops.LogicHOp, "__post_init__", lambda self: built.append(self)
    )
    monkeypatch.setattr(
        program_module, "decode_many",
        lambda words, *args: decoded.append(words)
        or micro_ops.decode_many(words, *args),
    )
    warm_results, info, program = _compiled_session(tmp_path / "session")
    for (cold_pred, cold_total), (pred, total) in zip(cold_results, warm_results):
        assert np.array_equal(cold_pred, pred) and cold_total == total
    assert info["engine"] == "vectorized" and program._ops is None
    assert all(calls[name] == 0 for name in derivation), "the plan came with the entry"
    assert info["plan_source"] == "loaded"
    unpaid = ("plan_build_ms", "plan_source")
    assert {key: info[key] for key in info if key not in unpaid} == {
        key: cold_info[key] for key in cold_info if key not in unpaid
    }, "the loaded plan is the plan derived from the compiled ops"
    assert not built, "a warm session constructs no LogicHOp"
    assert not any(micro_ops.is_logic_h(words).any() for words in decoded)
    words = program.encoded(program.config_fingerprint[4])
    others = words[~micro_ops.is_logic_h(words)]
    assert len(others) == info["fallback_ops"] < len(words) // 100
    assert any(np.array_equal(words, others) for words in decoded)

    skipped = 1.0 - warm_s / cold_s
    _LINES.append(
        f"warm start: cold={cold_s:6.3f}s warm={warm_s:6.3f}s "
        f"gate-build time skipped={skipped * 100:5.1f}% (reported, not gated)"
    )
    _JSON.update(
        cold_compile_s=cold_s,
        warm_compile_s=warm_s,
        warm_skip_fraction=skipped,
    )


def test_cold_start_builds_no_gate_object(tmp_path, monkeypatch):
    """The cold counterpart of the gate above: gates are born as operation
    words, so both calls of a compiled session over an *empty* cache_dir
    (capture, O3, gate build, splice, peephole, store, plan build, two
    replays) construct no ``LogicHOp``; ``encode_many`` sees only non-gate
    ops (and the rows of a move's gates), ``decode_many`` only non-gate
    words. Exact counts; the process-wide pattern memos are filled first
    (``pattern_outputs`` spells a pattern it has never seen as one op)."""
    from repro.arch import micro_ops
    from repro.driver import compiler, driver, program as program_module

    warm_results, warm_info, _ = _compiled_session(tmp_path / "memo-fill")
    built, encoded, decoded = [], [], []
    monkeypatch.setattr(
        micro_ops.LogicHOp, "__post_init__", lambda self: built.append(self)
    )

    def encode_many(ops, *args):
        encoded.append(list(ops))
        return micro_ops.encode_many(encoded[-1], *args)

    def decode_many(words, *args):
        decoded.append(words)
        return micro_ops.decode_many(words, *args)

    for module in (driver, program_module):
        monkeypatch.setattr(module, "encode_many", encode_many)
    for module in (compiler, program_module):
        monkeypatch.setattr(module, "decode_many", decode_many)
    results, info, program = _compiled_session(tmp_path / "cold")
    for (warm_pred, warm_total), (pred, total) in zip(warm_results, results):
        assert np.array_equal(warm_pred, pred) and warm_total == total
    assert info["engine"] == "vectorized" and program._ops is None
    assert not built, "a cold session constructs no LogicHOp"
    assert encoded and decoded, "the splicer and the segmenter ran"
    for ops in encoded:
        assert not any(isinstance(op, micro_ops.LogicHOp) for op in ops)
    assert any(type(op) is tuple for ops in encoded for op in ops)  # a move's gates
    assert not any(micro_ops.is_logic_h(words).any() for words in decoded)
    assert {key: info[key] for key in info if key != "plan_build_ms"} == {
        key: warm_info[key] for key in warm_info if key != "plan_build_ms"
    }


def test_chaos_serving_resilience():
    """Chaos leg: injected faults + stalls, p99 bounded, zero lost.

    A rotating-seed :class:`~repro.faults.plan.FaultPlan` fails ~1/7 of
    requests on their first attempt and stalls ~1/11 of them, under a
    per-request deadline with retries. The gates: every request resolves
    (a result or ``DeadlineExceeded`` — never a hang, never a lost
    future), every delivered result is bit-exact, and p99 latency stays
    bounded by the deadline (timeouts are accounted *at* the budget, so
    the deadline is a hard ceiling on the latency distribution).
    Reproduce a CI failure locally with ``REPRO_FAULT_SEED=<seed>``.
    """
    from repro.faults import FaultPlan, resolve_fault_seed
    from repro.serve import DeadlineExceeded

    seed = resolve_fault_seed(17)
    deadline = 0.05
    payloads = _payloads(REQUESTS, SERVE_CONFIG.total_rows,
                         seed=seed % 9973 + 1)
    golden = [np.int32(a.astype(np.int64) * b + a) for a, b in payloads]
    arrivals = [index * 2e-6 for index in range(REQUESTS)]
    plan = FaultPlan(
        SERVE_CONFIG, seed=seed,
        fail_every=7, serve_fail_attempts=1,   # ~1/7 fail once, then heal
        stall_every=11, stall_s=5e-5,          # ~1/11 are slow requests
    )
    results, metrics = serve_workload(
        CompiledWorkload(_model), payloads, arrivals=arrivals,
        deadline=deadline, retries=3, return_exceptions=True,
        workers=4, config=SERVE_CONFIG, backend="numpy", fault_plan=plan,
    )

    try:
        assert len(results) == REQUESTS
        delivered = timed_out = 0
        for result, expected in zip(results, golden):
            if isinstance(result, BaseException):
                assert isinstance(result, DeadlineExceeded), (
                    f"unexpected failure under chaos: {result!r}"
                )
                timed_out += 1
            else:
                np.testing.assert_array_equal(result, expected)
                delivered += 1
        assert delivered + timed_out == REQUESTS, "zero requests lost"
        assert delivered > 0, "chaos must not starve the whole run"
        assert metrics.retries >= 1, "the plan must actually inject faults"
        assert metrics.timeouts == timed_out
        assert metrics.p99_latency_s <= deadline * (1 + 1e-9), (
            f"p99 {metrics.p99_latency_s:.6f}s beyond the {deadline}s budget"
        )
    except BaseException:
        # Dump the chaos context so CI uploads it and the failure
        # replays locally with REPRO_FAULT_SEED=<seed>.
        artifact_dir = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR",
                                      "fuzz_artifacts")
        os.makedirs(artifact_dir, exist_ok=True)
        with open(os.path.join(artifact_dir, "chaos_serving.json"),
                  "w") as handle:
            json.dump({
                "seed": seed,
                "requests": REQUESTS,
                "deadline_s": deadline,
                "metrics": metrics.as_dict(),
                "failures": [repr(r) for r in results
                             if isinstance(r, BaseException)],
            }, handle, indent=2)
        raise

    _LINES.append(
        f"chaos (seed {seed}): {delivered} delivered, {timed_out} timed "
        f"out, {metrics.retries} retries, {metrics.failovers} failovers, "
        f"p99 {metrics.p99_latency_s * 1e3:6.2f} ms <= {deadline * 1e3:.0f} ms"
    )
    _JSON.update(
        chaos_seed=seed,
        chaos_delivered=delivered,
        chaos_timeouts=timed_out,
        chaos_retries=metrics.retries,
        chaos_failovers=metrics.failovers,
        chaos_p99_latency_s=metrics.p99_latency_s,
    )


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if not _LINES:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    lines = ["Serving layer: pool throughput and persistent warm-start", ""]
    lines += _LINES
    with open(os.path.join(RESULTS_DIR, "serving.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(os.path.join(RESULTS_DIR, "BENCH_serving.json"), "w") as handle:
        json.dump(_JSON, handle, indent=2, sort_keys=True)
        handle.write("\n")
