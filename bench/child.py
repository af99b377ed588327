"""One round of one workload, in a process of its own.

``bench/run.py`` starts this module once per (workload, round): set-up,
then the timed loop, then one JSON object on the last line of standard
output. With ``--trace 1`` the boundary wrappers of ``bench/tracing.py``
are installed around the timed loop and the per-layer numbers are added.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from typing import Dict

import numpy as np

from repro.driver import config_fingerprint

from bench.tracing import Tracer, leftover_wrappers
from bench.workloads import WORKLOADS, RunLog


def scaled_latencies_ms(log: RunLog) -> np.ndarray:
    """Op latencies in ms at the reference machine speed."""
    return 1e3 * np.asarray(log.latencies) / np.asarray(log.slowdown)


def counter_metrics(delta: Dict[str, int], log: RunLog, workload) -> Dict[str, float]:
    """Per-layer metrics that need counters only (no spans)."""
    ops = len(log.latencies)
    lat_ms = scaled_latencies_ms(log)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "sim_cycles_per_call": delta["cycles"] / ops,
        "e2e.fail_frac": log.failed / ops,
        "e2e.ops_per_round": float(ops),
        "e2e.call_ms_p90": float(np.percentile(lat_ms, 90)),
        "e2e.call_ms_p99": float(np.percentile(lat_ms, 99)),
        "e2e.raw_call_ms_p50": 1e3 * float(np.median(log.latencies)),
        "e2e.machine_slowdown_x": float(np.median(log.slowdown)),
        "driver.uops_per_call": delta["micro_ops"] / ops,
        "driver.headroom_x": ratio(
            delta["micro_ops"], log.scaled_wall_s * workload.config.frequency_hz
        ),
        "driver.emit_stream_frac": ratio(
            delta["emit_stream"], delta["emit_stream"] + delta["emit_macro"]
        ),
        "driver.cache_hit_frac": ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "driver.cache_evictions": float(delta["cache_evictions"]),
        "driver.persist_loads": delta["persist_loads"] / ops,
        "driver.persist_stores": delta["persist_stores"] / ops,
        "driver.persist_invalid": delta["persist_invalid"] / ops,
        "sim.replay_vectorized_frac": ratio(
            delta["replay_vectorized"],
            delta["replay_vectorized"] + delta["replay_thunk"],
        ),
        "theory.gap_frac": ratio(
            delta["cycles"] - delta["theory_cycles"], delta["theory_cycles"]
        ),
    }


def span_metrics(totals: dict, delta: Dict[str, int], log: RunLog) -> Dict[str, float]:
    """Per-layer metrics derived from the recorded spans.

    Span times are brought to the reference machine speed with the
    round's overall factor, so they add up to the end-to-end numbers.
    """
    ops = len(log.latencies)
    speed = log.scaled_wall_s / log.wall_s
    self_s = {layer: speed * s for layer, s in totals["self_s"].items()}
    by_name = {
        name: (calls, speed * s) for name, (calls, s) in totals["by_name"].items()
    }
    counts = totals["counts"]
    macros = counts.get("macros", 0)

    def ms_per_call(layer: str) -> float:
        return 1e3 * self_s.get(layer, 0.0) / ops

    def per(seconds: float, units: float, scale: float) -> float:
        return scale * seconds / units if units else 0.0

    def named(name: str):
        return by_name.get(name, (0, 0.0))

    chip_calls = named("sim.execute")[0] + named("sim.execute_program")[0]
    total_s = sum(self_s.values())
    return {
        "pim.self_ms_per_call": ms_per_call("pim"),
        "pim.macros_per_call": macros / ops,
        "pim.dma_in_ms_per_call": ms_per_call("pim.dma_in"),
        "pim.dma_out_ms_per_call": ms_per_call("pim.dma_out"),
        "driver.self_ms_per_call": ms_per_call("driver"),
        "driver.emit_us_per_macro": per(self_s.get("driver", 0.0), macros, 1e6),
        "driver.persist_store_ms": 1e3 * named("persist.store")[1] / ops,
        "driver.persist_load_ms": 1e3 * named("persist.load")[1] / ops,
        "sim.busy_ms_per_call": ms_per_call("sim"),
        "sim.host_ns_per_uop": (
            per(self_s["sim"], delta["micro_ops"], 1e9) if "sim" in self_s else 0.0
        ),
        "sim.chip_calls_per_call": chip_calls / ops,
        "backend.numpy_busy_ms_per_call": ms_per_call("backend.numpy"),
        "backend.numpy_us_per_macro": per(
            self_s.get("backend.numpy", 0.0), macros, 1e6
        ),
        "pool.self_ms_per_call": ms_per_call("pool"),
        "pool.segments_per_program": per(
            counts.get("pool.segments", 0), counts.get("pool.programs", 0), 1.0
        ),
        "pool.bridges_per_call": counts.get("pool.bridges", 0) / ops,
        "trace.coverage_frac": 1.0 - per(self_s.get("harness", 0.0), total_s, 1.0),
    }


def write_spans(path: str, workload: str, totals: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload,
                "fields": ["id", "parent", "op", "name", "layer", "start", "end"],
                "spans_dropped": totals["dropped"],
                "spans": totals["spans"],
            },
            handle,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() just before the parent spawned us")
    parser.add_argument("--scratch", required=True,
                        help="private directory for cache_dirs (removed on exit)")
    parser.add_argument("--spans", default=None,
                        help="where to write the span file (traced only)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    os.makedirs(args.scratch, exist_ok=True)
    try:
        workload.setup()
        tracer = Tracer() if args.trace else None
        before = workload.counters()
        if tracer is not None:
            tracer.install()
        setup_s = time.time() - args.started
        try:
            log = workload.run(args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = workload.counters()
        delta = {key: after[key] - before[key] for key in after}
        ops = len(log.latencies)
        lat_ms = scaled_latencies_ms(log)
        result = {
            "workload": args.workload,
            "traced": bool(args.trace),
            "numpy": np.__version__,
            "config_fingerprint": list(config_fingerprint(workload.config)),
            "ops": ops,
            "failed": log.failed,
            "errors": log.errors,
            "end_to_end": {
                "calls_per_s": ops / log.scaled_wall_s,
                "call_ms_p50": float(np.percentile(lat_ms, 50)),
                "call_ms_tail": float(np.percentile(lat_ms, workload.tail_pct)),
                "setup_s": setup_s,
            },
            "counters": counter_metrics(delta, log, workload),
            "expect_exact": workload.expect_exact,
        }
        if tracer is not None:
            totals = tracer.totals()
            spans = span_metrics(totals, delta, log)
            spans.update(workload.layer_extras(tracer, log))
            result["spans"] = spans
            result["leftover_wrappers"] = leftover_wrappers()
            if args.spans:
                write_spans(args.spans, args.workload, totals)
        workload.teardown()
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    result["end_to_end"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
