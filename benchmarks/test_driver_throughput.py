"""Figure 13 (third series) + driver cache ablation.

Measures the host driver's micro-op generation rate into a memory buffer
(the artifact appendix's methodology: micro-operations rerouted from the
simulator to ``OPS[...]``), for every representative macro-instruction,
with the compiled-sequence cache on and off.

Two dispatch granularities of the one emission path
(:mod:`repro.driver.stream`) are measured per op type: *per-macro*
(``Driver.execute``: a one-instruction plan and one Python round-trip
per macro) and *whole-stream* (``Driver.execute_stream``, one cached
fused program per 64-macro stream). The stream column is the headline
number — it is what compiled graphs and stream-aware hosts pay — and
the CI gate: **every** op type, including the short-bodied int add /
int ``<`` that cap per-macro dispatch below 1x, must clear 1x headroom
against the 300MHz chip. A steady stream loop must be all plan hits, so
plan compilation cannot hide inside the emission figure.
"""

import os

import pytest

from repro.arch.config import PIMConfig
from repro.driver.throughput import measure_driver_throughput
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import ROp

from benchmarks.conftest import BENCH_CONFIG, RESULTS_DIR

CASES = [
    ("int add", ROp.ADD, int32),
    ("int mult", ROp.MUL, int32),
    ("int div", ROp.DIV, int32),
    ("int <", ROp.LT, int32),
    ("fp add", ROp.ADD, float32),
    ("fp mult", ROp.MUL, float32),
    ("fp div", ROp.DIV, float32),
]

STREAM_LEN = 64

_LINES = []


@pytest.fixture(scope="module")
def cfg():
    return PIMConfig(**BENCH_CONFIG)


@pytest.mark.parametrize("name,op,dtype", CASES, ids=[c[0] for c in CASES])
def test_driver_throughput(benchmark, cfg, name, op, dtype):
    iterations = 20_000 if op in (ROp.ADD, ROp.LT) and dtype is int32 else 5_000

    def run():
        stream = measure_driver_throughput(
            cfg, op, dtype, iterations=iterations, unique_sequences=16,
            stream_len=STREAM_LEN,
        )
        macro = measure_driver_throughput(
            cfg, op, dtype, iterations=iterations, unique_sequences=16
        )
        return stream, macro

    stream, macro = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        micro_per_second=f"{stream.micro_per_second:.3e}",
        headroom=f"{stream.headroom:.2f}",
        macro_headroom=f"{macro.headroom:.2f}",
        ops_per_macro=f"{stream.ops_per_macro:.0f}",
        plan_cache=f"{stream.plan_hits}h/{stream.plan_misses}m",
    )
    _LINES.append(
        f"{name:<10} stream: {stream.micro_per_second:9.3e} uops/s "
        f"(headroom {stream.headroom:5.2f}x)   "
        f"per-macro: {macro.micro_per_second:9.3e} uops/s "
        f"(headroom {macro.headroom:5.2f}x)"
    )
    assert stream.micro_per_second > 1e6
    # The steady loop replays warm plans only: compilation must not be
    # hiding inside the emission figure.
    assert stream.plan_misses == 0
    # The CI headroom gate (ROADMAP item 1): with whole-stream emission
    # *every* op type — including int add and int <, which per-macro
    # dispatch caps at ~0.1x — outpaces the 300MHz chip.
    assert stream.headroom >= 1.0, (
        f"{name}: stream emission sustains only "
        f"{stream.micro_per_second:.3g} uops/s "
        f"({stream.headroom:.2f}x vs the {stream.frequency_hz:.3g}Hz chip)"
    )


def test_cache_ablation(benchmark, cfg):
    """Cache on vs off: the compiled-sequence cache is what makes a
    software driver viable (the paper's no-hardware-controller argument)."""

    def run():
        warm = measure_driver_throughput(
            cfg, ROp.MUL, float32, iterations=2000, unique_sequences=8
        )
        cold = measure_driver_throughput(
            cfg, ROp.MUL, float32, iterations=48, unique_sequences=48,
            use_cache=False,
        )
        return warm, cold

    warm, cold = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = warm.micro_per_second / cold.micro_per_second
    _LINES.append(
        f"cache ablation (fp mult): warm {warm.micro_per_second:9.3e} vs "
        f"cold {cold.micro_per_second:9.3e} uops/s -> {speedup:.1f}x"
    )
    benchmark.extra_info["cache_speedup"] = f"{speedup:.1f}x"
    assert speedup > 5


def teardown_module(module):
    if not _LINES:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    sections = [
        "Host-driver throughput (buffer-sink methodology)",
        "",
        f"stream = whole-stream emission plans ({STREAM_LEN} macros/stream,"
        " Driver.execute_stream);",
        "per-macro = one-instruction plans, one dispatch per macro"
        " (Driver.execute).",
        "",
    ] + _LINES
    text = "\n".join(sections)
    print("\n" + text)
    with open(os.path.join(RESULTS_DIR, "driver_throughput.txt"), "w") as handle:
        handle.write(text + "\n")
