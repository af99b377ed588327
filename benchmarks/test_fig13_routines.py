"""Figure 13 (bottom): routine throughput — CORDIC Sine, FP Sum Reduce,
FP Mult Reduce, FP Sort 1k, FP Sort 64k.

Routine cycle counts depend on the element count, so each workload runs at
its paper-relevant size on the 64k-row simulated memory; Eq. (1) then
scales to the 64M-row parallelism of Table III (the memory runs
``64M / n`` independent instances of an ``n``-element routine
concurrently, so the completed element-operations per latency are 64M).
The measured and theoretical cycle counts are pinned (:data:`CYCLES`).
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.driver.throughput import measure_driver_throughput
from repro.isa.dtypes import float32 as isa_f32
from repro.isa.instructions import ROp

from benchmarks.conftest import PAPER_PARALLELISM, record_fig13

#: Figure 13 row -> (cycles, theoretical cycles).
CYCLES = {
    "CORDIC Sine": (1_174_401, 1_073_816),
    "FP Sum Reduce": (156_424, 106_044),
    "FP Mult Reduce": (178_024, 129_164),
    "FP Sort 1k": (683_252, 269_031),
    "FP Sort 64k": (6_700_148, 2_545_416),
}


def _angles(rng, n):
    return rng.uniform(-np.pi / 2, np.pi / 2, n).astype(np.float32)


def _floats(rng, n, lo=0.9, hi=1.1):
    return rng.uniform(lo, hi, n).astype(np.float32)


def _driver_rate(device):
    return measure_driver_throughput(
        device.config, ROp.ADD, isa_f32, iterations=1000, unique_sequences=16
    ).micro_per_second


def test_cordic_sine(benchmark, bench_device):
    rng = np.random.default_rng(1)
    n = bench_device.config.total_rows
    z = pim.from_numpy(_angles(rng, n))

    def run():
        with pim.Profiler() as prof:
            pim.cordic_sin(z)
        return prof

    prof = benchmark.pedantic(run, rounds=1, iterations=1)
    row = record_fig13(
        "CORDIC Sine", prof.stats, PAPER_PARALLELISM, _driver_rate(bench_device)
    )
    benchmark.extra_info["cycles"] = row.cycles
    assert (row.cycles, row.theoretical) == CYCLES[row.benchmark]


@pytest.mark.parametrize("op,name", [(ROp.ADD, "FP Sum Reduce"), (ROp.MUL, "FP Mult Reduce")])
def test_fp_reduce(benchmark, bench_device, op, name):
    rng = np.random.default_rng(2)
    n = bench_device.config.total_rows
    x = pim.from_numpy(_floats(rng, n))

    def run():
        with pim.Profiler() as prof:
            pim.reduce(x, op)
        return prof

    prof = benchmark.pedantic(run, rounds=1, iterations=1)
    row = record_fig13(name, prof.stats, PAPER_PARALLELISM, _driver_rate(bench_device))
    benchmark.extra_info["cycles"] = row.cycles
    # Reduction throughput sits orders below element-wise FP Add (moves
    # serialize rows), the paper's bottom-panel shape.
    assert row.pypim_tput < 1e13
    assert (row.cycles, row.theoretical) == CYCLES[name]


@pytest.mark.parametrize("n,name", [(1024, "FP Sort 1k"), (65536, "FP Sort 64k")])
def test_fp_sort(benchmark, bench_device, n, name):
    rng = np.random.default_rng(3)
    data = rng.normal(size=n).astype(np.float32)
    x = pim.from_numpy(data)

    def run():
        with pim.Profiler() as prof:
            result = x.sort()
        np.testing.assert_array_equal(result.to_numpy(), np.sort(data))
        return prof

    prof = benchmark.pedantic(run, rounds=1, iterations=1)
    row = record_fig13(name, prof.stats, PAPER_PARALLELISM, _driver_rate(bench_device))
    benchmark.extra_info["cycles"] = row.cycles
    assert (row.cycles, row.theoretical) == CYCLES[name]
