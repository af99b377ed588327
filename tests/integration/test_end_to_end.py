"""Cross-layer integration: ISA-path loading, hybrid workloads, profiling
consistency between the library and the simulator."""

import numpy as np
import pytest

import repro.pim as pim
from repro.theory.counts import overhead_cycles, theoretical_cycles


class TestInstructionPathOnly:
    def test_full_isa_roundtrip(self, device):
        """Load via genuine write instructions, compute, read back via
        genuine read instructions — no DMA anywhere."""
        data = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int32)
        x = pim.from_numpy(data, via="isa")
        y = pim.from_numpy(data[::-1].copy(), via="isa")
        z = x + y
        got = np.array([z[i] for i in range(8)], dtype=np.int32)
        np.testing.assert_array_equal(got, data + data[::-1])


class TestHybridWorkloads:
    def test_saxpy(self, device):
        rng = np.random.default_rng(0)
        x = rng.normal(size=32).astype(np.float32)
        y = rng.normal(size=32).astype(np.float32)
        alpha = np.float32(2.5)
        got = (pim.from_numpy(x) * float(alpha) + pim.from_numpy(y)).to_numpy()
        want = (x * alpha + y).astype(np.float32)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_dot_product(self, device):
        a = np.arange(16, dtype=np.int32)
        b = np.arange(16, dtype=np.int32)[::-1].copy()
        got = (pim.from_numpy(a) * pim.from_numpy(b)).sum()
        assert got == int(np.dot(a.astype(np.int64), b) & 0xFFFFFFFF)

    def test_clamp_with_where(self, device):
        data = np.array([-5, 3, 12, -1, 8, 0], dtype=np.int32)
        x = pim.from_numpy(data)
        clamped = pim.where(x < 0, 0, pim.where(x > 10, 10, x))
        np.testing.assert_array_equal(clamped.to_numpy(), np.clip(data, 0, 10))

    def test_conditional_accumulate(self, device):
        data = np.arange(-8, 8, dtype=np.int32)
        x = pim.from_numpy(data)
        positives = pim.where(x > 0, x, pim.zeros(16, dtype=pim.int32))
        assert positives.sum() == data[data > 0].sum()

    def test_polynomial_evaluation(self, device):
        coeffs = [1.0, -2.0, 0.5]  # 0.5 x^2 - 2 x + 1 via Horner
        data = np.linspace(-1, 1, 16).astype(np.float32)
        x = pim.from_numpy(data)
        acc = pim.full(16, coeffs[2], dtype=pim.float32)
        for c in reversed(coeffs[:2]):
            acc = acc * x + c
        want = data.copy()
        want = (0.5 * data * data).astype(np.float32)
        want = np.float32(0.5) * data
        # Recompute in the same association order as Horner on float32:
        acc_np = np.full(16, np.float32(coeffs[2]), dtype=np.float32)
        for c in reversed(coeffs[:2]):
            acc_np = (acc_np * data + np.float32(c)).astype(np.float32)
        np.testing.assert_array_equal(
            acc.to_numpy().view(np.uint32), acc_np.view(np.uint32)
        )


class TestProfilingConsistency:
    def test_driver_and_simulator_agree(self, device):
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        before_driver = device.driver.micro_count
        before_sim = device.simulator.stats.micro_ops
        _ = x * x
        driver_delta = device.driver.micro_count - before_driver
        sim_delta = device.simulator.stats.micro_ops - before_sim
        assert driver_delta == sim_delta

    def test_cycle_breakdown_sums_to_total(self, device):
        x = pim.from_numpy(np.arange(8, dtype=np.float32).astype(np.float32))
        with pim.Profiler() as prof:
            _ = x + x
        assert theoretical_cycles(prof.stats) + overhead_cycles(prof.stats) == prof.cycles

    def test_framework_overhead_is_small(self, device):
        """The measured-vs-theoretical gap stays within a modest factor
        (the paper reports 5% average / 16% worst case for its suite)."""
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        with pim.Profiler() as prof:
            _ = x * x
        overhead = overhead_cycles(prof.stats) / prof.cycles
        assert overhead < 0.25
