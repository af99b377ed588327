"""Tests for the pim.Profiler context manager."""

import numpy as np
import pytest

import repro.pim as pim
from repro.theory.counts import theoretical_cycles


class TestProfiler:
    def test_captures_cycle_delta(self, device):
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        y = pim.from_numpy(np.arange(8, dtype=np.int32))
        with pim.Profiler() as prof:
            _ = x * y
        assert prof.cycles > 1000  # a 32-bit multiply is thousands of gates

    def test_excludes_outside_work(self, device):
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        _ = x + x  # outside the profiled block
        with pim.Profiler() as prof:
            pass
        assert prof.cycles == 0

    def test_nested_ops_accumulate(self, device):
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        with pim.Profiler() as single:
            _ = x + x
        with pim.Profiler() as double:
            _ = x + x
            _ = x + x
        assert double.cycles > single.cycles * 1.5

    def test_cycles_before_exit_raises(self, device):
        prof = pim.Profiler()
        with pytest.raises(RuntimeError):
            prof.cycles

    def test_throughput_uses_eq1(self, device):
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        with pim.Profiler() as prof:
            _ = x + x
        ops = device.config.total_rows
        expected = ops / prof.cycles * device.config.frequency_hz
        assert prof.throughput(ops) == pytest.approx(expected)

    def test_stats_gate_breakdown(self, device):
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        with pim.Profiler() as prof:
            _ = x * x
        assert theoretical_cycles(prof.stats) > 0
        assert theoretical_cycles(prof.stats) < prof.cycles

    def test_echo_prints_summary(self, device, capsys):
        x = pim.from_numpy(np.arange(4, dtype=np.int32))
        with pim.Profiler(echo=True):
            _ = x + x
        out = capsys.readouterr().out
        assert "PIM cycles" in out
