"""Tests for profiling counters and the Eq. (1) throughput derivation."""

import pytest

from repro.sim.stats import SimStats, throughput


class TestSimStats:
    def test_record_accumulates(self):
        stats = SimStats()
        stats.record("logic_h_nor", gates=32)
        stats.record("logic_h_nor")
        stats.record("write")
        assert stats.op_counts == {"logic_h_nor": 2, "write": 1}
        assert stats.cycles == 3
        assert stats.gates_executed == 32

    def test_diff(self):
        stats = SimStats()
        stats.record("write")
        snapshot = stats.copy()
        stats.record("write")
        stats.record("move")
        stats.htree_hop_cycles += 3
        delta = stats.diff(snapshot)
        assert delta.op_counts == {"write": 1, "move": 1}
        assert delta.cycles == delta.micro_ops == 2
        assert delta.htree_hop_cycles == 3

    def test_diff_drops_zero_entries(self):
        stats = SimStats()
        stats.record("read")
        delta = stats.diff(stats.copy())
        assert delta.op_counts == {}

    def test_copy_is_independent(self):
        stats = SimStats()
        stats.record("read")
        clone = stats.copy()
        stats.record("read")
        assert clone.op_counts["read"] == 1

    def test_summary_mentions_cycles(self):
        stats = SimStats()
        stats.record("logic_v_not")
        assert "1" in stats.summary()
        assert "logic_v_not" in stats.summary()


class TestThroughput:
    def test_equation_one(self):
        """64M rows, 289-cycle addition, 300 MHz -> the paper's regime."""
        result = throughput(64 * 2**20, 289, 300e6)
        assert result == pytest.approx(64 * 2**20 / 289 * 300e6)

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError):
            throughput(1, 0, 1.0)

    def test_scales_linearly_with_parallelism(self):
        assert throughput(200, 10, 1e6) == 2 * throughput(100, 10, 1e6)
