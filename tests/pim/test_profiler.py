"""Tests for the pim.Profiler context manager."""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.backend.base import family
from repro.faults import FaultPlan
from repro.isa.dtypes import int32
from repro.isa.instructions import RInstr, ROp, WriteInstr
from repro.pim.device import PIMDevice
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


#: The backends a counter snapshot is checked on: ``PIMDevice`` keywords.
SNAPSHOT_BACKENDS = {
    "simulator": dict(backend="simulator"),
    "simulator-uncached": dict(backend="simulator", cache_size=0),
    "numpy": dict(backend="numpy"),
    "pooled-numpy": dict(backend="pooled", workers=2, worker_backend="numpy"),
    "pooled-simulator": dict(
        backend="pooled", workers=2, worker_backend="simulator"
    ),
}


class TestCounterSnapshot:
    """``Backend.counters()`` is one ``family.kind`` snapshot: the views
    the benchmark harness reads are its families, ``Profiler.counters`` is
    its nonzero delta, and a pool adds its workers' ``cache.*`` and
    ``persist.*`` to its own driver's books."""

    @staticmethod
    def _block(backend):
        """Touches every family: a plan-less macro (on the simulator), an
        optimized compile written through to ``cache_dir``, a
        checksum-verified replay under the installed fault plan, a plain
        replay and two eager R-type macros (a stream-tier hit)."""
        add = RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)
        backend.execute(WriteInstr(1, 5))
        program = backend.compile([WriteInstr(0, 3), add], name="books")
        backend.run_program(program, verify="checksum")
        backend.run_program(program)
        backend.execute(add)
        backend.execute(add)

    @pytest.mark.parametrize("kind", sorted(SNAPSHOT_BACKENDS))
    def test_one_snapshot(self, kind, tmp_path):
        config = PIMConfig(crossbars=4, rows=16)
        device = PIMDevice(
            config, cache_dir=str(tmp_path), **SNAPSHOT_BACKENDS[kind]
        )
        backend = device.backend
        device.install_faults(FaultPlan(config, seed=0))
        before = backend.counters()
        with pim.Profiler(device) as prof:
            self._block(backend)
        books = backend.counters()

        pooled = kind.startswith("pooled")
        simulator = kind.startswith("simulator")
        families = {"emit", "fault", "replay"} if simulator else {"emit", "fault"}
        if kind != "simulator-uncached":
            families |= {"cache", "persist"}
        assert {key.split(".")[0] for key in prof.counters} == families
        assert all(key.count(".") == 1 for key in books)
        assert ("replay.vectorized" in books) == simulator

        # The benchmark harness's views are families of the snapshot.
        assert backend.cache_counters() == tuple(
            books[f"cache.{tier}"] for tier in ("hits", "misses", "evictions")
        )
        for name in ("persist", "emit", "replay"):
            view = getattr(backend, f"{name}_counters")()
            assert view == family(books, name), name

        # The profiler holds exactly the snapshot's nonzero delta.
        assert prof.counters == {
            key: count - before.get(key, 0)
            for key, count in books.items()
            if count != before.get(key, 0)
        }

        driver = backend.lowering
        own = {
            "emit": driver.emit_counters,
            "fault": {**driver.faults.counters, **driver.verify_tally},
        }
        for name, counts in own.items():
            assert family(books, name) == counts, name
        workers = backend.workers if pooled else []
        for tier in ("hits", "misses", "evictions"):
            assert books[f"cache.{tier}"] == (
                getattr(driver.programs, tier) + getattr(driver.streams, tier)
                + sum(worker.counters()[f"cache.{tier}"] for worker in workers)
            ), tier
        persist = dict(driver.persist.counters())
        for worker in workers:
            for outcome, count in family(worker.counters(), "persist").items():
                persist[outcome] += count
        assert family(books, "persist") == persist

    def test_echo_prints_one_line_per_family(self, device, capsys):
        x = pim.from_numpy(np.arange(4, dtype=np.int32))
        with pim.Profiler(echo=True) as prof:
            _ = x + x
        lines = capsys.readouterr().out.splitlines()
        names = sorted({key.split(".")[0] for key in prof.counters})
        assert names and [
            line.split()[0] for line in lines if line.split()[0] in names
        ] == names
