"""Fault injection & resilience (:mod:`repro.faults`) end to end.

The three acceptance claims of the resilience layer, each enforced here:

1. **Detection**: ``verify="checksum"`` catches >= 99% of injected
   flips that corrupt a compiled program's written cells, on both
   backends (in practice the CRC bracket catches every one — the floor
   is the contract).
2. **Recovery**: a transient flip is healed by one retry; a persistent
   stuck-at cell is quarantined in the allocator and the function
   recompiles around it — outputs stay bit-identical to golden either
   way. A pooled worker crash fails over to a fresh worker and the run
   stays bit-identical to a single device.
3. **Identity**: with no faults installed — or an *empty* plan
   installed — every output, memory image, and cycle count is exactly
   what it is today. Fault hooks must be invisible when disabled.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.backend.base import family
from repro.faults import (
    ChecksumError,
    FaultPlan,
    ShardError,
    WorkerFault,
    program_regions,
    resolve_fault_seed,
)

CFG = PIMConfig(crossbars=4, rows=8)
N = CFG.total_rows  # one register's worth of elements

BACKENDS = ["simulator", "numpy"]

#: The detection corpus: distinct compiled shapes (different op mixes,
#: different written-region footprints). Every (program, cell) pair
#: below contributes one injected flip to the >= 99% detection floor.
CORPUS = [
    ("mul-add", lambda a, b: a * b + a),
    ("add", lambda a, b: a + b),
    ("sub-mul", lambda a, b: (a - b) * b),
    ("chain", lambda a, b: (a + b) * (a - b) + b),
]


def _arrays(seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(-1000, 1000, N).astype(np.int32),
        rng.integers(-1000, 1000, N).astype(np.int32),
    )


def _target_cells(fn_handle, limit=5):
    """Pick up to ``limit`` distinct written cells of a captured program."""
    entry = next(iter(fn_handle._cache.values()))
    # Micro-op regions of a MicroProgram; a functional program's
    # (architectural) regions come from its macro instructions.
    regions = program_regions(entry.program, CFG)
    cells = []
    for reg, (xs, xe, xstep), (rs, re_, rstep) in regions:
        for xb in range(xs, xe + 1, xstep):
            for row in range(rs, re_ + 1, rstep):
                cells.append((xb, reg, row))
    # Spread across the footprint instead of clustering at the front.
    step = max(len(cells) // limit, 1)
    return cells[::step][:limit]


class TestChecksumDetection:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_detects_injected_output_flips(self, backend):
        """>= 99% of flips into written cells are caught and healed."""
        total = detected = 0
        for name, fn in CORPUS:
            device = pim.init(config=CFG, backend=backend)
            handle = pim.compile(fn, verify="checksum")
            a, b = _arrays()
            golden = pim.to_numpy(
                handle(pim.from_numpy(a), pim.from_numpy(b))
            )
            before = handle.fault_retries
            for index, (xb, reg, row) in enumerate(
                _target_cells(handle)
            ):
                # Fresh plan per injection: the overlay restarts at tick
                # 0, so the flip lands inside the next verify window.
                plan = FaultPlan(
                    CFG, seed=index, flips=[(1, xb, reg, row, index % CFG.word_size)]
                )
                device.install_faults(plan)
                out = pim.to_numpy(
                    handle(pim.from_numpy(a), pim.from_numpy(b))
                )
                np.testing.assert_array_equal(out, golden)
                total += 1
            detected = detected + handle.fault_retries - before
        assert total >= 20
        assert detected / total >= 0.99, (
            f"checksum verify caught {detected}/{total} injected flips"
        )

    def test_rotating_seed_targets_detected(self):
        """CI rotates ``REPRO_FAULT_SEED``; any seed's choice of written
        cell, bit, and payload must still be detected and healed."""
        seed = resolve_fault_seed(23)
        rng = np.random.default_rng(seed)
        device = pim.init(config=CFG, backend="simulator")
        handle = pim.compile(lambda a, b: (a + b) * b, verify="checksum")
        a, b = _arrays(int(rng.integers(1, 2**20)))
        golden = pim.to_numpy(handle(pim.from_numpy(a), pim.from_numpy(b)))
        cells = _target_cells(handle, limit=64)
        before = handle.fault_retries
        for _ in range(8):
            xb, reg, row = cells[int(rng.integers(0, len(cells)))]
            bit = int(rng.integers(0, CFG.word_size))
            device.install_faults(
                FaultPlan(CFG, seed=int(seed), flips=[(1, xb, reg, row, bit)])
            )
            out = pim.to_numpy(
                handle(pim.from_numpy(a), pim.from_numpy(b))
            )
            np.testing.assert_array_equal(out, golden)
        assert handle.fault_retries - before == 8, (
            f"seed {seed}: every targeted flip must be caught"
        )

    def test_flip_outside_written_regions_is_silent(self):
        """A flip that cannot corrupt the output raises nothing."""
        device = pim.init(config=CFG, backend="simulator")
        handle = pim.compile(lambda a, b: a + b, verify="checksum")
        a, b = _arrays()
        golden = pim.to_numpy(handle(pim.from_numpy(a), pim.from_numpy(b)))
        # Inputs are read, never written: region checksums skip them.
        plan = FaultPlan(CFG, seed=0, flips=[(1, 0, 0, 0, 0)])
        device.install_faults(plan)
        out = pim.to_numpy(handle(pim.from_numpy(a), pim.from_numpy(b)))
        np.testing.assert_array_equal(out, golden)
        assert handle.fault_retries == 0

    @pytest.mark.parametrize("route", ["driver", "numpy", "pooled"])
    def test_one_window_behind_every_run_program(self, route):
        """``Driver.run_program``, ``NumpyBackend.run_program`` and
        ``PooledBackend.run_program`` all close a verified replay with
        :func:`repro.faults.checksum.verify_window`: same counters, same
        error, region-precise on a single device and whole-image on the
        pool."""
        from repro.backend import NumpyBackend, SimulatorBackend
        from repro.isa.dtypes import int32
        from repro.isa.instructions import RInstr, ROp, WriteInstr
        from repro.pool import PooledBackend

        backend = {
            "driver": lambda: SimulatorBackend(CFG),
            "numpy": lambda: NumpyBackend(CFG),
            "pooled": lambda: PooledBackend(CFG, workers=2, worker_backend="numpy"),
        }[route]()
        runner = backend.driver if route == "driver" else backend
        program = backend.compile(
            [WriteInstr(1, 5), RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)],
            name="windowed",
        )
        regional = route != "pooled"

        # No overlay installed: the window is empty, the check still counts.
        runner.run_program(program, verify="checksum")
        assert family(backend.counters(), "fault") == {"verify_checks": 1}

        # A flip outside the written regions (register 5 is never
        # touched): silent where regions are checked, caught by the
        # pool's whole-image CRC.
        backend.install_faults(FaultPlan(CFG, seed=0, flips=[(1, 0, 5, 0, 0)]))
        if regional:
            runner.run_program(program, verify="checksum")
        else:
            with pytest.raises(ChecksumError) as info:
                runner.run_program(program, verify="checksum")
            assert info.value.regions is None
        counters = family(backend.counters(), "fault")
        assert counters["flips"] == 1 and counters["verify_checks"] == 2
        assert counters.get("verify_detected", 0) == (0 if regional else 1)

        # A flip inside the destination register: caught everywhere, and
        # named where regions are checked.
        backend.install_faults(FaultPlan(CFG, seed=0, flips=[(1, 3, 2, 7, 4)]))
        with pytest.raises(ChecksumError, match="windowed") as info:
            runner.run_program(program, verify="checksum")
        if regional:
            assert [region[0] for region in info.value.regions] == [2]
        after = family(backend.counters(), "fault")
        assert after["verify_checks"] == 3
        assert after["verify_detected"] == counters.get("verify_detected", 0) + 1

    @pytest.mark.parametrize(
        "kind", ["simulator", "numpy", "pooled-numpy", "pooled-simulator"]
    )
    def test_one_overlay_one_tick_per_dispatch_unit(self, kind):
        """Every backend arms its driver: the overlay ``install_faults``
        returns is ``lowering.faults``, and each dispatch unit — an eager
        macro, a stream, a replay (verified or not) — ticks it once, while
        compiling ticks nothing."""
        from repro.backend import NumpyBackend, SimulatorBackend
        from repro.isa.dtypes import int32
        from repro.isa.instructions import MoveInstr, RInstr, ROp, WriteInstr
        from repro.pool import PooledBackend

        if kind.startswith("pooled"):
            backend = PooledBackend(
                CFG, workers=2, worker_backend=kind.split("-")[1]
            )
        else:
            backend = {"simulator": SimulatorBackend, "numpy": NumpyBackend}[kind](CFG)
        overlay = backend.install_faults(FaultPlan(CFG, seed=0))
        assert backend.lowering.faults is overlay
        add = RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)
        units = [
            lambda: backend.execute(WriteInstr(1, 5)),
            lambda: backend.execute(add),
            lambda: backend.run_stream([
                WriteInstr(0, 3), add,
                MoveInstr(src_reg=2, dst_reg=3, src_thread=0, dst_thread=0,
                          warp_mask=RangeMask(0, 1, 1), warp_dist=2),
            ]),
            lambda: backend.compile([add], name="unit"),
            lambda: backend.run_program(backend.compile([add], name="unit")),
            lambda: backend.run_program(
                backend.compile([add], name="unit"), verify="checksum"
            ),
        ]
        ticks = []
        for unit in units:
            unit()
            ticks.append(overlay.counters["ticks"])
        assert ticks == [1, 2, 3, 3, 4, 5]
        counters = family(backend.counters(), "fault")
        assert counters["ticks"] == 5 and counters["verify_checks"] == 1

    def test_checksum_counters_surface(self):
        device = pim.init(config=CFG, backend="simulator")
        handle = pim.compile(lambda a, b: a * b, verify="checksum")
        a, b = _arrays()
        handle(pim.from_numpy(a), pim.from_numpy(b))  # capture
        handle(pim.from_numpy(a), pim.from_numpy(b))  # verified replay
        counters = family(device.backend.counters(), "fault")
        assert counters["verify_checks"] >= 1
        assert counters.get("verify_detected", 0) == 0

    def test_profiler_reports_fault_counts(self):
        device = pim.init(config=CFG, backend="simulator")
        device.install_faults(FaultPlan(CFG, seed=0, flips=[(1, 0, 0, 0, 0)]))
        a, b = _arrays()
        with pim.Profiler() as prof:
            pim.to_numpy(pim.from_numpy(a) + pim.from_numpy(b))
        assert prof.counters.get("fault.ticks", 0) >= 1


class TestReplayEngineIdentity:
    """Cached plans and op-by-op lowering must see one fault timeline."""

    def _run(self, **backend_kwargs):
        device = pim.init(config=CFG, backend="simulator", **backend_kwargs)
        a, b = _arrays()
        x, y = pim.from_numpy(a), pim.from_numpy(b)
        pim.to_numpy(x * y + x)  # warm: later rounds replay cached plans
        plan = FaultPlan(CFG, seed=5, random_flips=6, flip_window=(1, 8))
        device.install_faults(plan)
        outs = [pim.to_numpy(x * y + x) for _ in range(4)]
        return (
            outs, device.backend.words.copy(), device.backend.stats.copy(),
            family(device.backend.counters(), "fault"),
            family(device.backend.counters(), "emit"),
        )

    def test_reference_and_vectorized_agree_under_faults(self):
        """Eager macros through vectorized plans versus a ``cache_size=0``
        device (every macro lowered and executed op-by-op): one tick per
        macro on both, so the same flips land in the same windows."""
        ref_outs, ref_words, ref_stats, ref_counts, ref_emit = self._run(
            cache_size=0
        )
        outs, words, stats, counts, emit = self._run()
        assert ref_emit["stream"] == 0 and emit["macro"] == 0
        assert emit["stream"] == ref_emit["macro"] > 0
        for ref_out, out in zip(ref_outs, outs):
            np.testing.assert_array_equal(ref_out, out)
        np.testing.assert_array_equal(ref_words, words)
        assert ref_stats == stats
        assert ref_counts["ticks"] == counts["ticks"]
        assert ref_counts["flips"] == counts["flips"] > 0


class TestStuckCellQuarantine:
    def test_persistent_fault_quarantines_and_recompiles(self):
        """Capture clean -> detect -> retry fails -> quarantine -> golden."""
        device = pim.init(config=CFG, backend="simulator")
        handle = pim.compile(lambda a, b: a * b + a, verify="checksum")
        rng = np.random.default_rng(3)
        a = (2 * rng.integers(-500, 500, N)).astype(np.int32)
        b = (2 * rng.integers(-500, 500, N)).astype(np.int32)
        golden = pim.to_numpy(handle(pim.from_numpy(a), pim.from_numpy(b)))
        # Wedge a user-register output cell: a*b+a is even for even
        # inputs, so stuck-at-1 on bit 0 always corrupts the value.
        user_cell = next(
            (xb, reg, row)
            for (xb, reg, row) in _target_cells(handle, limit=64)
            if reg < CFG.user_registers
        )
        xb, reg, row = user_cell
        plan = FaultPlan(
            CFG, seed=0, stuck=[(xb, reg, row, 0, "stuck1")], stuck_from_tick=1
        )
        device.install_faults(plan)
        out = pim.to_numpy(handle(pim.from_numpy(a), pim.from_numpy(b)))
        np.testing.assert_array_equal(out, golden)
        assert handle.fault_retries >= 1
        assert handle.fault_recompiles >= 1
        assert (reg, xb) in device.allocator.bad_cells

    def test_allocator_plans_around_bad_cells(self):
        device = pim.init(config=CFG, backend="simulator")
        bad = device.allocator.quarantine([(0, 0)])
        assert bad == [(0, 0)]
        tensor = pim.zeros(N, dtype=pim.int32)
        slot = tensor.slot
        assert not (slot.reg == 0 and slot.warp_start <= 0 < slot.warp_stop)
        del tensor
        assert device.allocator.bad_cells == {(0, 0)}


class TestPoolResilience:
    def _work(self):
        rng = np.random.default_rng(11)
        a = rng.integers(-1000, 1000, 64).astype(np.int32)
        b = rng.integers(-1000, 1000, 64).astype(np.int32)
        x = pim.from_numpy(a)
        y = pim.from_numpy(b)
        return pim.to_numpy(x * y + x)

    def test_shard_failover_bit_identical(self):
        big = PIMConfig(crossbars=8, rows=8)
        pim.init(config=big, backend="simulator")
        golden = self._work()
        device = pim.init(config=big, backend="pooled", workers=4)
        plan = FaultPlan(big, seed=1, worker_failures=[(1, 0), (0, 1)])
        device.install_faults(plan)
        out = self._work()
        np.testing.assert_array_equal(out, golden)
        counters = family(device.backend.counters(), "fault")
        assert counters["failovers"] == counters["worker_faults"] >= 1
        assert counters["quarantined_shards"] >= 1
        assert [k for k, _ in device.backend.quarantined_workers]

    def test_unplanned_crash_surfaces_shard_context(self):
        big = PIMConfig(crossbars=8, rows=8)
        device = pim.init(config=big, backend="pooled", workers=4)

        def boom(arg):
            raise RuntimeError("kaput")

        device.backend.workers[1].execute = boom
        device.backend.workers[1].run_program = boom
        with pytest.raises(ShardError, match=r"pool shard 1 \(warps 2\.\.3\)"):
            self._work()


class TestDisabledIdentity:
    """Fault hooks must be invisible when no faults are armed."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_plan_is_bit_and_cycle_identical(self, backend):
        outputs, images, cycles = [], [], []
        for plan in (None, FaultPlan(CFG, seed=9)):
            device = pim.init(config=CFG, backend=backend)
            if plan is not None:
                device.install_faults(plan)
            handle = pim.compile(lambda a, b: a * b + a)
            a, b = _arrays()
            out = pim.to_numpy(
                handle(pim.from_numpy(a), pim.from_numpy(b))
            )
            out2 = pim.to_numpy(
                handle(pim.from_numpy(a), pim.from_numpy(b))
            )
            np.testing.assert_array_equal(out, out2)
            outputs.append(out)
            images.append(device.backend.words.copy())
            cycles.append(device.backend.stats.cycles)
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(images[0], images[1])
        assert cycles[0] == cycles[1]

    def test_verify_costs_no_cycles(self):
        a, b = _arrays()
        cycles = []
        for verify in (None, "checksum"):
            device = pim.init(config=CFG, backend="simulator")
            handle = pim.compile(lambda a, b: a * b + a, verify=verify)
            handle(pim.from_numpy(a), pim.from_numpy(b))
            handle(pim.from_numpy(a), pim.from_numpy(b))
            cycles.append(device.backend.stats.cycles)
        assert cycles[0] == cycles[1]


class TestSeedPlumbing:
    def test_resolve_fault_seed_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert resolve_fault_seed(42) == 42
        monkeypatch.setenv("REPRO_FAULT_SEED", "12345")
        assert resolve_fault_seed() == 12345

    def test_same_seed_same_plan(self):
        one = FaultPlan(CFG, seed=77, random_flips=8, random_stuck1=3)
        two = FaultPlan(CFG, seed=77, random_flips=8, random_stuck1=3)
        assert one.flips == two.flips
        assert one.stuck == two.stuck

    def test_fingerprint_rejects_other_geometry(self):
        plan = FaultPlan(CFG, seed=0)
        other = PIMConfig(crossbars=8, rows=8)
        device = pim.init(config=other, backend="simulator")
        with pytest.raises(ValueError, match="different geometry"):
            device.install_faults(plan)


@pytest.fixture(autouse=True)
def _fresh_device():
    yield
    pim.reset()
