"""Tests for lazy graph capture: ``pim.compile`` / ``pim.trace``.

The contract under test (see ``repro.pim.compile``): a compiled function
is bit-identical to eager mode — same memory image, same cycle counters —
on the bit-accurate backend, replays with fresh input data, caches per
signature, and fails loudly on anything replay could not reproduce. A
capture records and dispatches nothing: the first call's result is the
first replay of the lowered program.
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.masks import RangeMask
from repro.driver.compiler import CompileError
from repro.driver.program import MicroProgram
from repro.isa.instructions import MoveInstr
from repro.sim.simulator import SimulationError

BACKENDS = {
    "simulator": {"backend": "simulator"},
    "numpy": {"backend": "numpy"},
    "pooled": {"backend": "pooled", "workers": 2, "worker_backend": "numpy"},
}


def fig12(a, b):
    z = a * b + a
    return z[::2].sum()


def _setup(backend="simulator"):
    device = pim.init(crossbars=4, rows=16, backend=backend)
    x = pim.zeros(64, dtype=pim.float32)
    y = pim.zeros(64, dtype=pim.float32)
    x[4], y[4] = 8.0, 0.5
    x[5], y[5] = 20.0, 1.0
    x[8], y[8] = 10.0, 1.0
    return device, x, y


@pytest.fixture(autouse=True)
def _cleanup():
    yield
    pim.reset()


class TestCompiledVsEager:
    def test_first_call_matches_eager(self):
        device, x, y = _setup()
        before = device.stats_snapshot()
        eager = fig12(x, y)
        eager_cycles = device.backend.stats.diff(before).cycles
        eager_words = device.backend.words.copy()
        pim.reset()

        device, x, y = _setup()
        func = pim.compile(fig12)
        before = device.stats_snapshot()
        result = func(x, y)
        cycles = device.backend.stats.diff(before).cycles
        assert result == eager
        assert cycles == eager_cycles
        assert np.array_equal(device.backend.words, eager_words)

    def test_replay_is_cycle_exact_and_bit_identical(self):
        device, x, y = _setup()
        eager = fig12(x, y)
        eager_delta = None
        before = device.stats_snapshot()
        fig12(x, y)
        eager_delta = device.backend.stats.diff(before)
        eager_words = device.backend.words.copy()
        pim.reset()

        device, x, y = _setup()
        func = pim.compile(fig12)
        assert func(x, y) == eager  # capture
        before = device.stats_snapshot()
        assert func(x, y) == eager  # replay
        delta = device.backend.stats.diff(before)
        assert delta.cycles == eager_delta.cycles
        assert delta.op_counts == eager_delta.op_counts
        assert delta.gates_executed == eager_delta.gates_executed
        assert np.array_equal(device.backend.words, eager_words)
        assert func.captures == 1

    def test_replay_with_fresh_data(self):
        _setup()
        func = pim.compile(fig12)
        x = pim.zeros(64, dtype=pim.float32)
        y = pim.zeros(64, dtype=pim.float32)
        x[2], y[2] = 4.0, 2.0
        assert func(x, y) == 12.0  # capture: 4 * 2 + 4
        x[2] = 6.0
        assert func(x, y) == 18.0  # replay, same tensors, new data
        x2 = pim.zeros(64, dtype=pim.float32)
        y2 = pim.zeros(64, dtype=pim.float32)
        x2[0], y2[0] = 1.0, 3.0
        assert func(x2, y2) == 4.0  # replay, different tensors
        assert func.captures == 1

    def test_tensor_output_replays(self):
        _setup()

        @pim.compile
        def scale(a):
            return a * 2.0 + 1.0

        x = pim.zeros(32, dtype=pim.float32)
        x[3] = 5.0
        out = scale(x)
        assert out.to_numpy()[3] == 11.0
        x[3] = 7.0
        out = scale(x)
        assert out.to_numpy()[3] == 15.0


def _observed(device):
    """Everything a dispatch would move: bill, memory, route counters."""
    backend = device.backend
    return (
        backend.stats.copy(), backend.words.copy(),
        backend.replay_counters(), backend.emit_counters(),
    )


def _same(first, second):
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(first, second)
    )


def _mixed(a, b):
    """Outputs, a mutated argument and a deferred scalar in one function."""
    z = a * b + a
    a[1] = 7.0
    return z, (z - b)[::2].sum()


class TestRecordOnlyCapture:
    """A traced call allocates and records; only a replay reaches the chip."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_nothing_is_dispatched_while_tracing(self, backend):
        device = pim.init(crossbars=4, rows=16, **BACKENDS[backend])
        x = pim.from_numpy(np.arange(64, dtype=np.float32))
        y = pim.from_numpy(np.full(64, 0.5, dtype=np.float32))
        during = []

        @pim.compile
        def probed(a, b):
            z = a * b + a
            total = z[::2].sum()
            during.append(_observed(device))
            return z, total

        before = _observed(device)
        probed.graph_for(x, y)  # records and lowers: runs nothing
        assert _same(during.pop(), before) and _same(_observed(device), before)
        assert probed.captures == 1

        z, total = probed(x, y)  # the first replay
        assert probed.captures == 1 and not during
        after = _observed(device)
        assert after[0].cycles > before[0].cycles
        assert not np.array_equal(after[1], before[1])
        expected = np.arange(64, dtype=np.float32) * 1.5
        assert z.to_numpy().tolist() == expected.tolist()
        assert total == float(expected[::2].sum())
        if backend == "simulator":
            assert after[2]["vectorized"] == before[2]["vectorized"] + 1
            # No stream emitted: one replay, plus the deferred scalar
            # read, a non-R macro sent alone (one unplanned unit).
            assert after[3] == {**before[3], "macro": before[3]["macro"] + 1}

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_level0_first_call_is_one_eager_call(self, backend):
        """Memory image and the whole ``SimStats`` delta, not just cycles."""
        images, deltas, results = [], [], []
        for call in (_mixed, pim.compile(_mixed)):
            device = pim.init(crossbars=4, rows=16, **BACKENDS[backend])
            x = pim.from_numpy(np.arange(64, dtype=np.float32))
            y = pim.from_numpy(np.full(64, 0.25, dtype=np.float32))
            before = device.stats_snapshot()
            z, total = call(x, y)
            deltas.append(device.backend.stats.diff(before))
            images.append(device.backend.words.copy())
            results.append((z.to_numpy().tolist(), x.to_numpy().tolist(), total))
            pim.reset()
        assert deltas[0] == deltas[1]
        assert np.array_equal(images[0], images[1])
        assert results[0] == results[1]

    @pytest.mark.parametrize("level", pim.OPT_LEVELS)
    @pytest.mark.parametrize("shape", ["plain", "aliased", "permuted"])
    def test_first_call_second_call_and_eager_agree(self, level, shape):
        """Outputs, mutated arguments and deferred scalars, when the
        arguments alias (``f(x, x)``) and when a re-call permutes the
        captured tensors (``f(y, x)``)."""
        host_x = np.arange(64, dtype=np.float32) - 20.0
        host_y = np.linspace(0.5, 2.0, 64).astype(np.float32)

        def run(call):
            pim.init(crossbars=4, rows=16)
            x, y = pim.from_numpy(host_x), pim.from_numpy(host_y)
            calls = {
                "plain": [(x, y), (x, y)],
                "aliased": [(x, x), (x, x)],
                "permuted": [(x, y), (y, x)],
            }[shape]
            seen = []
            for args in calls:
                z, total = call(*args)
                seen.append((
                    z.to_numpy().tolist(), x.to_numpy().tolist(),
                    y.to_numpy().tolist(), float(total),
                ))
            pim.reset()
            return seen

        assert run(pim.compile(_mixed, opt_level=level)) == run(_mixed)

    def test_checksum_verify_covers_the_first_call(self):
        from repro.faults import FaultPlan, program_regions

        device = pim.init(crossbars=4, rows=8)
        handle = pim.compile(lambda a, b: a * b + a, verify="checksum")
        a = pim.from_numpy(np.arange(32, dtype=np.int32))
        b = pim.from_numpy(np.arange(32, dtype=np.int32) + 3)
        # Capture without running, to aim a flip at a cell the program
        # writes; the flip lands in the first call's verify window.
        entry = handle._entry_for((a, b))
        reg, (xb, _, _), (row, _, _) = program_regions(
            entry.program, device.config
        )[-1]
        device.install_faults(
            FaultPlan(device.config, seed=0, flips=[(1, xb, reg, row, 0)])
        )
        out = handle(a, b)
        golden = np.arange(32) * (np.arange(32) + 3) + np.arange(32)
        assert out.to_numpy().tolist() == golden.tolist()
        assert handle.fault_retries == 1 and handle.captures == 1
        counters = device.backend.fault_counters()
        assert counters["verify_checks"] == 2
        assert counters["verify_detected"] == 1

    def test_steering_scalar_reports_no_value_it_never_had(self):
        _setup()

        @pim.compile
        def bad(a):
            return a + float(a[0])

        x = pim.ones(8, dtype=pim.float32)
        with pytest.raises(pim.TraceError, match="no value yet") as info:
            bad(x)
        assert "1.0" not in str(info.value)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_chip_errors_surface_from_the_capturing_call(self, backend):
        """What eager mode raises at the offending instruction, the
        capturing call raises too: same type, naming the program, with
        nothing of the stream executed."""
        cases = [
            # An H-tree pattern the chip refuses (sources meet targets).
            (MoveInstr(0, 1, 0, 0, RangeMask(0, 1, 1), 1), SimulationError),
            # A destination thread outside the crossbar.
            (MoveInstr(0, 1, 0, 99, RangeMask(0, 0, 1), 0), CompileError),
        ]
        for instr, error in cases:
            device = pim.init(crossbars=4, rows=16, **BACKENDS[backend])
            x = pim.ones(64, dtype=pim.int32)

            @pim.compile
            def broken(a):
                doubled = a + a
                device.execute(instr)
                return doubled

            before = _observed(device)
            with pytest.raises(error, match="program 'broken'"):
                broken(x)
            assert _same(_observed(device), before)
            with pytest.raises((SimulationError, CompileError, IndexError)):
                device.execute(instr)  # eager: refused at the instruction
            pim.reset()


class TestOptimizedLowering:
    def test_optimize_true_same_memory_fewer_cycles(self):
        device, x, y = _setup()
        expected = fig12(x, y)
        before = device.stats_snapshot()
        fig12(x, y)
        eager_delta = device.backend.stats.diff(before)
        eager_words = device.backend.words.copy()
        pim.reset()

        device, x, y = _setup()
        func = pim.compile(fig12, opt_level=1)
        assert func(x, y) == expected  # capture (eager, full cycles)
        before = device.stats_snapshot()
        assert func(x, y) == expected  # optimized replay
        delta = device.backend.stats.diff(before)
        assert delta.cycles < eager_delta.cycles  # mask preambles coalesced
        assert np.array_equal(device.backend.words, eager_words)


class TestOptimizerLevels:
    """The graph optimizer (`opt_level >= 2`) on compiled functions.

    Contract: optimized replays keep every observable value bit-identical
    to eager mode (outputs, arguments, deferred scalar reads) while
    spending fewer cycles; levels are part of no shared state, so
    switching levels mid-session never replays a stale program.
    """

    def test_all_levels_bit_identical_outputs(self):
        device, x, y = _setup()
        expected = fig12(x, y)
        pim.reset()
        for level in pim.OPT_LEVELS:
            device, x, y = _setup()
            func = pim.compile(fig12, opt_level=level)
            assert func(x, y) == expected  # capture
            assert func(x, y) == expected  # replay
            assert func.captures == 1
            pim.reset()

    def test_cse_saves_cycles_and_matches_eager(self):
        def recompute(a, b):
            num = a * b + a
            den = a * b - a        # a*b recomputed: the CSE victim
            return num, den.sum()

        device, x, y = _setup()
        num, total = recompute(x, y)
        expected = (num.to_numpy().copy(), float(total))
        pim.reset()

        cycles = {}
        for level in (0, 2):
            device, x, y = _setup()
            func = pim.compile(recompute, opt_level=level)
            func(x, y)  # capture
            before = device.stats_snapshot()
            num, total = func(x, y)
            cycles[level] = device.backend.stats.diff(before).cycles
            assert np.array_equal(num.to_numpy(), expected[0])
            assert float(total) == expected[1]
            pim.reset()
        assert cycles[2] < cycles[0]

    def test_dead_temporary_frees_reserved_cells(self):
        def with_dead(a, b):
            _ = a - b              # freed mid-trace, never observed
            return a + b

        reserved = {}
        for level in (0, 2):
            device, x, y = _setup()
            func = pim.compile(with_dead, opt_level=level)
            out = func(x, y)
            assert out.to_numpy()[4] == 8.5
            entry = next(iter(func._cache.values()))
            reserved[level] = len(entry.reserved)
            report = func.opt_report(x, y)
            if level >= 2:
                assert report.passes.get("dce_dropped", 0) >= 1
                assert report.cells_after < report.cells_before
            pim.reset()
        assert reserved[2] < reserved[0]

    def test_opt_report_counts_pre_vs_post(self):
        device, x, y = _setup()
        func = pim.compile(fig12, opt_level=2)
        func(x, y)
        report = func.opt_report(x, y)
        assert report.opt_level == 2
        assert report.macros_after <= report.macros_before
        assert report.cycles_after < report.cycles_before
        assert 0.0 < report.cycle_reduction < 1.0
        assert "optimizer" in report.summary()
        # Level 0 replays verbatim: no report.
        verbatim = pim.compile(fig12, opt_level=0)
        verbatim(x, y)
        assert verbatim.opt_report(x, y) is None

    def test_profiler_reports_optimizer_activity(self):
        device, x, y = _setup()
        func = pim.compile(fig12, opt_level=2)
        with pim.Profiler() as prof:
            func(x, y)
        assert len(prof.opt_reports) == 1
        assert prof.opt_reports[0].cycles_after < prof.opt_reports[0].cycles_before

    def test_profiler_reports_survive_device_report_cap(self):
        """Regression: once the device's bounded report list is full, the
        trim on each new lowering must not hide in-block reports from
        the profiler (an index snapshot would see an empty slice)."""
        device, x, y = _setup()
        device.opt_reports.extend(
            pim.OptReport(name=f"old{i}", opt_level=1) for i in range(32)
        )
        func = pim.compile(fig12, opt_level=2)
        with pim.Profiler() as prof:
            func(x, y)
        assert len(prof.opt_reports) == 1
        assert prof.opt_reports[0].name == "fig12"

    def test_level1_report_matches_true_baseline(self):
        """Level 1's derived pre-peephole bill (no second lowering) must
        equal what actually compiling the verbatim stream reports."""
        device, x, y = _setup()
        with pim.trace() as session:
            _ = x * y + x
        verbatim = session.lower(opt_level=0)
        baseline = device.backend.program_stats(verbatim)
        session.lower(opt_level=1)
        report = session.last_report
        assert report.cycles_before == baseline.cycles == baseline.micro_ops
        assert report.cycles_after < report.cycles_before

    def test_switching_levels_mid_session_not_stale(self):
        """Two compiled variants of one function on one device: each must
        replay its own program (the regression the ProgramCache
        optimizer-configuration key closes)."""
        device, x, y = _setup()
        expected = fig12(x, y)
        verbatim = pim.compile(fig12, opt_level=0)
        tuned = pim.compile(fig12, opt_level=2)
        assert verbatim(x, y) == expected
        assert tuned(x, y) == expected
        cycles = {}
        for name, func in (("verbatim", verbatim), ("tuned", tuned)):
            before = device.stats_snapshot()
            assert func(x, y) == expected
            cycles[name] = device.backend.stats.diff(before).cycles
        assert cycles["tuned"] < cycles["verbatim"]

    def test_levels_on_numpy_backend_match_simulator_cycles(self):
        totals = {}
        for backend in ("simulator", "numpy"):
            device, x, y = _setup(backend)
            func = pim.compile(fig12, opt_level=3)
            func(x, y)
            before = device.stats_snapshot()
            func(x, y)
            totals[backend] = device.backend.stats.diff(before).cycles
            pim.reset()
        assert totals["simulator"] == totals["numpy"]


class TestOptimizerEdgeCases:
    """Aliased/permuted arguments, deferred reads, mid-trace frees."""

    def test_aliased_arguments_optimize_correctly(self):
        _setup()

        @pim.compile(opt_level=3)
        def square_sum(a, b):
            return a * b + a

        x = pim.zeros(8, dtype=pim.float32)
        x[0] = 3.0
        out = square_sum(x, x)       # capture with aliasing: a and b share
        assert out.to_numpy()[0] == 12.0
        x[0] = 5.0
        out = square_sum(x, x)       # replay
        assert out.to_numpy()[0] == 30.0
        assert square_sum.captures == 1

    def test_permuted_replay_after_optimized_capture(self):
        _setup()

        @pim.compile(opt_level=3)
        def sub(a, b):
            return a - b

        x = pim.zeros(16, dtype=pim.float32)
        y = pim.zeros(16, dtype=pim.float32)
        x[0], y[0] = 10.0, 3.0
        assert sub(x, y).to_numpy()[0] == 7.0
        assert sub(y, x).to_numpy()[0] == -7.0  # swapped replay
        assert x.to_numpy()[0] == 10.0 and y.to_numpy()[0] == 3.0
        assert sub.captures == 1

    def test_deferred_read_survives_optimization(self):
        """The reduction feeding a returned ScalarRef must not be swept
        as a dead temporary: its cell is re-read after every replay."""
        _setup()

        @pim.compile(opt_level=3)
        def strided_total(a):
            return a[::2].sum()

        x = pim.zeros(32, dtype=pim.float32)
        x[0], x[2] = 1.5, 2.5
        assert float(strided_total(x)) == 4.0   # capture
        x[2] = 10.5
        assert float(strided_total(x)) == 12.0  # replay re-reads the cell
        assert strided_total.captures == 1

    def test_mid_trace_free_with_cell_reuse(self):
        """A temporary freed mid-trace whose cells a *live* tensor then
        reuses: the optimizer must keep every write the live tensor's
        contents depend on."""
        _setup()

        @pim.compile(opt_level=3)
        def churn(a):
            tmp = a + 1.0
            del tmp                   # cells return to the allocator
            keep = a * 2.0            # may land in tmp's old cells
            return keep

        x = pim.zeros(16, dtype=pim.float32)
        x[1] = 4.0
        assert churn(x).to_numpy()[1] == 8.0
        x[1] = 6.0
        assert churn(x).to_numpy()[1] == 12.0
        assert churn.captures == 1

    def test_mid_stream_read_still_fails_loudly_when_optimized(self):
        """The deferred-read overwrite check applies at every level."""
        _setup()

        @pim.compile(opt_level=3)
        def bad(a, b):
            s = (a * b)[0]
            t = a + b
            return s, t[0]

        x = pim.zeros(8, dtype=pim.float32)
        y = pim.zeros(8, dtype=pim.float32)
        x[0], y[0] = 4.0, 5.0
        with pytest.raises(pim.TraceError, match="overwrite"):
            bad(x, y)

    def test_view_output_of_optimized_graph(self):
        _setup()

        @pim.compile(opt_level=2)
        def evens(a):
            return (a * 2.0)[::2]

        x = pim.zeros(16, dtype=pim.float32)
        x[2] = 1.25
        assert evens(x).to_numpy()[1] == 2.5
        x[2] = 2.25
        assert evens(x).to_numpy()[1] == 4.5


class TestSignatureCache:
    def test_new_length_recaptures(self):
        _setup()
        func = pim.compile(fig12)
        x = pim.zeros(32, dtype=pim.float32)
        y = pim.zeros(32, dtype=pim.float32)
        func(x, y)
        a = pim.zeros(16, dtype=pim.float32)
        b = pim.zeros(16, dtype=pim.float32)
        func(a, b)
        assert func.captures == 2
        assert func.cached_graphs == 2

    def test_scalar_arguments_are_part_of_the_key(self):
        _setup()

        @pim.compile
        def shift(a, k):
            return a + k

        x = pim.zeros(16, dtype=pim.float32)
        x[0] = 1.0
        assert shift(x, 2.0).to_numpy()[0] == 3.0
        assert shift(x, 5.0).to_numpy()[0] == 6.0  # new constant, new graph
        assert shift.captures == 2
        assert shift(x, 2.0).to_numpy()[0] == 3.0  # cached replay
        assert shift.captures == 2

    def test_reset_invalidates_cached_graphs(self):
        _setup()
        func = pim.compile(fig12)
        x = pim.zeros(64, dtype=pim.float32)
        y = pim.zeros(64, dtype=pim.float32)
        func(x, y)
        pim.reset()
        _, x, y = _setup()
        func(x, y)
        assert func.captures == 2

    def test_dtype_is_part_of_the_key(self):
        _setup()

        @pim.compile
        def double(a):
            return a + a

        xf = pim.zeros(16, dtype=pim.float32)
        xi = pim.zeros(16, dtype=pim.int32)
        double(xf)
        double(xi)
        assert double.captures == 2


class TestReplayMarshalling:
    def test_permuted_captured_tensors(self):
        """Passing the captured tensors back in swapped positions must not
        clobber one argument with the other mid-marshal."""
        _setup()

        @pim.compile
        def sub(a, b):
            return a - b

        x = pim.zeros(16, dtype=pim.float32)
        y = pim.zeros(16, dtype=pim.float32)
        x[0], y[0] = 10.0, 3.0
        assert sub(x, y).to_numpy()[0] == 7.0   # capture
        assert sub(y, x).to_numpy()[0] == -7.0  # swapped replay
        # The captured tensors keep their own data (marshalling restores).
        assert x.to_numpy()[0] == 10.0
        assert y.to_numpy()[0] == 3.0
        assert sub(x, y).to_numpy()[0] == 7.0
        assert sub.captures == 1


    def test_duplicated_argument_aliasing_recaptures(self):
        """f(x, x) binds both operands to one register; a later f(y, z)
        must recapture (the aliasing pattern is part of the signature)."""
        _setup()

        @pim.compile
        def add(a, b):
            return a + b

        x = pim.zeros(8, dtype=pim.float32)
        y = pim.zeros(8, dtype=pim.float32)
        z = pim.zeros(8, dtype=pim.float32)
        x[0], y[0], z[0] = 50.0, 10.0, 100.0
        assert add(x, x).to_numpy()[0] == 100.0   # capture with aliasing
        assert add(y, z).to_numpy()[0] == 110.0   # distinct args: recapture
        assert add(x, x).to_numpy()[0] == 100.0   # aliased replay still cached
        assert add.captures == 2

    def test_argument_mutation_writes_back(self):
        """Eager mode mutates the caller's tensor in place; replay must
        copy the computed contents back out."""
        _setup()

        @pim.compile
        def touch(a):
            a[0] = 9.0
            return a[1]

        p = pim.zeros(8, dtype=pim.float32)
        q = pim.zeros(8, dtype=pim.float32)
        touch(p)  # capture
        assert p.to_numpy()[0] == 9.0
        touch(q)  # replay with a different tensor
        assert q.to_numpy()[0] == 9.0


class TestCacheEviction:
    def test_scalar_sweep_does_not_exhaust_memory(self):
        """Each cached graph reserves device cells; the LRU bound must
        release them as signatures churn (a scalar sweep would otherwise
        die with PIMMemoryError)."""
        _setup()

        @pim.compile(cache_size=4)
        def shift(a, k):
            return a + k

        x = pim.zeros(16, dtype=pim.float32)
        x[0] = 1.0
        for step in range(40):  # far more signatures than the device holds
            assert shift(x, float(step)).to_numpy()[0] == 1.0 + step
        assert shift.cached_graphs == 4
        assert shift.captures == 40


class TestTraceLimitations:
    def test_view_arguments_rejected(self):
        _setup()
        func = pim.compile(fig12)
        x = pim.zeros(64, dtype=pim.float32)
        y = pim.zeros(64, dtype=pim.float32)
        with pytest.raises(pim.TraceError, match="compact"):
            func(x[::2], y[::2])

    def test_data_dependent_comparison_rejected(self):
        """Branching on a PIM scalar comparison would bake the wrong branch
        into the cached program — it must raise, not fall back to identity."""
        _setup()

        @pim.compile
        def bad(a):
            s = a[0]
            if s == 3.0:
                return a + 100.0
            return a + 1.0

        x = pim.zeros(8, dtype=pim.float32)
        x[0] = 3.0
        with pytest.raises(pim.TraceError, match="compare"):
            bad(x)

    def test_data_dependent_scalar_use_rejected(self):
        _setup()

        @pim.compile
        def bad(a):
            total = a.sum()          # ScalarRef during trace
            return a * total         # ...used to steer computation

        x = pim.ones(16, dtype=pim.float32)
        with pytest.raises(pim.TraceError, match="trace"):
            bad(x)

    def test_scalar_usable_after_trace(self):
        _setup()

        @pim.compile
        def total(a):
            return a.sum()

        x = pim.ones(16, dtype=pim.float32)
        value = total(x)
        assert float(value) == 16.0
        assert value == 16.0

    def test_mid_stream_read_of_recycled_cell_rejected(self):
        """A deferred read whose cell later operations overwrite cannot be
        re-read after replay — capture must fail loudly, not corrupt."""
        _setup()

        @pim.compile
        def bad(a, b):
            s = (a * b)[0]      # temporary dies; its cell gets recycled
            t = a + b
            return s, t[0]

        x = pim.zeros(8, dtype=pim.float32)
        y = pim.zeros(8, dtype=pim.float32)
        x[0], y[0] = 4.0, 5.0
        with pytest.raises(pim.TraceError, match="overwrite"):
            bad(x, y)

    def test_dma_load_inside_trace_rejected(self):
        _setup()

        @pim.compile
        def bad(a):
            k = pim.from_numpy(np.full(8, 10, dtype=np.int32))
            return a + k

        x = pim.zeros(8, dtype=pim.int32)
        with pytest.raises(pim.TraceError, match="DMA"):
            bad(x)

    def test_dma_readback_inside_trace_rejected(self):
        _setup()

        @pim.compile
        def bad(a):
            return a.to_numpy()

        x = pim.zeros(8, dtype=pim.int32)
        with pytest.raises(pim.TraceError, match="DMA"):
            bad(x)

    def test_nested_compiled_function_inlines(self):
        _setup()

        inner = pim.compile(lambda a: a + 1.0)

        @pim.compile
        def outer(a):
            return inner(a) * 2.0

        x = pim.zeros(16, dtype=pim.float32)
        out = outer(x)
        assert out.to_numpy()[0] == 2.0
        assert inner.captures == 0  # inlined into the outer capture
        assert outer.captures == 1
        assert outer(x).to_numpy()[0] == 2.0


class TestRoutinesUnderCapture:
    def test_where_and_comparisons(self):
        _setup()

        @pim.compile
        def clamp(a):
            return pim.where(a > 1.0, 1.0, a)

        x = pim.zeros(32, dtype=pim.float32)
        x[1], x[2] = 0.5, 3.0
        out = clamp(x)
        assert out.to_numpy()[1] == 0.5
        assert out.to_numpy()[2] == 1.0
        x[2] = 0.25
        assert clamp(x).to_numpy()[2] == 0.25
        assert clamp.captures == 1

    def test_sort_inside_compiled_function(self):
        _setup()

        @pim.compile
        def sorted_front(a):
            return a.sort()

        x = pim.from_numpy(np.array([4, 1, 3, 2], dtype=np.int32))
        assert sorted_front(x).to_numpy().tolist() == [1, 2, 3, 4]
        x2 = pim.from_numpy(np.array([9, -1, 5, 0], dtype=np.int32))
        assert sorted_front(x2).to_numpy().tolist() == [-1, 0, 5, 9]
        assert sorted_front.captures == 1


class TestTraceSession:
    def test_trace_records_graph_nodes(self):
        device, x, y = _setup()
        with pim.trace() as session:
            fig12(x, y)
        kinds = {node.kind for node in session.graph.nodes}
        assert {"mul", "add", "view", "reduce", "read"} <= kinds
        assert len(session.graph.instructions) > 0
        assert "graph" in session.graph.summary()

    def test_lowered_program_replays_on_device(self):
        device, x, y = _setup()
        with pim.trace() as session:
            z = x * y + x
        program = session.lower()
        assert isinstance(program, MicroProgram)
        before = device.backend.words.copy()
        device.run_program(program)  # recompute: idempotent stream
        assert np.array_equal(device.backend.words, before)

    def test_optimized_lowering_saves_cycles(self):
        device, x, y = _setup()
        with pim.trace() as session:
            _ = x * y + x
        raw = session.lower(opt_level=0)
        tight = session.lower(opt_level=1)
        assert len(tight) < len(raw)

    def test_trace_lower_opt_level_with_kept_reads(self):
        """The pim.trace() path: graph passes apply with in-stream reads
        kept, and the optimized program still replays correctly."""
        device, x, y = _setup()
        with pim.trace() as session:
            z = x * y + x
            w = x * y - x          # recomputed product
            total = w[0]           # in-stream scalar read
        verbatim = session.lower(opt_level=0)
        tuned = session.lower(opt_level=2)
        assert len(tuned) < len(verbatim)
        assert session.last_report is not None
        assert session.last_report.passes.get("cse_dropped", 0) >= 1
        before_z = z.to_numpy().copy()
        response = device.run_program(tuned)  # idempotent recompute
        assert np.array_equal(z.to_numpy(), before_z)
        assert response is not None  # the kept read still responds

    def test_nested_trace_rejected(self):
        device, x, y = _setup()
        with pim.trace():
            with pytest.raises(pim.TraceError, match="already active"):
                device.begin_trace()
