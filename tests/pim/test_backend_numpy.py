"""Differential tests: the NumPy functional backend vs the bit-accurate one.

The backend contract (see ``repro.backend``): same tensor-level results
on the tested value domain, and — because the functional backend charges
the micro-op streams the real driver lowers — *identical* cycle counters,
per-kind op counts, and gate totals for every operation.
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.backend import NumpyBackend, SimulatorBackend, make_backend
from tests.conftest import rand_float32, rand_int32


@pytest.fixture(autouse=True)
def _cleanup():
    yield
    pim.reset()


def _run_on(backend, workload):
    """Run a workload on a fresh device; returns (result, stats delta)."""
    device = pim.init(crossbars=4, rows=16, backend=backend)
    before = device.stats_snapshot()
    result = workload()
    delta = device.backend.stats.diff(before)
    return result, delta


def _assert_parity(workload, exact_bits=True):
    ref, ref_delta = _run_on("simulator", workload)
    got, got_delta = _run_on("numpy", workload)
    if exact_bits:
        np.testing.assert_array_equal(np.asarray(got), np.asarray(ref))
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-6)
    assert got_delta.cycles == ref_delta.cycles
    assert got_delta.op_counts == ref_delta.op_counts
    assert got_delta.gates_executed == ref_delta.gates_executed


class TestElementwiseParity:
    def test_int_arithmetic(self, rng):
        a_host = rand_int32(rng, 48)
        b_host = rand_int32(rng, 48)

        def workload():
            a = pim.from_numpy(a_host)
            b = pim.from_numpy(b_host)
            return ((a + b) - (a * b)).to_numpy()

        _assert_parity(workload)

    def test_int_divmod_truncates_toward_zero(self, rng):
        a_host = np.array([7, -7, 9, -9, 5, -5, 0, 123], dtype=np.int32)
        b_host = np.array([2, 2, -4, -4, 3, -3, 7, -11], dtype=np.int32)

        def workload():
            a = pim.from_numpy(a_host)
            b = pim.from_numpy(b_host)
            return np.stack([(a / b).to_numpy(), (a % b).to_numpy()])

        _assert_parity(workload)

    def test_float_arithmetic(self, rng):
        a_host = rand_float32(rng, 48)
        b_host = rand_float32(rng, 48)

        def workload():
            a = pim.from_numpy(a_host)
            b = pim.from_numpy(b_host)
            return ((a * b) + (a - b)).to_numpy()

        _assert_parity(workload)

    def test_float_division(self, rng):
        a_host = rand_float32(rng, 32, exp_band=6)
        b_host = rand_float32(rng, 32, exp_band=6)

        def workload():
            a = pim.from_numpy(a_host)
            b = pim.from_numpy(b_host)
            return (a / b).to_numpy()

        _assert_parity(workload)

    def test_comparisons_and_unary(self, rng):
        a_host = rand_int32(rng, 32)
        b_host = rand_int32(rng, 32)

        def workload():
            a = pim.from_numpy(a_host)
            b = pim.from_numpy(b_host)
            return np.stack([
                (a < b).to_numpy(),
                (a >= b).to_numpy(),
                (a == a).to_numpy(),
                (-a).to_numpy(),
                abs(a).to_numpy(),
                a.sign().to_numpy(),
                (~a).to_numpy(),
                (a ^ b).to_numpy(),
            ])

        _assert_parity(workload)


class TestRoutineParity:
    def test_where_with_views(self, rng):
        a_host = rand_float32(rng, 64)
        b_host = rand_float32(rng, 64)

        def workload():
            a = pim.from_numpy(a_host)
            b = pim.from_numpy(b_host)
            return pim.where(a[::2] < b[::2], a[::2], b[::2]).to_numpy()

        _assert_parity(workload)

    def test_reduction_and_sort(self, rng):
        host = rand_int32(rng, 48)

        def workload():
            x = pim.from_numpy(host)
            return (x.sum(), x.sort().to_numpy())

        (ref_sum, ref_sorted), ref_delta = _run_on("simulator", workload)
        (got_sum, got_sorted), got_delta = _run_on("numpy", workload)
        assert got_sum == ref_sum
        np.testing.assert_array_equal(got_sorted, ref_sorted)
        assert got_delta.cycles == ref_delta.cycles
        assert got_delta.op_counts == ref_delta.op_counts

    def test_misaligned_operands_stage_identically(self, rng):
        """Mixed-base arithmetic exercises the group-staging move path
        (including the overlapping-run fallback) on both backends."""
        a_host = rand_int32(rng, 40)
        b_host = rand_int32(rng, 20)

        def workload():
            a = pim.from_numpy(a_host)
            b = pim.from_numpy(b_host)
            return (a[::2] + b).to_numpy()

        _assert_parity(workload)


class TestBackendInterface:
    def test_init_by_name_and_class(self):
        device = pim.init(crossbars=4, rows=16, backend="numpy")
        assert isinstance(device.backend, NumpyBackend)
        device = pim.init(crossbars=4, rows=16, backend=NumpyBackend)
        assert isinstance(device.backend, NumpyBackend)
        device = pim.init(crossbars=4, rows=16)
        assert isinstance(device.backend, SimulatorBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            pim.init(crossbars=4, rows=16, backend="quantum")
        for alias in ("sim", "bit", "functional", "pool"):  # no aliases
            with pytest.raises(
                ValueError,
                match=r"choose from \['numpy', 'pooled', 'simulator'\]$",
            ):
                pim.init(crossbars=4, rows=16, backend=alias)

    def test_failed_init_keeps_previous_default_alive(self):
        pim.init(crossbars=4, rows=16)
        x = pim.ones(8, dtype=pim.int32)
        with pytest.raises(ValueError, match="unknown backend"):
            pim.init(crossbars=4, rows=16, backend="bogus")
        # The old default survived the failed replacement.
        assert x.to_numpy().sum() == 8

    def test_prebuilt_backend_instance_adopted(self):
        from repro.arch.config import small_config
        from repro.pim.device import PIMDevice

        config = small_config(crossbars=4, rows=16)
        instance = NumpyBackend(config)
        device = PIMDevice(backend=instance)  # no config: adopt the backend's
        assert device.backend is instance
        assert device.config == config
        # An equal-but-distinct config also matches (value equality).
        device = PIMDevice(small_config(crossbars=4, rows=16), backend=instance)
        assert device.backend is instance
        with pytest.raises(ValueError, match="different PIMConfig"):
            PIMDevice(small_config(crossbars=8, rows=16), backend=instance)

    def test_simulator_attribute_raises_on_numpy_backend(self):
        device = pim.init(crossbars=4, rows=16, backend="numpy")
        with pytest.raises(AttributeError, match="no simulator"):
            device.simulator
        with pytest.raises(AttributeError, match="no host driver"):
            device.driver

    def test_profiler_works_on_numpy_backend(self):
        pim.init(crossbars=4, rows=16, backend="numpy")
        x = pim.from_numpy(np.arange(8, dtype=np.int32))
        with pim.Profiler() as prof:
            _ = x * x
        assert prof.cycles > 1000

    def test_compiled_graph_on_numpy_backend(self):
        pim.init(crossbars=4, rows=16, backend="numpy")

        @pim.compile
        def my_func(a, b):
            z = a * b + a
            return z[::2].sum()

        x = pim.zeros(64, dtype=pim.float32)
        y = pim.zeros(64, dtype=pim.float32)
        x[4], y[4] = 8.0, 0.5
        assert my_func(x, y) == 12.0
        x[4] = 16.0
        assert my_func(x, y) == 24.0
        assert my_func.captures == 1

    def test_program_rejected_on_other_geometry(self):
        device = pim.init(crossbars=4, rows=16, backend="numpy")
        x = pim.ones(8, dtype=pim.int32)
        with pim.trace() as session:
            _ = x + x
        program = session.lower()
        from repro.sim.simulator import SimulationError

        other = make_backend("numpy", __import__(
            "repro.arch.config", fromlist=["small_config"]
        ).small_config(crossbars=8, rows=32))
        with pytest.raises(SimulationError, match="fingerprint"):
            other.run_program(program)


class TestGuard:
    def test_guard_reaches_the_pricing_driver_and_bills_the_same(self):
        """``guard`` is a driver keyword like any other: it checks the
        pricing lowering's gate lifetimes and changes no cycle."""
        from repro.arch.config import small_config
        from repro.arch.masks import RangeMask
        from repro.isa.dtypes import float32, int32
        from repro.isa.instructions import RInstr, ROp

        config = small_config(crossbars=4, rows=16)
        stream = [
            RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
            RInstr(ROp.MUL, float32, dest=3, src_a=2, src_b=1,
                   warp_mask=RangeMask(1, 3, 2)),
            RInstr(ROp.LT, float32, dest=4, src_a=3, src_b=0,
                   row_mask=RangeMask(0, 14, 2)),
            RInstr(ROp.MUX, int32, dest=5, src_a=4, src_b=2, src_c=3),
        ]
        guarded = NumpyBackend(config, guard=True)
        plain = NumpyBackend(config, guard=False)
        assert guarded.lowering.guard and not plain.lowering.guard
        assert guarded.stream_stats(stream) == plain.stream_stats(stream)
        guarded.run_stream(stream)
        plain.run_stream(stream)
        assert guarded.stats == plain.stats
        assert guarded.stats.cycles > 0
