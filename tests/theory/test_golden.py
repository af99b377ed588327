"""Tests for the golden (NumPy-reference) semantics themselves.

The golden functions are the oracle for every correctness test, so their
edge-case semantics (trunc division, C modulo, INT_MIN wrap, raw bitwise
on floats) deserve direct pinning.
"""

import numpy as np
import pytest

from repro.isa.dtypes import float32, int32
from repro.isa.instructions import ROp
from repro.theory.golden import golden_rtype


def arr(*values, dtype=np.int32):
    return np.array(values, dtype=dtype)


class TestIntegerDivision:
    def test_trunc_toward_zero(self):
        got = golden_rtype(ROp.DIV, int32, arr(7, -7, 7, -7), arr(2, 2, -2, -2))
        np.testing.assert_array_equal(got, [3, -3, -3, 3])

    def test_mod_sign_of_dividend(self):
        got = golden_rtype(ROp.MOD, int32, arr(7, -7, 7, -7), arr(2, 2, -2, -2))
        np.testing.assert_array_equal(got, [1, -1, 1, -1])

    def test_int_min_by_minus_one_wraps(self):
        got = golden_rtype(ROp.DIV, int32, arr(-(2**31)), arr(-1))
        assert got[0] == -(2**31)
        got_mod = golden_rtype(ROp.MOD, int32, arr(-(2**31)), arr(-1))
        assert got_mod[0] == 0

    def test_division_identity(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-(2**31), 2**31, 64, dtype=np.int64).astype(np.int32)
        b = rng.integers(-(2**31), 2**31, 64, dtype=np.int64).astype(np.int32)
        b[b == 0] = 1
        q = golden_rtype(ROp.DIV, int32, a, b).astype(np.int64)
        r = golden_rtype(ROp.MOD, int32, a, b).astype(np.int64)
        reconstructed = (q * b + r) & 0xFFFFFFFF
        np.testing.assert_array_equal(
            reconstructed.astype(np.uint32).view(np.int32), a
        )


class TestBitwiseOnFloats:
    def test_xor_of_floats_is_raw(self):
        a = arr(1.0, -1.0, dtype=np.float32)
        got = golden_rtype(ROp.BIT_XOR, float32, a, a)
        assert (got.view(np.uint32) == 0).all()

    def test_not_flips_all_bits(self):
        a = arr(0.0, dtype=np.float32)
        got = golden_rtype(ROp.BIT_NOT, float32, a)
        assert got.view(np.uint32)[0] == 0xFFFFFFFF


class TestMiscSemantics:
    def test_mux_uses_condition_truthiness(self):
        got = golden_rtype(
            ROp.MUX, int32, arr(1, 0, 2), arr(10, 20, 30), arr(-1, -2, -3)
        )
        np.testing.assert_array_equal(got, [10, -2, 30])

    def test_comparisons_are_int32_words(self):
        got = golden_rtype(ROp.LT, float32,
                           arr(1.0, 2.0, dtype=np.float32),
                           arr(2.0, 1.0, dtype=np.float32))
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, [1, 0])

    def test_unknown_op_rejected(self):
        class Fake:
            pass

        with pytest.raises((ValueError, KeyError)):
            golden_rtype(Fake(), int32, arr(1))  # type: ignore[arg-type]


class TestCounts:
    def test_serial_formulas(self):
        from repro.theory.counts import (
            parallel_add_cycles,
            serial_add_cycles,
            serial_mul_cycles,
        )

        assert serial_add_cycles(32) == 288
        assert serial_mul_cycles(32) > serial_add_cycles(32) * 10
        assert parallel_add_cycles(32) < serial_add_cycles(32)

    def test_gate_vs_overhead_partition(self):
        from repro.sim.stats import SimStats
        from repro.theory.counts import overhead_cycles, theoretical_cycles

        stats = SimStats()
        stats.record("logic_h_nor")
        stats.record("logic_h_init1")
        stats.record("mask_row")
        stats.record("move")
        assert theoretical_cycles(stats) == 2  # nor + move
        assert overhead_cycles(stats) == 2  # init + mask
        assert theoretical_cycles(stats) + overhead_cycles(stats) == stats.cycles
