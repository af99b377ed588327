"""End-to-end Table II coverage: every (operation, dtype) cell executes
correctly through driver + simulator against the golden semantics."""

import zlib

import numpy as np
import pytest

from repro.isa.dtypes import float32, int32
from repro.isa.instructions import ARITY, SUPPORT_MATRIX, ROp
from repro.theory.golden import golden_rtype

from tests.conftest import rand_float32, rand_int32
from tests.driver.harness import Chip, assert_same_bits

N = 24


def _operands(rng, dtype, op):
    if dtype is int32:
        a = rand_int32(rng, N)
        b = rand_int32(rng, N)
        if op in (ROp.DIV, ROp.MOD):
            b[b == 0] = 3
    else:
        a = rand_float32(rng, N)
        b = rand_float32(rng, N)
    cond = rng.integers(0, 2, N).astype(np.int32)
    return a, b, cond


@pytest.mark.parametrize(
    "op,dtype",
    [
        (op, dtype)
        for op, dtypes in sorted(SUPPORT_MATRIX.items(), key=lambda kv: kv[0].value)
        for dtype in dtypes
    ],
    ids=lambda x: getattr(x, "value", None) or getattr(x, "name", str(x)),
)
def test_table_ii_cell(op, dtype):
    rng = np.random.default_rng(
        zlib.crc32(repr((op.value, dtype.name)).encode())
    )
    chip = Chip()
    a, b, cond = _operands(rng, dtype, op)
    np_a = a.view(dtype.np_dtype)
    np_b = b.view(dtype.np_dtype)

    chip.put(0, np_a, dtype)
    arity = ARITY[op]
    if op is ROp.MUX:
        chip.put(2, cond, int32)
        chip.put(1, np_b, dtype)
        chip.run(op, dtype, 3, 2, 0, 1)
        expected = golden_rtype(op, dtype, cond, np_a, np_b)
    elif arity == 2:
        chip.put(1, np_b, dtype)
        chip.run(op, dtype, 3, 0, 1)
        expected = golden_rtype(op, dtype, np_a, np_b)
    else:
        chip.run(op, dtype, 3, 0)
        expected = golden_rtype(op, dtype, np_a)

    if op in (ROp.BIT_NOT, ROp.BIT_AND, ROp.BIT_OR, ROp.BIT_XOR):
        # Bitwise ops act on raw words; read back as int32 so NaN bit
        # patterns survive the scalar round trip.
        got = chip.get(3, N, int32)
        assert_same_bits(got, expected.view(np.int32))
        return
    result_dtype = int32 if expected.dtype == np.int32 and dtype is float32 else dtype
    got = chip.get(3, N, result_dtype)
    assert_same_bits(got, expected.astype(result_dtype.np_dtype))
