"""The paper's tests/unit.py equivalent (artifact appendix Section F).

Parameterized arithmetic and comparison correctness over random tensors,
verified against NumPy — the exact structure of the paper's `test_arit`,
including the int32 ``__truediv__`` semantics (true divide then cast).
"""

import zlib

import numpy as np
import pytest

import repro.pim as pim

from tests.conftest import rand_float32, rand_int32

NELEM = 64  # fills the test device's memory; the paper uses 2**16


def _random_inputs(dtype_np, rng, avoid_zero=False):
    if dtype_np == np.int32:
        data = rand_int32(rng, NELEM)
        if avoid_zero:
            data[data == 0] = 7
        return data
    data = rand_float32(rng, NELEM)
    if avoid_zero:
        data[data == 0] = np.float32(1.0)
    return data


@pytest.mark.parametrize(
    "function,gt_func,dtype_np",
    [
        ("__add__", np.add, np.int32),
        ("__sub__", np.subtract, np.int32),
        ("__mul__", np.multiply, np.int32),
        ("__truediv__", np.true_divide, np.int32),
        ("__add__", np.add, np.float32),
        ("__sub__", np.subtract, np.float32),
        ("__mul__", np.multiply, np.float32),
        ("__truediv__", np.true_divide, np.float32),
    ],
)
def test_arit(device, function, gt_func, dtype_np):
    rng = np.random.default_rng(
        zlib.crc32(repr((function, dtype_np.__name__)).encode())
    )
    refs = [
        _random_inputs(dtype_np, rng, avoid_zero=(function == "__truediv__"))
        for _ in range(2)
    ]
    tensors = [pim.from_numpy(ref) for ref in refs]

    with pim.Profiler():
        result = getattr(tensors[0], function)(tensors[1])
    result = pim.to_numpy(result)

    with np.errstate(all="ignore"):
        ground_truth = gt_func(refs[0], refs[1]).astype(dtype_np)
    if dtype_np == np.float32:
        np.testing.assert_array_equal(ground_truth, result)
    else:
        # int32 true-divide: the paper casts the float64 quotient back.
        np.testing.assert_array_equal(ground_truth, result)


@pytest.mark.parametrize(
    "function,gt_func,dtype_np",
    [
        ("__lt__", np.less, np.int32),
        ("__le__", np.less_equal, np.int32),
        ("__gt__", np.greater, np.int32),
        ("__ge__", np.greater_equal, np.int32),
        ("__eq__", np.equal, np.int32),
        ("__ne__", np.not_equal, np.int32),
        ("__lt__", np.less, np.float32),
        ("__le__", np.less_equal, np.float32),
        ("__gt__", np.greater, np.float32),
        ("__ge__", np.greater_equal, np.float32),
        ("__eq__", np.equal, np.float32),
        ("__ne__", np.not_equal, np.float32),
    ],
)
def test_comparison(device, function, gt_func, dtype_np):
    rng = np.random.default_rng(
        zlib.crc32(repr((function, dtype_np.__name__)).encode())
    )
    refs = [_random_inputs(dtype_np, rng) for _ in range(2)]
    # Inject equal elements so EQ/NE/LE/GE see both outcomes.
    refs[1][::5] = refs[0][::5]
    tensors = [pim.from_numpy(ref) for ref in refs]

    result = pim.to_numpy(getattr(tensors[0], function)(tensors[1]))
    ground_truth = gt_func(refs[0], refs[1]).astype(np.int32)
    np.testing.assert_array_equal(ground_truth, result)


def test_cordic_sine_suite(device):
    """CORDIC sine on random angles in [-pi/2, pi/2] (Section VI-A)."""
    rng = np.random.default_rng(2024)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, 32).astype(np.float32)
    result = pim.cordic_sin(pim.from_numpy(angles)).to_numpy()
    np.testing.assert_allclose(result, np.sin(angles), atol=2e-6)
