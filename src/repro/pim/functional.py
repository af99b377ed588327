"""Module-level tensor constructors and functions (the NumPy-style API).

These are the entry points the paper's example programs use::

    x = pim.zeros(2 ** 20, dtype=pim.float32)
    y = pim.from_numpy(np.arange(8, dtype=np.int32))
    z = pim.where(x < y, x, y)
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.arch.masks import RangeMask
from repro.isa.dtypes import DType, float32, int32, value_to_raw
from repro.isa.instructions import ROp
from repro.pim.device import PIMDevice, default_device
from repro.pim.tensor import Tensor, TensorLike, TensorView, _fill, _nary


def _resolve_dtype(dtype) -> DType:
    if isinstance(dtype, DType):
        return dtype
    if dtype in (int, np.int32) or np.dtype(dtype) == np.dtype(np.int32):
        return int32
    if dtype in (float, np.float32) or np.dtype(dtype) == np.dtype(np.float32):
        return float32
    raise TypeError(f"unsupported dtype {dtype!r} (use pim.int32 / pim.float32)")


def full(
    length: int,
    value,
    dtype=float32,
    device: Optional[PIMDevice] = None,
) -> Tensor:
    """Allocate a tensor and fill it with a constant (masked writes)."""
    dtype = _resolve_dtype(dtype)
    device = device or default_device()
    out = Tensor(device, length, dtype)
    _fill(out, RangeMask.all(length), value_to_raw(value, dtype))
    return out


def zeros(length: int, dtype=float32, device: Optional[PIMDevice] = None) -> Tensor:
    """``pim.zeros(n, dtype=pim.float32)`` — the paper's canonical allocator."""
    return full(length, 0, dtype=dtype, device=device)


def ones(length: int, dtype=float32, device: Optional[PIMDevice] = None) -> Tensor:
    """A tensor of ones."""
    return full(length, 1, dtype=dtype, device=device)


def from_numpy(
    values: np.ndarray,
    device: Optional[PIMDevice] = None,
    via: str = "dma",
) -> Tensor:
    """Create a tensor from a host array.

    ``via="dma"`` (default) loads through the device's bulk interface —
    the paper's correctness-flow step (1), not counted in PIM cycles.
    ``via="isa"`` issues one genuine write macro-instruction per element
    instead (useful for end-to-end instruction-path tests).
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("PIM tensors are one-dimensional")
    if values.dtype == np.int32:
        dtype = int32
    elif values.dtype == np.float32:
        dtype = float32
    else:
        raise TypeError(f"unsupported array dtype {values.dtype} (int32/float32)")
    device = device or default_device()
    out = Tensor(device, values.size, dtype)
    if via == "dma":
        device.load_array(out.slot, values, dtype)
    elif via == "isa":
        for index, value in enumerate(values):
            out[index] = value
    else:
        raise ValueError("via must be 'dma' or 'isa'")
    return out


def to_numpy(tensor: TensorLike) -> np.ndarray:
    """Copy a tensor or view back to the host."""
    return tensor.to_numpy()


def arange(length: int, dtype=int32, device: Optional[PIMDevice] = None) -> Tensor:
    """``0, 1, ..., length-1`` (loaded via the bulk interface)."""
    dtype = _resolve_dtype(dtype)
    return from_numpy(np.arange(length, dtype=dtype.np_dtype), device=device)


def where(cond: TensorLike, if_true, if_false):
    """Elementwise select: ``if_true`` where ``cond`` is nonzero.

    ``cond`` is an int32 0/1 tensor or view (as produced by comparisons);
    the value operands may be tensors, views, or scalars. With two scalar
    values the result dtype is inferred from them (float32 if either is a
    float, int32 otherwise) and both are broadcast against the condition.
    """
    from repro.pim.tensor import _broadcast_scalar, _is_tensor, _node

    if not _is_tensor(cond):
        raise TypeError("where() condition must be a tensor")
    with _node(cond.device, "where", length=cond.length):
        if not _is_tensor(if_true) and not _is_tensor(if_false):
            floatish = (float, np.floating)
            dtype = (
                float32
                if isinstance(if_true, floatish) or isinstance(if_false, floatish)
                else int32
            )
            if_true = _broadcast_scalar(if_true, cond, dtype=dtype)
            if_false = _broadcast_scalar(if_false, cond, dtype=dtype)
        elif not _is_tensor(if_true):
            if_true = _broadcast_scalar(if_true, if_false)
        elif not _is_tensor(if_false):
            if_false = _broadcast_scalar(if_false, if_true)
        if if_true.dtype.name != if_false.dtype.name:
            raise TypeError("where() value operands must share a dtype")
        return _nary(ROp.MUX, [cond, if_true, if_false], if_true.dtype)
