"""Data types of the ISA: 32-bit two's-complement integers and IEEE floats.

Registers hold raw N-bit words; these helpers convert between raw words and
Python/NumPy values. Floating point follows IEEE-754 binary32 with
round-to-nearest-even; the driver's gate-level implementation flushes
subnormals to zero (see ``docs/architecture.md`` §11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DType:
    """An ISA data type.

    Attributes:
        name: short identifier (``"int32"`` / ``"float32"``).
        bits: register width consumed by one element.
        np_dtype: the matching NumPy dtype for host-side conversion.
    """

    name: str
    bits: int
    np_dtype: np.dtype

    def __repr__(self) -> str:
        return self.name

    @property
    def is_float(self) -> bool:
        return self.np_dtype.kind == "f"


int32 = DType("int32", 32, np.dtype(np.int32))
float32 = DType("float32", 32, np.dtype(np.float32))

ALL_DTYPES = (int32, float32)


def value_to_raw(value, dtype: DType) -> int:
    """Convert a Python/NumPy scalar into its raw N-bit register word."""
    if dtype is int32 or dtype.name == "int32":
        return int(np.int64(int(value)) & np.int64(0xFFFFFFFF))
    if dtype is float32 or dtype.name == "float32":
        return int(np.float32(value).view(np.uint32))
    raise TypeError(f"unsupported dtype {dtype}")


def raw_to_value(raw: int, dtype: DType):
    """Convert a raw N-bit register word back into a scalar value."""
    if not 0 <= raw < (1 << 32):
        raise ValueError("raw word out of 32-bit range")
    if dtype is int32 or dtype.name == "int32":
        return int(np.uint32(raw).view(np.int32))
    if dtype is float32 or dtype.name == "float32":
        return float(np.uint32(raw).view(np.float32))
    raise TypeError(f"unsupported dtype {dtype}")


def array_to_raw(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Vectorized conversion of an array into raw uint32 register words."""
    if dtype.name == "int32":
        return values.astype(np.int32).view(np.uint32)
    if dtype.name == "float32":
        return values.astype(np.float32).view(np.uint32)
    raise TypeError(f"unsupported dtype {dtype}")


def raw_to_array(raw: np.ndarray, dtype: DType) -> np.ndarray:
    """Vectorized conversion of raw uint32 register words into values."""
    words = raw.astype(np.uint32)
    if dtype.name == "int32":
        return words.view(np.int32)
    if dtype.name == "float32":
        return words.view(np.float32)
    raise TypeError(f"unsupported dtype {dtype}")
