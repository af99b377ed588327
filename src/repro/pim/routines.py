"""General-purpose PIM routines: reduction, bitonic sort, CORDIC.

These are the paper's showcase algorithms (Section VI-A), written on top
of the tensor/view machinery:

- :func:`reduce` — logarithmic-time reduction (summation/product): each
  round moves the upper half next to the lower half (bulk-grouped intra-
  and inter-crossbar moves) and performs one masked vector operation.
- :func:`sort` — a bitonic sorting network; every compare-and-swap stage
  is one partner move plus a compare, an XOR with a precomputed direction
  pattern, and a mux — all full-vector instructions.
- :func:`cordic_sin`/:func:`cordic_cos` — sine/cosine approximation by
  CORDIC rotation, expressed purely with tensor arithmetic.

All working tensors of a routine come from one *group allocation*, which
guarantees they share a warp range (so the vector instructions inside the
routine never need alignment fallbacks).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.arch.masks import RangeMask
from repro.isa.dtypes import float32, int32, value_to_raw
from repro.isa.instructions import ROp, WriteInstr
from repro.pim.tensor import (
    Tensor,
    TensorLike,
    TensorView,
    _bulk_move,
    _fill,
    _issue_op,
    _node,
)

#: Number of CORDIC rotation iterations (enough for float32 precision).
CORDIC_ITERATIONS = 24


def reduce(operand: TensorLike, op: ROp = ROp.ADD):
    """Reduce a tensor or view to a scalar in logarithmically many rounds.

    Round invariant: the first ``n`` elements of the working tensor hold
    the partial result. Each round moves elements ``[n - n//2, n)`` onto a
    scratch tensor aligned with elements ``[0, n//2)`` and applies one
    masked vector op, halving ``n`` (odd leftovers ride along untouched).
    """
    if op not in (ROp.ADD, ROp.MUL):
        raise ValueError("reduction supports ADD (sum) and MUL (prod)")
    n = operand.length
    if n == 1:
        return operand[0]
    device, dtype = operand.device, operand.dtype
    with _node(device, "reduce", op=op.value, length=n):
        return _reduce_lowered(operand, op, device, dtype, n)


def _reduce_lowered(operand: TensorLike, op: ROp, device, dtype, n: int):
    slots = device.allocator.allocate_group(n, 2)
    work = Tensor._from_slot(device, slots[0], n, dtype)
    scratch = Tensor._from_slot(device, slots[1], n, dtype)
    _bulk_move(
        device, operand._base.slot, operand._mask.indices(),
        work.slot, range(n),
    )
    while n > 1:
        half = n // 2
        keep = n - half  # elements [0, keep) stay; [keep, n) fold in
        _bulk_move(device, work.slot, range(keep, n), scratch.slot, range(half))
        _issue_op(op, dtype, work, [work, scratch], RangeMask(0, half - 1, 1))
        n = keep
    return work[0]


def _write_pattern(tensor: Tensor, bit: int) -> None:
    """Fill ``tensor[i] = (i >> bit) & 1`` using masked constant writes.

    Within a warp (``2**bit < rows``) the 1-runs are unions of strided row
    masks; at or above warp granularity they are warp-range masks. Bits at
    or beyond the tensor length produce all zeros.
    """
    device = tensor.device
    rows = device.rows
    n = tensor.length
    slot = tensor.slot
    one = value_to_raw(1, int32)
    _fill(tensor, RangeMask.all(n), value_to_raw(0, int32))
    period = 1 << (bit + 1)
    run = 1 << bit
    if run >= n:
        return  # the bit is constant 0 over the index range
    if rows & (rows - 1):
        # Non-power-of-two row counts break the per-warp periodicity; fall
        # back to writing each 1-run through the generic segmenter.
        for start in range(run, n, period):
            _fill(tensor, RangeMask(start, min(start + run, n) - 1, 1), one)
    elif run < rows:
        # Row-level pattern, identical in every warp the tensor spans.
        warp_mask = RangeMask(slot.warp_start, slot.warp_stop - 1, 1)
        span = min(rows, n)
        for offset in range(run, min(period, span)):
            row_mask = RangeMask(
                offset, offset + ((span - 1 - offset) // period) * period, period
            )
            device.execute(WriteInstr(slot.reg, one, warp_mask, row_mask))
    else:
        warp_run = run // rows
        warp_period = period // rows
        total_warps = -(-n // rows)
        all_rows = RangeMask.all(min(rows, n))
        start = warp_run
        while start < total_warps:
            stop = min(start + warp_run, total_warps) - 1
            warp_mask = RangeMask(slot.warp_start + start, slot.warp_start + stop, 1)
            device.execute(WriteInstr(slot.reg, one, warp_mask, all_rows))
            start += warp_period


def _pad_value(dtype) -> int:
    """Raw pad word sorting above every input (+inf / INT_MAX)."""
    if dtype.is_float:
        return 0x7F800000  # +inf
    return 0x7FFFFFFF


def sort(operand: TensorLike) -> Tensor:
    """Ascending bitonic sort; returns a new compact tensor.

    Every stage ``(k, j)`` is fully vectored: the partner permutation
    ``P[i] = W[i ^ j]`` becomes bulk-grouped move instructions, then
    ``W' = mux(C ^ Bj ^ Bk, W, P)`` with ``C = (W < P)`` and ``Bm`` the
    index-bit-``m`` pattern — one mux encodes both the min/max selection
    and the per-block sort direction (``docs/architecture.md`` §11).
    Pattern tensors are regenerated per stage from masked constant writes,
    so the register footprint is constant (6 slots) for any input size.
    Non-power-of-two lengths are padded with +inf / INT_MAX.
    """
    device, dtype = operand.device, operand.dtype
    n = operand.length
    if n == 1:
        result = Tensor(device, 1, dtype)
        _bulk_move(device, operand._base.slot, operand._mask.indices(),
                   result.slot, range(1))
        return result
    with _node(device, "sort", length=n):
        return _sort_lowered(operand, device, dtype, n)


def _sort_lowered(operand: TensorLike, device, dtype, n: int) -> Tensor:
    padded = 1 << (n - 1).bit_length()

    slots = device.allocator.allocate_group(padded, 6)
    work = Tensor._from_slot(device, slots[0], padded, dtype)
    partner = Tensor._from_slot(device, slots[1], padded, dtype)
    cmp = Tensor._from_slot(device, slots[2], padded, int32)
    sel = Tensor._from_slot(device, slots[3], padded, int32)
    pattern_j = Tensor._from_slot(device, slots[4], padded, int32)
    pattern_k = Tensor._from_slot(device, slots[5], padded, int32)

    if padded > n:
        _fill(work, RangeMask.all(padded), _pad_value(dtype))
    _bulk_move(device, operand._base.slot, operand._mask.indices(),
               work.slot, range(n))

    full = RangeMask.all(padded)

    def vector(op: ROp, dest: Tensor, *operands: Tensor, dt=dtype):
        _issue_op(op, dt, dest, operands, full)

    k = 2
    while k <= padded:
        _write_pattern(pattern_k, int(math.log2(k)))  # zeros at the top level
        j = k // 2
        while j >= 1:
            # partner[i] = work[i ^ j]
            _bulk_move(
                device,
                work.slot,
                (i ^ j for i in range(padded)),
                partner.slot,
                range(padded),
            )
            vector(ROp.LT, cmp, work, partner)  # C = (W < P), 0/1 words
            _write_pattern(pattern_j, int(math.log2(j)))
            vector(ROp.BIT_XOR, sel, pattern_j, pattern_k, dt=int32)
            vector(ROp.BIT_XOR, sel, cmp, sel, dt=int32)
            # W' = sel ? W : P   (keep-min/max, docs/architecture.md §11)
            vector(ROp.MUX, work, sel, work, partner)
            j //= 2
        k *= 2

    result = Tensor(device, n, dtype, reference=work.slot)
    _bulk_move(device, work.slot, range(n), result.slot, range(n))
    return result


def _cordic_tables():
    """(angles, gain) for the rotation-mode CORDIC iterations."""
    angles = [math.atan(2.0**-k) for k in range(CORDIC_ITERATIONS)]
    gain = 1.0
    for k in range(CORDIC_ITERATIONS):
        gain *= 1.0 / math.sqrt(1.0 + 2.0 ** (-2 * k))
    return angles, gain


def _cordic(z: TensorLike):
    """Run CORDIC rotation; returns (cos-like, sin-like) tensors.

    Valid for angles in [-pi/2, pi/2] (the paper's benchmark range).
    """
    if not z.dtype.is_float:
        raise TypeError("CORDIC requires a float32 tensor")
    from repro.pim.functional import where

    angles, gain = _cordic_tables()
    x = _full_like(z, gain)
    y = _full_like(z, 0.0)
    angle = _full_like(z, 0.0)
    _bulk_move(z.device, z._base.slot, z._mask.indices(),
               angle.slot, range(z.length))
    for k in range(CORDIC_ITERATIONS):
        positive = angle >= 0.0
        scale = 2.0**-k
        x_step = y * scale
        y_step = x * scale
        new_x = where(positive, x - x_step, x + x_step)
        new_y = where(positive, y + y_step, y - y_step)
        angle = where(positive, angle - angles[k], angle + angles[k])
        x, y = new_x, new_y
    return x, y


def _full_like(ref: TensorLike, value: float) -> Tensor:
    out = Tensor(ref.device, ref.length, ref.dtype, reference=ref._base.slot)
    _fill(out, RangeMask.all(out.length), value_to_raw(value, ref.dtype))
    return out


def cordic_sin(z: TensorLike) -> Tensor:
    """Elementwise sine approximation for angles in [-pi/2, pi/2]."""
    return _cordic(z)[1]


def cordic_cos(z: TensorLike) -> Tensor:
    """Elementwise cosine approximation for angles in [-pi/2, pi/2]."""
    return _cordic(z)[0]
