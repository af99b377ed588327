"""PIM tensors and tensor views (Section V-A).

:class:`Tensor` is a compact 1-D vector: element ``i`` lives at register
``slot.reg`` of thread ``i % rows`` in warp ``slot.warp_start + i // rows``.
:class:`TensorView` wraps a tensor with a range mask, implementing Python
slicing (``x[::2]``) over the same underlying memory; operations on views
are lowered to row/warp-masked instructions, and inter-view data transfer
is automatically converted into (bulk-grouped) move instructions — the
paper's "tensor views" abstraction of inter-warp communication.

Operator overloading mirrors NumPy: ``+ - * / %``, comparisons (int32 0/1
results), bitwise ``& | ^ ~``, unary ``-``/``abs``. Mixed operands are
aligned automatically: a scalar is broadcast with masked writes, and a
misaligned tensor is copied next to its peer (the malloc fallback routine
of Section V-A).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.htree import _is_power_of, validate_move_pattern
from repro.arch.masks import RangeMask
from repro.driver.stream import MacroStream
from repro.isa.dtypes import DType, float32, int32, raw_to_value, value_to_raw
from repro.isa.instructions import (
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
)
from repro.pim.device import PIMDevice, default_device
from repro.pim.malloc import Slot

Scalar = Union[int, float, np.integer, np.floating]


def _active_trace(device: PIMDevice):
    """The device's trace session if *this thread* owns it, else None.

    Tensor work from other threads must never record into (or defer
    scalars against) a capture that happens to be in flight elsewhere.
    """
    return device._trace if device.tracing_here else None


def _node(device: PIMDevice, kind: str, **meta):
    """Graph-node scope when the device is tracing, else a no-op."""
    trace = _active_trace(device)
    if trace is None:
        return nullcontext()
    return trace.node(kind, **meta)


class _TensorOps:
    """What :class:`Tensor` and :class:`TensorView` share, written against
    ``length`` / ``dtype`` / ``device``: length and index checks, the
    routines, and the operator table."""

    def __len__(self) -> int:
        return self.length

    @property
    def shape(self) -> Tuple[int]:
        return (self.length,)

    def _check_index(self, key) -> int:
        index = int(key)
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(f"index {key} out of range for length {self.length}")
        return index

    # ------------------------------------------------------------------
    # Routines (implemented in repro.pim.routines)
    # ------------------------------------------------------------------
    def sum(self):
        from repro.pim import routines

        return routines.reduce(self, ROp.ADD)

    def prod(self):
        from repro.pim import routines

        return routines.reduce(self, ROp.MUL)

    def sort(self) -> "Tensor":
        from repro.pim import routines

        return routines.sort(self)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def __add__(self, other):
        return _elementwise(ROp.ADD, self, other)

    def __radd__(self, other):
        return _elementwise(ROp.ADD, other, self, device=self.device)

    def __sub__(self, other):
        return _elementwise(ROp.SUB, self, other)

    def __rsub__(self, other):
        return _elementwise(ROp.SUB, other, self, device=self.device)

    def __mul__(self, other):
        return _elementwise(ROp.MUL, self, other)

    def __rmul__(self, other):
        return _elementwise(ROp.MUL, other, self, device=self.device)

    def __truediv__(self, other):
        return _elementwise(ROp.DIV, self, other)

    def __rtruediv__(self, other):
        return _elementwise(ROp.DIV, other, self, device=self.device)

    def __mod__(self, other):
        return _elementwise(ROp.MOD, self, other)

    def __lt__(self, other):
        return _elementwise(ROp.LT, self, other, result_dtype=int32)

    def __le__(self, other):
        return _elementwise(ROp.LE, self, other, result_dtype=int32)

    def __gt__(self, other):
        return _elementwise(ROp.GT, self, other, result_dtype=int32)

    def __ge__(self, other):
        return _elementwise(ROp.GE, self, other, result_dtype=int32)

    def __eq__(self, other):  # type: ignore[override]
        return _elementwise(ROp.EQ, self, other, result_dtype=int32)

    def __ne__(self, other):  # type: ignore[override]
        return _elementwise(ROp.NE, self, other, result_dtype=int32)

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return _elementwise(ROp.BIT_AND, self, other)

    def __or__(self, other):
        return _elementwise(ROp.BIT_OR, self, other)

    def __xor__(self, other):
        return _elementwise(ROp.BIT_XOR, self, other)

    def __invert__(self):
        return _unary(ROp.BIT_NOT, self)

    def __neg__(self):
        return _unary(ROp.NEG, self)

    def __abs__(self):
        return _unary(ROp.ABS, self)

    def abs(self):
        return _unary(ROp.ABS, self)

    def sign(self):
        return _unary(ROp.SIGN, self)


class Tensor(_TensorOps):
    """A 1-D PIM tensor (one register index across a warp range)."""

    def __init__(
        self,
        device: PIMDevice,
        length: int,
        dtype: DType,
        reference: Optional[Slot] = None,
    ):
        self._device = device
        self.length = length
        self.dtype = dtype
        self.slot = device.allocator.allocate(length, reference=reference)
        trace = _active_trace(device)
        if trace is not None:
            trace.track(self)

    @classmethod
    def _from_slot(cls, device: PIMDevice, slot: Slot, length: int, dtype: DType):
        """Wrap a pre-allocated slot (used by group-aligned staging)."""
        tensor = cls.__new__(cls)
        tensor._device = device
        tensor.length = length
        tensor.dtype = dtype
        tensor.slot = slot
        trace = _active_trace(device)
        if trace is not None:
            trace.track(tensor)
        return tensor

    # ------------------------------------------------------------------
    # Lifecycle / basics
    # ------------------------------------------------------------------
    @property
    def device(self) -> PIMDevice:
        """The owning device; raises after ``pim.reset()`` closed it."""
        device = self._device
        if device is None or device.closed:
            raise RuntimeError(
                "this Tensor's device has been reset (pim.reset()); "
                "reallocate the tensor on the new device"
            )
        return device

    def __del__(self):
        try:
            device = self._device
            if (
                device is not None
                and not device.closed
                and self.slot is not None
            ):
                device.allocator.free(self.slot)
        except Exception:  # interpreter teardown
            pass

    def _release(self) -> None:
        """Free the backing slot early (internal staging helper)."""
        device = self._device
        if device is None or device.closed:
            self.slot = None
            return
        if self.slot is not None:
            device.allocator.free(self.slot)
            self.slot = None

    @property
    def _mask(self) -> RangeMask:
        return RangeMask.all(self.length)

    @property
    def _base(self) -> "Tensor":
        return self

    def __repr__(self) -> str:
        values = ", ".join(repr(v) for v in self.to_numpy().tolist())
        return (
            f"Tensor(shape=({self.length},), dtype={self.dtype}):\n[{values}]"
        )

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if isinstance(key, slice):
            view = TensorView(self, RangeMask.from_slice(key, self.length))
            trace = _active_trace(self.device)
            if trace is not None:
                trace.note("view", slice=key, length=view.length)
            return view
        index = self._check_index(key)
        device = self.device
        warp, thread = device.locate(self.slot, index)
        instr = ReadInstr(warp, thread, self.slot.reg)
        trace = _active_trace(device)
        if trace is not None:
            with trace.node("read", index=index):
                device.execute(instr)
            # Defer the scalar: every replay reads it from the fresh result.
            return trace.wrap_scalar(self.dtype)
        raw = device.execute(instr)
        return raw_to_value(raw, self.dtype)

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice):
            mask = RangeMask.from_slice(key, self.length)
            with _node(self.device, "write", slice=key):
                _fill(self, mask, value_to_raw(value, self.dtype))
            return
        index = self._check_index(key)
        device = self.device
        warp, thread = device.locate(self.slot, index)
        with _node(device, "write", index=index):
            device.execute(
                WriteInstr(
                    self.slot.reg,
                    value_to_raw(value, self.dtype),
                    RangeMask.single(warp),
                    RangeMask.single(thread),
                )
            )

    # ------------------------------------------------------------------
    # Host transfer
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Copy the tensor to a host NumPy array (DMA-style readback)."""
        return self.device.dump_array(self.slot, self.length, self.dtype)

    def copy(self) -> "Tensor":
        """A new tensor with the same contents (one COPY instruction when
        the allocator achieves alignment, moves otherwise)."""
        return _copy_tensor(self)


class TensorView(_TensorOps):
    """A strided view over a tensor's memory (``x[a:b:c]`` semantics)."""

    def __init__(self, base: Tensor, mask: RangeMask):
        if mask.stop >= base.length:
            raise IndexError("view mask exceeds base tensor")
        self.base = base
        self.mask = mask

    # ------------------------------------------------------------------
    @property
    def device(self) -> PIMDevice:
        return self.base.device

    @property
    def dtype(self) -> DType:
        return self.base.dtype

    @property
    def length(self) -> int:
        return len(self.mask)

    @property
    def _mask(self) -> RangeMask:
        return self.mask

    @property
    def _base(self) -> Tensor:
        return self.base

    def __repr__(self) -> str:
        values = ", ".join(repr(v) for v in self.to_numpy().tolist())
        sl = slice(self.mask.start, self.mask.stop + 1, self.mask.step)
        return (
            f"TensorView(shape=({self.length},), dtype={self.dtype}, "
            f"slicing={sl!r}):\n[{values}]"
        )

    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if isinstance(key, slice):
            inner = RangeMask.from_slice(key, self.length)
            return TensorView(self.base, self.mask.compose(inner))
        index = self._check_index(key)
        return self.base[self.mask.start + index * self.mask.step]

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice):
            inner = RangeMask.from_slice(key, self.length)
            _fill(self.base, self.mask.compose(inner), value_to_raw(value, self.dtype))
            return
        index = self._check_index(key)
        self.base[self.mask.start + index * self.mask.step] = value

    def to_numpy(self) -> np.ndarray:
        base = self.base.to_numpy()
        return base[self.mask.start : self.mask.stop + 1 : self.mask.step].copy()

    def compact(self) -> Tensor:
        """Materialize the view into a fresh compact tensor (move instrs)."""
        return _compact(self)


TensorLike = Union[Tensor, TensorView]


# ----------------------------------------------------------------------
# Elementwise machinery
# ----------------------------------------------------------------------
def _is_tensor(x) -> bool:
    return isinstance(x, (Tensor, TensorView))


def _broadcast_scalar(
    value: Scalar, ref: TensorLike, dtype: Optional[DType] = None
) -> TensorView:
    """Materialize a scalar aligned with ``ref`` (masked constant writes)."""
    device, dtype = ref.device, dtype or ref.dtype
    with _node(device, "constant", value=value):
        base = Tensor(device, ref._base.length, dtype, reference=ref._base.slot)
        _fill(base, ref._mask, value_to_raw(value, dtype))
    return TensorView(base, ref._mask)


def _fill(base: Tensor, mask: RangeMask, raw: int) -> None:
    """Write the raw word over ``base``'s elements ``mask``: one masked
    write per (warp range, row pattern) segment."""
    device, slot = base.device, base.slot
    for warp_mask, row_mask in device.segments(slot, mask):
        device.execute(WriteInstr(slot.reg, raw, warp_mask, row_mask))


def _aligned(operands: Sequence[TensorLike]) -> bool:
    """True when all operands share one warp range and element mask."""
    first = operands[0]
    return all(
        op._base.slot.warp_start == first._base.slot.warp_start
        and op._mask == first._mask
        for op in operands[1:]
    )


def _elementwise(
    op: ROp,
    lhs,
    rhs,
    result_dtype: Optional[DType] = None,
    device: Optional[PIMDevice] = None,
) -> TensorLike:
    """Lower a binary operator: align operands, then issue masked R-instrs."""
    if not _is_tensor(lhs) and not _is_tensor(rhs):
        raise TypeError("elementwise ops need at least one tensor operand")
    ref = lhs if _is_tensor(lhs) else rhs
    if _is_tensor(lhs) and _is_tensor(rhs):
        if lhs.device is not rhs.device:
            raise ValueError("operands live on different devices")
        if lhs.dtype.name != rhs.dtype.name:
            raise TypeError(f"dtype mismatch: {lhs.dtype} vs {rhs.dtype}")
        if lhs.length != rhs.length:
            raise ValueError(f"length mismatch: {lhs.length} vs {rhs.length}")
    if not _is_tensor(lhs):
        lhs = _broadcast_scalar(lhs, rhs)
    elif not _is_tensor(rhs):
        rhs = _broadcast_scalar(rhs, lhs)
    return _nary(op, [lhs, rhs], result_dtype or ref.dtype)


def _unary(op: ROp, operand: TensorLike, result_dtype: Optional[DType] = None):
    return _nary(op, [operand], result_dtype or operand.dtype)


def _issue_op(op: ROp, dtype: DType, result: Tensor, operands, mask: RangeMask):
    """Issue ``result = op(*operands)`` over the elements ``mask`` (operands
    aligned with ``result``): one masked R-type instruction per segment."""
    device, dest = result.device, result.slot.reg
    a, b, c = ([t._base.slot.reg for t in operands] + [None, None])[:3]
    for warp_mask, row_mask in device.segments(result.slot, mask):
        device.execute(RInstr(op, dtype, dest, a, b, c, warp_mask, row_mask))


def _nary(op: ROp, operands: List[TensorLike], result_dtype: DType):
    """Shared lowering for 1-3 operand instructions with auto-alignment.

    Fast path: operands already share one warp range and mask, and the
    result tensor lands in the same range — one masked instruction per
    segment. Otherwise every operand is staged (move instructions) into a
    group allocation that *guarantees* a common warp range.
    """
    device = operands[0].device
    with _node(device, op.value, length=operands[0].length,
               dtype=result_dtype.name):
        return _nary_lowered(op, operands, result_dtype)


def _nary_lowered(op: ROp, operands: List[TensorLike], result_dtype: DType):
    device = operands[0].device
    dtype = operands[0].dtype
    if _aligned(operands):
        mask = operands[0]._mask
        base = operands[0]._base
        result = Tensor(device, base.length, result_dtype, reference=base.slot)
        if result.slot.warp_start == base.slot.warp_start:
            _issue_op(op, dtype, result, operands, mask)
            if len(mask) == base.length and mask.step == 1:
                return result
            return TensorView(result, mask)
        result._release()  # could not align; stage below

    length = operands[0].length
    slots = device.allocator.allocate_group(length, len(operands) + 1)
    staged = []
    for operand, slot in zip(operands, slots):
        tensor = Tensor._from_slot(device, slot, length, operand.dtype)
        _bulk_move(
            device,
            operand._base.slot,
            operand._mask.indices(),
            tensor.slot,
            range(length),
        )
        staged.append(tensor)
    result = Tensor._from_slot(device, slots[-1], length, result_dtype)
    _issue_op(op, dtype, result, staged, RangeMask.all(length))
    return result


def _copy_tensor(src: Tensor) -> Tensor:
    """Duplicate a compact tensor (COPY instruction when warp-aligned)."""
    dst = Tensor(src.device, src.length, src.dtype, reference=src.slot)
    if dst.slot.warp_start == src.slot.warp_start:
        _issue_op(ROp.COPY, src.dtype, dst, [src], src._mask)
        return dst
    _bulk_move(
        src.device,
        src.slot,
        range(src.length),
        dst.slot,
        range(src.length),
    )
    return dst


def _compact(operand: TensorLike, reference: Optional[Tensor] = None) -> Tensor:
    """Materialize any tensor-like into a compact tensor.

    With a ``reference``, the result is placed over the reference's warps
    (allocations fall back to moves when the allocator cannot align).
    """
    ref_slot = reference.slot if reference is not None else None
    if isinstance(operand, Tensor):
        if ref_slot is None or operand.slot.warp_start == ref_slot.warp_start:
            return operand
        dst = Tensor(operand.device, operand.length, operand.dtype, reference=ref_slot)
        _bulk_move(
            operand.device, operand.slot, range(operand.length),
            dst.slot, range(operand.length),
        )
        return dst
    base = operand.base
    dst = Tensor(
        base.device, operand.length, base.dtype,
        reference=ref_slot if ref_slot is not None else base.slot,
    )
    _bulk_move(
        base.device, base.slot, operand.mask.indices(),
        dst.slot, range(operand.length),
    )
    return dst


# ----------------------------------------------------------------------
# Bulk move grouping
# ----------------------------------------------------------------------
def _bulk_move(
    device: PIMDevice,
    src_slot: Slot,
    src_elements,
    dst_slot: Slot,
    dst_elements,
) -> None:
    """Move elements between slots with maximal warp-parallel grouping.

    Pairs are grouped by (source thread, destination thread, warp
    distance); each group's source warps are split into arithmetic runs
    whose step satisfies the H-tree pattern (any step for intra-warp
    moves, a power of four for inter-warp moves), and every run becomes a
    single warp-parallel move instruction. The instruction list depends
    only on the geometry and the two (register, first warp, elements)
    triples, so it is planned once (:func:`_move_plan`) and issued as
    one stream.
    """
    with _node(device, "move"):
        plan = _move_plan(
            device.rows,
            device.config.crossbars,
            src_slot.reg,
            src_slot.warp_start,
            src_elements if isinstance(src_elements, range) else tuple(src_elements),
            dst_slot.reg,
            dst_slot.warp_start,
            dst_elements if isinstance(dst_elements, range) else tuple(dst_elements),
        )
        device.execute_stream(plan, name="move")


#: Distinct bulk moves whose plan is kept (least recently used first out).
MOVE_PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=MOVE_PLAN_CACHE_SIZE)
def _move_plan(
    rows: int,
    crossbars: int,
    src_reg: int,
    src_warp_start: int,
    src_elements,
    dst_reg: int,
    dst_warp_start: int,
    dst_elements,
) -> MacroStream:
    """The move stream of a bulk move, a pure function of its arguments.

    Pairs are grouped by (source thread, destination thread, warp
    distance) in order of first appearance, and each group's sorted
    source warps split into runs (:func:`_warp_runs`); every run is one
    warp-parallel :class:`MoveInstr`, in that order, in one
    :class:`~repro.driver.stream.MacroStream` (hash cached, so a
    repeated move finds every backend's stream plan by identity). A run
    the H-tree rejects (:func:`~repro.arch.htree.validate_move_pattern`:
    its source and destination warps overlap) is replaced by one move
    per warp, ordered so a destination is never a still-unread source
    (descending for positive distances).
    """
    groups = {}
    for src_e, dst_e in zip(src_elements, dst_elements):
        src_warp = src_warp_start + src_e // rows
        dst_warp = dst_warp_start + dst_e // rows
        key = (src_e % rows, dst_e % rows, dst_warp - src_warp)
        groups.setdefault(key, []).append(src_warp)

    stream: List[MoveInstr] = []
    masks: dict = {}  # threads share warp runs: one RangeMask object each
    for (src_thread, dst_thread, dist), warps in groups.items():
        warps.sort()
        for mask in _warp_runs(warps, intra=(dist == 0)):
            mask = masks.setdefault(mask, mask)
            instr = MoveInstr(src_reg, dst_reg, src_thread, dst_thread, mask, dist)
            if dist:
                try:
                    validate_move_pattern(mask, dist, crossbars)
                except ValueError:
                    order = mask.indices()
                    stream.extend(
                        replace(instr, warp_mask=RangeMask.single(warp))
                        for warp in (reversed(order) if dist > 0 else order)
                    )
                    continue
            stream.append(instr)
    return MacroStream(stream)


def _warp_runs(warps: List[int], intra: bool) -> List[RangeMask]:
    """Split sorted warp indices into RangeMask-able arithmetic runs."""
    runs: List[RangeMask] = []
    index = 0
    n = len(warps)
    while index < n:
        start = warps[index]
        if index + 1 >= n:
            runs.append(RangeMask.single(start))
            index += 1
            continue
        step = warps[index + 1] - start
        if step <= 0 or (not intra and not _is_power_of(step, 4)):
            runs.append(RangeMask.single(start))
            index += 1
            continue
        stop_idx = index + 1
        while (
            stop_idx + 1 < n
            and warps[stop_idx + 1] - warps[stop_idx] == step
        ):
            stop_idx += 1
        runs.append(RangeMask(start, warps[stop_idx], step))
        index = stop_idx + 1
    return runs
