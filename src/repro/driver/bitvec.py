"""Bit-vector combinators over gate-level cells.

A *bit vector* is a plain LSB-first list of cells. All combinators take the
:class:`~repro.driver.gates.GateBuilder` as their first argument, free
their internal temporaries, never free their inputs, and return freshly
allocated output cells (except where a docstring notes aliasing, e.g.
constant fill bits, which the builder protects from accidental freeing).

These are the building blocks of the AritPIM arithmetic suite: ripple
adders and borrow chains, variable shifters with sticky-bit collection,
zero/equality trees, normalizers and round-to-nearest-even — everything
needed to assemble fixed- and floating-point macro-instructions.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.driver.gates import Cell, GateBuilder

BitVec = List[Cell]


def const_bits(gb: GateBuilder, value: int, width: int) -> BitVec:
    """An LSB-first constant vector built from shared constant cells."""
    if value < 0:
        value &= (1 << width) - 1
    return [gb.const((value >> i) & 1) for i in range(width)]


def copy_bits(gb: GateBuilder, bits: BitVec) -> BitVec:
    """Copy every bit into fresh scratch cells (2 gates per bit)."""
    return [gb.copy(cell) for cell in bits]


def not_bits(gb: GateBuilder, bits: BitVec) -> BitVec:
    """Bitwise complement."""
    return [gb.not_(cell) for cell in bits]


def and_bits(gb: GateBuilder, a: BitVec, b: BitVec) -> BitVec:
    """Bitwise AND (widths must match)."""
    _check_widths(a, b)
    return [gb.and_(x, y) for x, y in zip(a, b)]


def or_bits(gb: GateBuilder, a: BitVec, b: BitVec) -> BitVec:
    """Bitwise OR (widths must match)."""
    _check_widths(a, b)
    return [gb.or_(x, y) for x, y in zip(a, b)]


def xor_bits(gb: GateBuilder, a: BitVec, b: BitVec) -> BitVec:
    """Bitwise XOR (widths must match)."""
    _check_widths(a, b)
    return [gb.xor(x, y) for x, y in zip(a, b)]


def mux_bits(gb: GateBuilder, cond: Cell, if_true: BitVec, if_false: BitVec) -> BitVec:
    """Per-bit multiplexer sharing one inverted condition (1 + 3n gates)."""
    _check_widths(if_true, if_false)
    ncond = gb.not_(cond)
    out = []
    for t_bit, f_bit in zip(if_true, if_false):
        t1 = gb.nor(t_bit, ncond)
        t2 = gb.nor(f_bit, cond)
        out.append(gb.nor(t1, t2))
        gb.free_bits([t1, t2])
    gb.free(ncond)
    return out


def broadcast(gb: GateBuilder, cell: Cell, width: int) -> BitVec:
    """Replicate one bit across ``width`` cells (1 + width gates)."""
    ncell = gb.not_(cell)
    out = [gb.not_(ncell) for _ in range(width)]
    gb.free(ncell)
    return out


# ----------------------------------------------------------------------
# Reduction trees
# ----------------------------------------------------------------------
def or_tree(gb: GateBuilder, cells: BitVec) -> Cell:
    """OR of all cells (balanced tree, ~2 gates per node)."""
    if not cells:
        raise ValueError("or_tree of nothing")
    level = list(cells)
    owned: List[bool] = [False] * len(level)
    while len(level) > 1:
        nxt, nxt_owned = [], []
        for i in range(0, len(level) - 1, 2):
            nxt.append(gb.or_(level[i], level[i + 1]))
            nxt_owned.append(True)
            if owned[i]:
                gb.free(level[i])
            if owned[i + 1]:
                gb.free(level[i + 1])
        if len(level) % 2:  # carry the odd element (ownership unchanged)
            nxt.append(level[-1])
            nxt_owned.append(owned[-1])
        level, owned = nxt, nxt_owned
    return level[0] if owned[0] else gb.copy(level[0])


def and_tree(gb: GateBuilder, cells: BitVec) -> Cell:
    """AND of all cells (complement of the OR tree of complements)."""
    complements = not_bits(gb, cells)
    any_zero = or_tree(gb, complements)
    gb.free_bits(complements)
    out = gb.not_(any_zero)
    gb.free(any_zero)
    return out


def is_zero(gb: GateBuilder, bits: BitVec) -> Cell:
    """1 iff every bit is 0."""
    any_set = or_tree(gb, bits)
    out = gb.not_(any_set)
    gb.free(any_set)
    return out


def equals(gb: GateBuilder, a: BitVec, b: BitVec) -> Cell:
    """1 iff the two vectors are bit-identical."""
    _check_widths(a, b)
    matches = [gb.xnor(x, y) for x, y in zip(a, b)]
    out = and_tree(gb, matches)
    gb.free_bits(matches)
    return out


# ----------------------------------------------------------------------
# Addition / subtraction / comparison
# ----------------------------------------------------------------------
def ripple_add(
    gb: GateBuilder, a: BitVec, b: BitVec, cin: Optional[Cell] = None,
    out: Optional[BitVec] = None,
) -> Tuple[BitVec, Cell]:
    """Ripple-carry addition (9 NORs per bit); returns ``(sum, carry_out)``.

    The sum lands in ``out`` (cells initialized to 1) when given, else in
    fresh scratch cells.
    """
    _check_widths(a, b)
    carry = cin if cin is not None else gb.const(0)
    own_carry = False
    total = []
    for index, (a_bit, b_bit) in enumerate(zip(a, b)):
        bit, cout = gb.full_adder(
            a_bit, b_bit, carry, None if out is None else out[index]
        )
        if own_carry:
            gb.free(carry)
        carry, own_carry = cout, True
        total.append(bit)
    if not own_carry:
        carry = gb.copy(carry)
    return total, carry


def ripple_sub(gb: GateBuilder, a: BitVec, b: BitVec) -> Tuple[BitVec, Cell]:
    """``a - b`` as ``a + ~b + 1``; returns ``(difference, borrow)``.

    ``borrow`` is 1 iff ``a < b`` unsigned (the complement of the carry).
    """
    nb = not_bits(gb, b)
    diff, carry = ripple_add(gb, a, nb, cin=gb.const(1))
    gb.free_bits(nb)
    borrow = gb.not_(carry)
    gb.free(carry)
    return diff, borrow


def increment(gb: GateBuilder, bits: BitVec, cond: Cell) -> Tuple[BitVec, Cell]:
    """Add the single bit ``cond`` to the vector (half-adder chain).

    Returns ``(sum, carry_out)`` — roughly 8 gates per bit, used by the
    round-to-nearest-even step of the floating-point suite.
    """
    carry = cond
    own_carry = False
    out = []
    for bit in bits:
        out.append(gb.xor(bit, carry))
        new_carry = gb.and_(bit, carry)
        if own_carry:
            gb.free(carry)
        carry, own_carry = new_carry, True
    if not own_carry:
        carry = gb.copy(carry)
    return out, carry


def carry_chain(gb: GateBuilder, a: BitVec, b: BitVec, cin: Cell) -> Cell:
    """Final carry of ``a + b + cin`` without computing the sums.

    Uses the carry portion of the 9-NOR full adder (6 gates per bit); the
    workhorse behind cheap comparisons.
    """
    _check_widths(a, b)
    carry = cin
    own_carry = False
    for a_bit, b_bit in zip(a, b):
        n1 = gb.nor(a_bit, b_bit)
        n4 = gb.xnor(a_bit, b_bit)
        n5 = gb.nor(n4, carry)
        cout = gb.nor(n1, n5)
        gb.free_bits([n1, n4, n5])
        if own_carry:
            gb.free(carry)
        carry, own_carry = cout, True
    if not own_carry:
        carry = gb.copy(carry)
    return carry


def ult(gb: GateBuilder, a: BitVec, b: BitVec) -> Cell:
    """Unsigned ``a < b`` — the borrow of ``a - b``."""
    nb = not_bits(gb, b)
    carry = carry_chain(gb, a, nb, gb.const(1))
    gb.free_bits(nb)
    out = gb.not_(carry)
    gb.free(carry)
    return out


def slt(gb: GateBuilder, a: BitVec, b: BitVec) -> Cell:
    """Signed (two's complement) ``a < b`` via the bias-flip trick.

    Complementing both sign bits maps signed order onto unsigned order.
    """
    _check_widths(a, b)
    a_flip = list(a[:-1]) + [gb.not_(a[-1])]
    b_flip = list(b[:-1]) + [gb.not_(b[-1])]
    out = ult(gb, a_flip, b_flip)
    gb.free(a_flip[-1])
    gb.free(b_flip[-1])
    return out


# ----------------------------------------------------------------------
# Shifters
# ----------------------------------------------------------------------
def _shift_stage(
    gb: GateBuilder, cur: BitVec, shift: int, sel: Cell, zero: Cell, owned: bool
) -> BitVec:
    """One barrel-shifter stage: where ``sel`` is 1, ``cur`` moved
    ``shift`` places toward the LSB (negative: toward the MSB, zero-filled
    either way), else ``cur`` (1 + 4n gates). Frees ``cur`` if ``owned``."""
    width = len(cur)
    nsel = gb.not_(sel)
    out = []
    for i, bit in enumerate(cur):
        j = i + shift
        t1 = gb.nor(cur[j] if 0 <= j < width else zero, nsel)
        t2 = gb.nor(bit, sel)
        out.append(gb.nor(t1, t2))
        gb.free_bits([t1, t2])
    gb.free(nsel)
    if owned:
        gb.free_bits(cur)
    return out


def shift_right_var(
    gb: GateBuilder,
    bits: BitVec,
    amount: BitVec,
    collect_sticky: bool = False,
) -> Tuple[BitVec, Optional[Cell]]:
    """Logical right shift by a variable amount (barrel shifter).

    ``amount`` is LSB-first; stage ``k`` conditionally shifts by ``2**k``.
    With ``collect_sticky`` the OR of every shifted-out bit is returned as
    the sticky cell (needed for IEEE round-to-nearest-even alignment).
    Amount bits beyond the width simply shift everything out.
    """
    width = len(bits)
    zero = gb.const(0)
    cur = list(bits)
    sticky: Optional[Cell] = zero if collect_sticky else None
    for k, sel in enumerate(amount):
        shift = 1 << k
        if collect_sticky:
            dropped = or_tree(gb, cur[: min(shift, width)])
            contrib = gb.and_(sel, dropped)
            new_sticky = gb.or_(sticky, contrib)
            gb.free_bits([sticky, dropped, contrib])  # the constant stays
            sticky = new_sticky
        cur = _shift_stage(gb, cur, shift, sel, zero, owned=k > 0)
    if not amount:
        cur = copy_bits(gb, cur)
        if collect_sticky:
            sticky = gb.copy(sticky)
    return cur, sticky


def shift_left_var(gb: GateBuilder, bits: BitVec, amount: BitVec) -> BitVec:
    """Logical left shift by a variable amount (barrel shifter)."""
    zero = gb.const(0)
    cur = list(bits)
    for k, sel in enumerate(amount):
        cur = _shift_stage(gb, cur, -(1 << k), sel, zero, owned=k > 0)
    return cur if amount else copy_bits(gb, cur)


def normalize_left(gb: GateBuilder, bits: BitVec) -> Tuple[BitVec, BitVec]:
    """Shift left until the MSB is 1 (binary-search leading-zero count).

    Returns ``(normalized, shift_amount)`` with the amount LSB-first. For
    an all-zero input the amount saturates and the result stays zero —
    callers detect the zero case separately.
    """
    width = len(bits)
    stages = max(1, math.ceil(math.log2(width)))
    zero = gb.const(0)
    cur = list(bits)
    amount: BitVec = [zero] * stages
    for k in reversed(range(stages)):
        shift = 1 << k
        any_top = or_tree(gb, cur[width - min(shift, width):])
        sel = gb.not_(any_top)  # top `shift` bits all zero -> shift left
        gb.free(any_top)
        cur = _shift_stage(gb, cur, -shift, sel, zero, owned=k < stages - 1)
        amount[k] = sel
    return cur, amount


# ----------------------------------------------------------------------
# Rounding
# ----------------------------------------------------------------------
def round_nearest_even(
    gb: GateBuilder,
    mantissa: BitVec,
    guard: Cell,
    rnd: Cell,
    sticky: Cell,
) -> Tuple[BitVec, Cell]:
    """IEEE round-to-nearest-even of a mantissa with G/R/S bits.

    Rounds up iff ``guard AND (rnd OR sticky OR lsb)``. Returns the rounded
    mantissa and the carry-out (mantissa overflow, meaning the caller must
    bump the exponent and the mantissa becomes ``1.00...0``).
    """
    tail = gb.or_(rnd, sticky)
    tail_or_lsb = gb.or_(tail, mantissa[0])
    round_up = gb.and_(guard, tail_or_lsb)
    gb.free_bits([tail, tail_or_lsb])
    rounded, carry = increment(gb, mantissa, round_up)
    gb.free(round_up)
    return rounded, carry


def _check_widths(a: BitVec, b: BitVec) -> None:
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
