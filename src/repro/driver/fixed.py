"""Fixed-point (two's complement) arithmetic routines (AritPIM suite).

Every routine lowers one R-type macro-instruction on ``int32`` registers
into a gate sequence via the :class:`GateBuilder`. Routines compute into
scratch cells and materialize the result with :meth:`write_register`, which
makes them alias-safe (``dest`` may equal a source); addition and
subtraction additionally have a direct-to-destination fast path saving the
final copy when there is no aliasing.

Semantics (matching the NumPy ground truth used by the tests):

- add/sub/mul/neg wrap around modulo 2**32 (like ``np.int32``);
- division truncates toward zero (``int(a / b)``), matching the paper's
  ``__truediv__`` test which casts ``np.true_divide`` back to int32;
- modulo takes the sign of the dividend (C semantics, ``a - trunc(a/b)*b``);
- division/modulo by zero are documented as undefined (tests avoid them).

The gate sequences these routines emit are deterministic in the operands,
so the :class:`~repro.driver.driver.Driver` records them once into an
immutable :class:`~repro.driver.program.MicroProgram` and replays the
compiled stream on every repeated macro-instruction (see
``docs/architecture.md``, compile/replay pipeline).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.driver import bitvec as bv
from repro.driver.gates import Cell, GateBuilder


def negate(gb: GateBuilder, bits: bv.BitVec) -> bv.BitVec:
    """Two's complement negation: ``~bits + 1``."""
    inverted = bv.not_bits(gb, bits)
    out, carry = bv.increment(gb, inverted, gb.const(1))
    gb.free_bits(inverted)
    gb.free(carry)
    return out


def write_flag(gb: GateBuilder, flag: Cell, dest_reg: int) -> None:
    """Write a 0/1 word: bit 0 gets ``flag``, all other bits become 0."""
    gb.init_column(dest_reg, 0)
    gb.init_cell((dest_reg, 0), 1)
    gb.copy_into(flag, (dest_reg, 0))


def lower_add(gb: GateBuilder, dest: int, a: int, b: int, subtract: bool = False) -> None:
    """``dest = a + b`` (or ``a - b``), wrapping modulo 2**32."""
    a_bits = gb.register_cells(a)
    b_bits = gb.register_cells(b)
    if dest in (a, b):
        if subtract:
            result, borrow = bv.ripple_sub(gb, a_bits, b_bits)
            gb.free(borrow)
        else:
            result, carry = bv.ripple_add(gb, a_bits, b_bits)
            gb.free(carry)
        gb.write_register(result, dest)
        gb.free_bits(result)
        return
    # Fast path: ripple directly into the destination column.
    gb.init_column(dest, 1)
    operand = bv.not_bits(gb, b_bits) if subtract else b_bits
    _, carry = bv.ripple_add(gb, a_bits, operand, gb.const(int(subtract)),
                             out=gb.register_cells(dest))
    gb.free(carry)
    if subtract:
        gb.free_bits(operand)


def lower_neg(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = -a`` (two's complement, wrapping at INT_MIN)."""
    result = negate(gb, gb.register_cells(a))
    gb.write_register(result, dest)
    gb.free_bits(result)


def lower_abs(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = |a|`` (INT_MIN wraps to itself, like ``np.abs``)."""
    a_bits = gb.register_cells(a)
    negated = negate(gb, a_bits)
    result = bv.mux_bits(gb, a_bits[-1], negated, a_bits)
    gb.free_bits(negated)
    gb.write_register(result, dest)
    gb.free_bits(result)


def lower_sign(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = sign(a)`` in {-1, 0, 1}.

    Bit 0 of the result is the nonzero flag; bits 1..31 replicate the sign
    bit (yielding 0xFFFFFFFF == -1 for negatives).
    """
    a_bits = gb.register_cells(a)
    nonzero = bv.or_tree(gb, a_bits)
    high = bv.broadcast(gb, a_bits[-1], len(a_bits) - 1)
    result = [nonzero] + high
    gb.write_register(result, dest)
    gb.free_bits(result)


def lower_zero(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = 1 if a == 0 else 0``."""
    flag = bv.is_zero(gb, gb.register_cells(a))
    write_flag(gb, flag, dest)
    gb.free(flag)


def lower_compare(
    gb: GateBuilder, op: str, dest: int, a: int, b: int,
    less: Callable[[GateBuilder, bv.BitVec, bv.BitVec], Cell] = bv.slt,
    equal: Callable[[GateBuilder, bv.BitVec, bv.BitVec], Cell] = bv.equals,
) -> None:
    """Comparisons producing a 0/1 word (op in lt/le/gt/ge/eq/ne) from
    the ``less`` and ``equal`` circuits: signed integers by default,
    :func:`repro.driver.floating.float_lt` / ``float_eq`` for floats."""
    a_bits = gb.register_cells(a)
    b_bits = gb.register_cells(b)
    if op in ("eq", "ne"):
        flag = equal(gb, a_bits, b_bits)
        invert = op == "ne"
    elif op in ("lt", "ge"):
        flag = less(gb, a_bits, b_bits)
        invert = op == "ge"
    elif op in ("gt", "le"):
        flag = less(gb, b_bits, a_bits)
        invert = op == "le"
    else:
        raise ValueError(f"unknown comparison {op}")
    if invert:
        inverted = gb.not_(flag)
        gb.free(flag)
        flag = inverted
    write_flag(gb, flag, dest)
    gb.free(flag)


def lower_bitwise(gb: GateBuilder, op: str, dest: int, a: int, b: int = None) -> None:
    """Bit-serial bitwise operations (the partition-parallel fast path in
    :mod:`repro.driver.parallel` is preferred; this exists for the
    parallelism ablation)."""
    a_bits = gb.register_cells(a)
    if op == "bit_not":
        result = bv.not_bits(gb, a_bits)
    else:
        b_bits = gb.register_cells(b)
        func = {"bit_and": bv.and_bits, "bit_or": bv.or_bits, "bit_xor": bv.xor_bits}[op]
        result = func(gb, a_bits, b_bits)
    gb.write_register(result, dest)
    gb.free_bits(result)


def lower_mux(gb: GateBuilder, dest: int, cond: int, a: int, b: int) -> None:
    """``dest = a if cond else b`` with the condition in bit 0 of ``cond``."""
    cond_cell = (cond, 0)
    result = bv.mux_bits(
        gb, cond_cell, gb.register_cells(a), gb.register_cells(b)
    )
    gb.write_register(result, dest)
    gb.free_bits(result)


def lower_copy(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = a`` (two parallel NOT micro-ops through a scratch column)."""
    if dest == a:
        return
    scratch = gb.reserve_column()
    gb.init_column(scratch, 1)
    gb.not_column(a, scratch)
    gb.init_column(dest, 1)
    gb.not_column(scratch, dest)
    gb.release_column(scratch)


def lower_mul(gb: GateBuilder, dest: int, a: int, b: int) -> None:
    """``dest = a * b`` truncated to 32 bits.

    Shift-and-add on the raw two's-complement words: the truncated product
    equals the unsigned product modulo 2**32, so no sign handling is
    needed. The complements of ``a``'s bits are computed once and reused by
    every partial product (the AND is a single NOR per bit).
    """
    a_bits = gb.register_cells(a)
    b_bits = gb.register_cells(b)
    width = len(a_bits)
    not_a = bv.not_bits(gb, a_bits)
    acc: List[Cell] = []
    for i in range(width):
        not_b_i = gb.not_(b_bits[i])
        addend = [gb.nor(not_a[j], not_b_i) for j in range(width - i)]
        gb.free(not_b_i)
        if i == 0:
            acc = addend
            continue
        upper = acc[i:]
        total, carry = bv.ripple_add(gb, upper, addend)
        gb.free(carry)
        gb.free_bits(upper)
        gb.free_bits(addend)
        acc = acc[:i] + total
    gb.free_bits(not_a)
    gb.write_register(acc, dest)
    gb.free_bits(acc)


def _unsigned_divmod(
    gb: GateBuilder, num: bv.BitVec, den: bv.BitVec
) -> Tuple[bv.BitVec, bv.BitVec]:
    """Restoring division of unsigned vectors; returns (quotient, remainder).

    The remainder is kept one bit wider than the operands during the loop
    (after the shift-in it can reach ``2 * den``).
    """
    width = len(num)
    zero = gb.const(0)
    den_ext = list(den) + [zero]
    rem: bv.BitVec = [zero] * (width + 1)
    rem_owned = False
    quotient: List[Cell] = [None] * width  # type: ignore[list-item]
    for i in reversed(range(width)):
        shifted = [gb.copy(num[i])] + rem[:width]
        if rem_owned:
            gb.free(rem[width])
        diff, borrow = bv.ripple_sub(gb, shifted, den_ext)
        quotient[i] = gb.not_(borrow)
        new_rem = bv.mux_bits(gb, borrow, shifted, diff)
        gb.free(borrow)
        gb.free_bits(diff)
        gb.free_bits(shifted)
        rem, rem_owned = new_rem, True
    remainder = rem[:width]
    if rem_owned:
        gb.free(rem[width])
    else:
        remainder = bv.copy_bits(gb, remainder)
    return quotient, remainder


def lower_divmod(gb: GateBuilder, op: str, dest: int, a: int, b: int) -> None:
    """``dest = a / b`` (trunc toward zero) or ``a % b`` (sign of dividend).

    Both raw words are conditionally negated to magnitudes, an unsigned
    restoring division runs, and the requested output is sign-corrected.
    INT_MIN magnitudes work because 0x80000000 is its own two's complement
    and the unsigned datapath treats it as 2**31.
    """
    if op not in ("div", "mod"):
        raise ValueError(f"unknown division op {op}")
    a_bits = gb.register_cells(a)
    b_bits = gb.register_cells(b)
    sign_a, sign_b = a_bits[-1], b_bits[-1]

    neg_a = negate(gb, a_bits)
    mag_a = bv.mux_bits(gb, sign_a, neg_a, a_bits)
    gb.free_bits(neg_a)
    neg_b = negate(gb, b_bits)
    mag_b = bv.mux_bits(gb, sign_b, neg_b, b_bits)
    gb.free_bits(neg_b)

    quotient, remainder = _unsigned_divmod(gb, mag_a, mag_b)
    gb.free_bits(mag_a)
    gb.free_bits(mag_b)

    if op == "div":
        sign_q = gb.xor(sign_a, sign_b)
        neg_q = negate(gb, quotient)
        result = bv.mux_bits(gb, sign_q, neg_q, quotient)
        gb.free_bits(neg_q)
        gb.free(sign_q)
    else:
        neg_r = negate(gb, remainder)
        result = bv.mux_bits(gb, sign_a, neg_r, remainder)
        gb.free_bits(neg_r)
    gb.free_bits(quotient)
    gb.free_bits(remainder)
    gb.write_register(result, dest)
    gb.free_bits(result)
