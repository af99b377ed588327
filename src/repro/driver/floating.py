"""IEEE-754 binary32 arithmetic at the gate level (AritPIM float suite).

All routines operate on the raw register bit layout (sign at partition 31,
exponent at 23..30, fraction at 0..22) and produce round-to-nearest-even
results bit-identical to NumPy ``float32`` arithmetic, with the documented
deviations: subnormal inputs and outputs are flushed to zero (FTZ) and
NaN inputs are unsupported (division by zero yields a signed infinity,
multiplying to overflow yields a signed infinity).

Addition/subtraction use an exact wide datapath: both mantissas are placed
on a 52-bit grid (24 integer + 28 fraction bits) aligned to the larger
operand, bits shifted below the grid are folded into a sticky flag (which
also supplies the extra borrow in effective subtraction), so the rounding
decision is exact — see the module tests, which sweep the classic corner
cases (massive cancellation, carry-out rounding, ties-to-even).

Float lowering is by far the most expensive to generate (thousands of
micro-ops per macro-instruction), which is exactly why the driver caches
the recorded stream as a :class:`~repro.driver.program.MicroProgram` and
replays it on repeats (see ``docs/architecture.md``, compile/replay
pipeline, and ``benchmarks/test_compile_cache.py``).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.driver import bitvec as bv
from repro.driver.fixed import write_flag
from repro.driver.gates import Cell, GateBuilder

FRAC_BITS = 23
EXP_BITS = 8
BIAS = 127
#: Fraction-grid width of the exact add/sub datapath (24 mantissa bits are
#: placed above this many fractional grid bits).
ADD_GRID_FRAC = 28


def _fields(gb: GateBuilder, reg: int) -> Tuple[List[Cell], Cell, List[Cell], List[Cell]]:
    """Return (all 32 bits, sign, exponent LSB-first, fraction LSB-first)."""
    bits = gb.register_cells(reg)
    return bits, bits[31], bits[23:31], bits[:23]


def _exp10(gb: GateBuilder, exp: List[Cell]) -> List[Cell]:
    """Zero-extend an 8-bit exponent to the 10-bit working width."""
    zero = gb.const(0)
    return list(exp) + [zero, zero]


def _flags_from_exp10(gb: GateBuilder, e10: List[Cell]) -> Tuple[Cell, Cell]:
    """(underflow, overflow) flags of a 10-bit two's-complement biased exp.

    Underflow: negative or exactly zero (biased 0 would be subnormal — FTZ).
    Overflow: non-negative and >= 255.
    """
    neg = e10[9]
    e_zero = bv.is_zero(gb, e10)
    underflow = gb.or_(neg, e_zero)
    gb.free(e_zero)
    all_ones = bv.and_tree(gb, e10[:8])
    hi = gb.or_(e10[8], all_ones)
    not_neg = gb.not_(neg)
    overflow = gb.and_(not_neg, hi)
    gb.free_bits([all_ones, hi, not_neg])
    return underflow, overflow


def _inf_word(gb: GateBuilder, sign: Cell) -> List[Cell]:
    """The infinity of sign ``sign`` (exponent all ones, fraction 0)."""
    zero, one = gb.const(0), gb.const(1)
    return [zero] * FRAC_BITS + [one] * EXP_BITS + [sign]


def _zero_word(gb: GateBuilder, sign: Cell) -> List[Cell]:
    """The zero of sign ``sign``."""
    return [gb.const(0)] * 31 + [sign]


def _apply_specials(
    gb: GateBuilder,
    assembled: List[Cell],
    sign: Cell,
    overflow: Cell,
    zero_flag: Cell,
) -> List[Cell]:
    """Overlay the overflow (±inf) and zero (+/- per sign arg) patterns."""
    with_inf = bv.mux_bits(gb, overflow, _inf_word(gb, sign), assembled)
    result = bv.mux_bits(gb, zero_flag, _zero_word(gb, sign), with_inf)
    gb.free_bits(with_inf)
    return result


def lower_fadd(gb: GateBuilder, dest: int, a: int, b: int, subtract: bool = False) -> None:
    """``dest = a + b`` (or ``a - b``) in IEEE binary32 with RNE."""
    a_bits, sign_a, _, _ = _fields(gb, a)
    b_bits, sign_b_orig, _, _ = _fields(gb, b)
    zero = gb.const(0)

    sign_b = gb.not_(sign_b_orig) if subtract else gb.copy(sign_b_orig)
    a_is_zero = bv.is_zero(gb, a_bits[23:31])
    b_is_zero = bv.is_zero(gb, b_bits[23:31])

    # Order the operands by magnitude (raw low-31-bit unsigned compare).
    a_low, b_low = a_bits[:31], b_bits[:31]
    a_smaller = bv.ult(gb, a_low, b_low)
    large_low = bv.mux_bits(gb, a_smaller, b_low, a_low)
    small_low = bv.mux_bits(gb, a_smaller, a_low, b_low)
    sign_large = gb.mux(a_smaller, sign_b, sign_a)
    sign_small = gb.mux(a_smaller, sign_a, sign_b)
    gb.free(a_smaller)

    exp_large = large_low[23:31]
    exp_small = small_low[23:31]
    large_zero = bv.is_zero(gb, exp_large)
    hidden_large = gb.not_(large_zero)
    gb.free(large_zero)
    small_zero = bv.is_zero(gb, exp_small)
    hidden_small = gb.not_(small_zero)
    gb.free(small_zero)
    mant_large = large_low[:23] + [hidden_large]
    mant_small = small_low[:23] + [hidden_small]

    # Align the smaller mantissa on the 52-bit grid, collecting sticky.
    diff, diff_borrow = bv.ripple_sub(gb, exp_large, exp_small)
    gb.free(diff_borrow)
    ext_small = [zero] * ADD_GRID_FRAC + mant_small
    aligned, sticky = bv.shift_right_var(gb, ext_small, diff, collect_sticky=True)
    gb.free_bits(diff)
    gb.free_bits(small_low)
    gb.free(hidden_small)

    # Effective add or subtract on the grid; the sticky remainder supplies
    # the extra borrow of an effective subtraction (see module docstring).
    effective_sub = gb.xor(sign_large, sign_small)
    operand = [gb.xor(bit, effective_sub) for bit in aligned]
    gb.free_bits(aligned)
    not_sticky = gb.not_(sticky)
    carry_in = gb.and_(effective_sub, not_sticky)
    gb.free(not_sticky)
    ext_large = [zero] * ADD_GRID_FRAC + mant_large
    total, carry = bv.ripple_add(gb, ext_large, operand, cin=carry_in)
    gb.free_bits(operand)
    gb.free(carry_in)
    gb.free(hidden_large)

    # In subtraction the carry-out is the no-borrow indicator, not a value
    # bit; keep it only for the addition case.
    not_sub = gb.not_(effective_sub)
    top = gb.and_(carry, not_sub)
    gb.free_bits([carry, not_sub])

    value = total + [top]
    norm, lzc = bv.normalize_left(gb, value)
    gb.free_bits(value)
    result_is_zero = gb.not_(norm[-1])

    width = len(norm)  # 53
    mant = norm[width - 24:]
    guard = norm[width - 25]
    rest = bv.or_tree(gb, norm[: width - 25])
    sticky_all = gb.or_(rest, sticky)
    gb.free_bits([rest, sticky])
    rounded, round_carry = bv.round_nearest_even(gb, mant, guard, zero, sticky_all)
    gb.free(sticky_all)
    gb.free_bits(norm)

    # exponent' = exp_large + 1 + round_carry - lzc  (10-bit arithmetic)
    exp10 = _exp10(gb, exp_large)
    plus_one, c1 = bv.ripple_add(gb, exp10, bv.const_bits(gb, 1, 10), cin=round_carry)
    gb.free_bits([c1, round_carry])
    lzc10 = list(lzc) + [zero] * (10 - len(lzc))
    exp_final, eb = bv.ripple_sub(gb, plus_one, lzc10)
    gb.free(eb)
    gb.free_bits(plus_one)
    gb.free_bits(lzc)
    gb.free_bits(large_low)

    underflow, overflow = _flags_from_exp10(gb, exp_final)
    zero_total = gb.or_(underflow, result_is_zero)
    gb.free_bits([underflow, result_is_zero])

    result_sign = gb.and_(sign_large, gb_not := gb.not_(zero_total))
    gb.free(gb_not)
    assembled = rounded[:23] + exp_final[:8] + [result_sign]
    computed = _apply_specials(gb, assembled, result_sign, overflow, zero_total)
    gb.free_bits(rounded)
    gb.free_bits(exp_final)
    gb.free_bits([overflow, zero_total, result_sign, sign_large, sign_small])
    gb.free(effective_sub)

    # Early-outs for (flushed-to-)zero operands, applied outermost so any
    # garbage computed from a zero operand is discarded.
    b_signed = b_bits[:31] + [sign_b]
    with_b_zero = bv.mux_bits(gb, b_is_zero, a_bits, computed)
    with_a_zero = bv.mux_bits(gb, a_is_zero, b_signed, with_b_zero)
    gb.free_bits(computed)
    gb.free_bits(with_b_zero)
    # Both-zero with differing (effective) signs is +0 under RNE.
    both_zero = gb.and_(a_is_zero, b_is_zero)
    same_sign = gb.xnor(sign_a, sign_b)
    diff_sign = gb.not_(same_sign)
    force_pzero = gb.and_(both_zero, diff_sign)
    result = bv.mux_bits(gb, force_pzero, _zero_word(gb, zero), with_a_zero)
    gb.free_bits(with_a_zero)
    gb.free_bits([both_zero, same_sign, diff_sign, force_pzero])
    gb.free_bits([a_is_zero, b_is_zero, sign_b])

    gb.write_register(result, dest)
    gb.free_bits(result)


def lower_fmul(gb: GateBuilder, dest: int, a: int, b: int) -> None:
    """``dest = a * b`` in IEEE binary32 with RNE (FTZ, overflow to inf)."""
    a_bits, sign_a, exp_a, frac_a = _fields(gb, a)
    b_bits, sign_b, exp_b, frac_b = _fields(gb, b)
    zero, one = gb.const(0), gb.const(1)

    result_sign = gb.xor(sign_a, sign_b)
    a_is_zero = bv.is_zero(gb, exp_a)
    b_is_zero = bv.is_zero(gb, exp_b)

    # 24x24 -> 48-bit mantissa product (shift-and-add; garbage when an
    # operand is zero is fine, the early-out below discards it).
    mant_a = frac_a + [one]
    mant_b = frac_b + [one]
    not_a = bv.not_bits(gb, mant_a)
    product: List[Cell] = []
    for i in range(24):
        not_b_i = gb.not_(mant_b[i])
        addend = [gb.nor(not_a[j], not_b_i) for j in range(24)]
        gb.free(not_b_i)
        if i == 0:
            product = addend
            continue
        upper = product[i:]
        if len(upper) < 24:  # step 1 only: step 0 appended no carry bit
            upper = upper + [zero] * (24 - len(upper))
        total, carry = bv.ripple_add(gb, upper, addend)
        gb.free_bits(upper)
        gb.free_bits(addend)
        product = product[:i] + total + [carry]
    gb.free_bits(not_a)

    # Product in [1, 4): normalize by the top bit.
    norm_sel = product[47]
    mant = bv.mux_bits(gb, norm_sel, product[24:48], product[23:47])
    guard = gb.mux(norm_sel, product[23], product[22])
    low_or = bv.or_tree(gb, product[:22])
    extra = gb.and_(norm_sel, product[22])
    sticky = gb.or_(low_or, extra)
    gb.free_bits([low_or, extra])
    rounded, round_carry = bv.round_nearest_even(gb, mant, guard, zero, sticky)
    gb.free_bits(mant)
    gb.free_bits([guard, sticky])

    # exponent = ea + eb - 127 + norm_sel + round_carry (mod 1024, signed)
    t1, c1 = bv.ripple_add(gb, _exp10(gb, exp_a), _exp10(gb, exp_b), cin=norm_sel)
    gb.free(c1)
    t2, c2 = bv.ripple_add(gb, t1, bv.const_bits(gb, 1024 - BIAS, 10), cin=round_carry)
    gb.free_bits([c2, round_carry])
    gb.free_bits(t1)
    gb.free_bits(product)

    underflow, overflow = _flags_from_exp10(gb, t2)
    assembled = rounded[:23] + t2[:8] + [result_sign]
    computed = _apply_specials(gb, assembled, result_sign, overflow, underflow)
    gb.free_bits(rounded)
    gb.free_bits(t2)
    gb.free_bits([underflow, overflow])

    either_zero = gb.or_(a_is_zero, b_is_zero)
    result = bv.mux_bits(gb, either_zero, _zero_word(gb, result_sign), computed)
    gb.free_bits(computed)
    gb.free_bits([either_zero, a_is_zero, b_is_zero, result_sign])

    gb.write_register(result, dest)
    gb.free_bits(result)


def lower_fdiv(gb: GateBuilder, dest: int, a: int, b: int) -> None:
    """``dest = a / b`` in IEEE binary32 with RNE.

    Restoring division produces 27 quotient bits plus an exact remainder
    sticky, so rounding is exact. ``a/0`` yields a signed infinity and
    ``0/0`` yields +0 (documented deviation; NumPy raises warnings and
    produces inf/nan — the tests avoid zero divisors).
    """
    _, sign_a, exp_a, frac_a = _fields(gb, a)
    _, sign_b, exp_b, frac_b = _fields(gb, b)
    zero, one = gb.const(0), gb.const(1)

    result_sign = gb.xor(sign_a, sign_b)
    a_is_zero = bv.is_zero(gb, exp_a)
    b_is_zero = bv.is_zero(gb, exp_b)

    mant_a = frac_a + [one]
    mant_b = frac_b + [one]
    den = list(mant_b) + [zero]  # 25-bit working width

    rem = bv.copy_bits(gb, mant_a) + [gb.copy(zero)]
    qbits: List[Cell] = []  # generation order: weights 2**0 .. 2**-26
    for _ in range(27):
        diff, borrow = bv.ripple_sub(gb, rem, den)
        qbits.append(gb.not_(borrow))
        kept = bv.mux_bits(gb, borrow, rem, diff)
        gb.free(borrow)
        gb.free_bits(diff)
        gb.free_bits(rem)
        gb.free(kept[24])  # always 0: remainder < divisor < 2**24
        rem = [gb.copy(zero)] + kept[:24]
    nonzero_rem = bv.or_tree(gb, rem)
    gb.free_bits(rem)

    # Normalize: quotient in (1/2, 2). q0 set -> 1.q1..q23; else hidden q1.
    q0 = qbits[0]
    mant_hi = list(reversed(qbits[0:24]))
    mant_lo = list(reversed(qbits[1:25]))
    mant = bv.mux_bits(gb, q0, mant_hi, mant_lo)
    guard = gb.mux(q0, qbits[24], qbits[25])
    rnd = gb.mux(q0, qbits[25], qbits[26])
    extra = gb.and_(q0, qbits[26])
    sticky = gb.or_(nonzero_rem, extra)
    gb.free_bits([nonzero_rem, extra])
    rounded, round_carry = bv.round_nearest_even(gb, mant, guard, rnd, sticky)
    gb.free_bits(mant)
    gb.free_bits([guard, rnd, sticky])

    # exponent = ea - eb + 126 + q0 + round_carry (mod 1024, signed)
    neg_eb = bv.not_bits(gb, _exp10(gb, exp_b))
    t1, c1 = bv.ripple_add(gb, _exp10(gb, exp_a), neg_eb, cin=one)
    gb.free_bits(neg_eb)
    gb.free(c1)
    t2, c2 = bv.ripple_add(gb, t1, bv.const_bits(gb, 126, 10), cin=q0)
    gb.free_bits(t1)
    gb.free(c2)
    t3, c3 = bv.increment(gb, t2, round_carry)
    gb.free_bits(t2)
    gb.free_bits([c3, round_carry])
    gb.free_bits(qbits)

    underflow, overflow = _flags_from_exp10(gb, t3)
    assembled = rounded[:23] + t3[:8] + [result_sign]
    computed = _apply_specials(gb, assembled, result_sign, overflow, underflow)
    gb.free_bits(rounded)
    gb.free_bits(t3)
    gb.free_bits([underflow, overflow])

    # b == 0 -> signed infinity; a == 0 -> signed zero (outermost).
    result = _apply_specials(gb, computed, result_sign, b_is_zero, a_is_zero)
    gb.free_bits(computed)
    gb.free_bits([a_is_zero, b_is_zero, result_sign])

    gb.write_register(result, dest)
    gb.free_bits(result)


def float_lt(gb: GateBuilder, a_bits: List[Cell], b_bits: List[Cell]) -> Cell:
    """``a < b`` for finite floats (sign-magnitude order, ±0 equal)."""
    sign_a, sign_b = a_bits[31], b_bits[31]
    a_is_zero = bv.is_zero(gb, a_bits[23:31])
    b_is_zero = bv.is_zero(gb, b_bits[23:31])
    both_zero = gb.and_(a_is_zero, b_is_zero)
    gb.free_bits([a_is_zero, b_is_zero])
    mag_lt = bv.ult(gb, a_bits[:31], b_bits[:31])
    mag_gt = bv.ult(gb, b_bits[:31], a_bits[:31])
    same_sign_branch = gb.mux(sign_a, mag_gt, mag_lt)
    diff_sign = gb.xor(sign_a, sign_b)
    pre = gb.mux(diff_sign, sign_a, same_sign_branch)
    not_both_zero = gb.not_(both_zero)
    out = gb.and_(pre, not_both_zero)
    gb.free_bits([both_zero, mag_lt, mag_gt, same_sign_branch, diff_sign, pre, not_both_zero])
    return out


def float_eq(gb: GateBuilder, a_bits: List[Cell], b_bits: List[Cell]) -> Cell:
    """``a == b`` for finite floats (bit equality or both zero)."""
    raw_eq = bv.equals(gb, a_bits, b_bits)
    a_is_zero = bv.is_zero(gb, a_bits[23:31])
    b_is_zero = bv.is_zero(gb, b_bits[23:31])
    both_zero = gb.and_(a_is_zero, b_is_zero)
    out = gb.or_(raw_eq, both_zero)
    gb.free_bits([raw_eq, a_is_zero, b_is_zero, both_zero])
    return out


def lower_fneg(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = -a`` (sign-bit flip, exact for every input incl. ±0)."""
    a_bits = gb.register_cells(a)
    flipped = gb.not_(a_bits[31])
    gb.write_register(a_bits[:31] + [flipped], dest)
    gb.free(flipped)


def lower_fabs(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = |a|`` (sign-bit clear)."""
    a_bits = gb.register_cells(a)
    gb.write_register(a_bits[:31] + [gb.const(0)], dest)


def lower_fsign(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = sign(a)`` in {-1.0, 0.0, 1.0} (zero for FTZ inputs)."""
    a_bits = gb.register_cells(a)
    a_is_zero = bv.is_zero(gb, a_bits[23:31])
    nonzero = gb.not_(a_is_zero)
    gb.free(a_is_zero)
    sign = gb.and_(a_bits[31], nonzero)
    zero = gb.const(0)
    # ±1.0: exponent 127 = 0b01111111, fraction 0.
    result = [zero] * 23 + [nonzero] * 7 + [zero] + [sign]
    gb.write_register(result, dest)
    gb.free_bits([nonzero, sign])


def lower_fzero(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = 1 if a == ±0 (incl. FTZ subnormals) else 0``."""
    a_bits = gb.register_cells(a)
    flag = bv.is_zero(gb, a_bits[23:31])
    write_flag(gb, flag, dest)
    gb.free(flag)
