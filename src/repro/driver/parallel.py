"""Bit-parallel (partition-based) fast paths (Section III-D1, Figure 4(b)).

With N partitions, the bit-striped word layout allows up to N concurrent
gates per row per cycle. Bitwise operations become O(1) micro-operations;
addition and subtraction use a Kogge–Stone parallel prefix whose
inter-partition shifts are realized with *strided* NOT passes — a gate
from partition ``k - d`` to partition ``k`` spans a section of ``d + 1``
partitions, so gates at stride ``d + 1`` stay disjoint and one distance-
``d`` shift costs ``d + 1`` micro-operations. This reproduces the
semi-parallel pattern of Figure 7(c,d).

Multiplication and division keep the bit-serial datapath (the MultPIM-style
bit-parallel multiplier is out of scope; see ``docs/architecture.md`` §11).

The short bodies built here (an int add is ~185 micro-ops) are the ones
whose per-macro dispatch cost capped driver headroom below 1x; they are
compiled once per (op, dtype, operand layout) into cached
``MicroProgram`` bodies and spliced verbatim — no re-lowering, no
re-validation — by the whole-stream emission compiler
(:mod:`repro.driver.stream`).
"""

from __future__ import annotations

from repro.arch.micro_ops import GateType
from repro.driver.gates import GateBuilder


def _nor_column(gb: GateBuilder, a_reg: int, b_reg: int, out_reg: int) -> None:
    """Partition-parallel NOR of two registers (1 micro-op, N gates)."""
    in_a, in_b = min(a_reg, b_reg), max(a_reg, b_reg)
    gb.emit((GateType.NOR, in_a, in_b, out_reg, 0, 0, 0, gb.config.partitions - 1, 1))


def _strided_not(gb: GateBuilder, src_reg: int, dst_reg: int, dist: int) -> int:
    """``dst[k] = NOT src[k - dist]`` for all ``k >= dist``.

    The destination must be pre-initialized to 1; partitions below ``dist``
    keep their initialized 1, which reads as NOT(0) — a zero fill of the
    shifted source. Returns the number of micro-ops emitted (``<= dist+1``).
    """
    parts = gb.config.partitions
    step = dist + 1
    emitted = 0
    for offset in range(step):
        first_out = dist + offset
        if first_out >= parts:
            break
        last_out = first_out + ((parts - 1 - first_out) // step) * step
        gb.emit(
            (GateType.NOT, src_reg, src_reg, dst_reg,
             offset, offset, first_out, last_out, step)
        )
        emitted += 1
    return emitted


def lower_not_parallel(gb: GateBuilder, dest: int, a: int) -> None:
    """``dest = ~a`` — one parallel NOT (plus staging when aliased)."""
    if dest != a:
        gb.init_column(dest, 1)
        gb.not_column(a, dest)
        return
    stage = gb.reserve_column()
    stage2 = gb.reserve_column()
    gb.init_column(stage, 1)
    gb.not_column(a, stage)  # stage = ~a
    gb.init_column(stage2, 1)
    gb.not_column(stage, stage2)  # stage2 = a
    gb.init_column(dest, 1)
    gb.not_column(stage2, dest)  # dest = ~a
    gb.release_column(stage)
    gb.release_column(stage2)


def lower_bitwise_parallel(gb: GateBuilder, op: str, dest: int, a: int, b: int = None) -> None:
    """Partition-parallel AND/OR/XOR (a handful of micro-ops each)."""
    if op == "bit_not":
        lower_not_parallel(gb, dest, a)
        return
    if op == "bit_and":
        na = gb.reserve_column()
        nb = gb.reserve_column()
        gb.init_column(na, 1)
        gb.not_column(a, na)
        gb.init_column(nb, 1)
        gb.not_column(b, nb)
        gb.init_column(dest, 1)
        _nor_column(gb, na, nb, dest)
        gb.release_column(na)
        gb.release_column(nb)
    elif op == "bit_or":
        t = gb.reserve_column()
        gb.init_column(t, 1)
        _nor_column(gb, a, b, t)
        gb.init_column(dest, 1)
        gb.not_column(t, dest)
        gb.release_column(t)
    elif op == "bit_xor":
        n1 = gb.reserve_column()
        n2 = gb.reserve_column()
        n3 = gb.reserve_column()
        gb.init_column(n1, 1)
        _nor_column(gb, a, b, n1)
        gb.init_column(n2, 1)
        _nor_column(gb, a, n1, n2)
        gb.init_column(n3, 1)
        _nor_column(gb, b, n1, n3)
        gb.init_column(n1, 1)  # reuse as the XNOR column
        _nor_column(gb, n2, n3, n1)
        gb.init_column(dest, 1)
        gb.not_column(n1, dest)
        for reg in (n1, n2, n3):
            gb.release_column(reg)
    else:
        raise ValueError(f"unknown bitwise op {op}")


def lower_add_parallel(gb: GateBuilder, dest: int, a: int, b: int, subtract: bool = False) -> None:
    """Kogge–Stone addition/subtraction with partition parallelism.

    Prefix recurrences (per distance ``d`` in 1, 2, 4, ...):
    ``G' = G | (P & G>>d)`` and ``P' = P & P>>d``; the final carry into bit
    ``k`` is ``G[k-1]``, and ``sum = P0 ^ carry`` where ``P0`` is the
    original propagate vector. Subtraction feeds ``~b`` and absorbs the
    +1 carry-in by seeding ``G[0] |= P[0]``.
    """
    parts = gb.config.partitions
    col_p0 = gb.reserve_column()  # original propagate (for the final sum)
    col_p = gb.reserve_column()
    col_g = gb.reserve_column()
    t1 = gb.reserve_column()
    t2 = gb.reserve_column()
    t3 = gb.reserve_column()
    cols = [col_p0, col_p, col_g, t1, t2, t3]

    operand = b
    if subtract:
        nb_col = gb.reserve_column()
        cols.append(nb_col)
        gb.init_column(nb_col, 1)
        gb.not_column(b, nb_col)
        operand = nb_col

    # col_p = col_p0 = a ^ operand (propagate); col_g = a & operand.
    gb.init_column(t1, 1)
    _nor_column(gb, a, operand, t1)  # t1 = NOR(a, op)
    gb.init_column(t2, 1)
    _nor_column(gb, a, t1, t2)
    gb.init_column(t3, 1)
    _nor_column(gb, operand, t1, t3)
    gb.init_column(t1, 1)
    _nor_column(gb, t2, t3, t1)  # t1 = XNOR(a, op)
    gb.init_column(col_p, 1)
    gb.not_column(t1, col_p)  # propagate (consumed by the prefix rounds)
    gb.init_column(col_p0, 1)
    gb.not_column(t1, col_p0)  # propagate copy (kept for the final sum)
    gb.init_column(t1, 1)
    gb.not_column(a, t1)
    gb.init_column(t2, 1)
    gb.not_column(operand, t2)
    gb.init_column(col_g, 1)
    _nor_column(gb, t1, t2, col_g)  # generate = a & op

    if subtract:
        # Absorb the +1 carry-in: G[0] |= P[0].
        g0 = (col_g, 0)
        p0 = (col_p, 0)
        t = gb.nor(g0, p0)
        new_g0 = gb.not_(t)
        gb.free(t)
        gb.init_cell(g0, 1)
        # NOT twice through a scratch cell to write the value back.
        tmp = gb.not_(new_g0)
        gb.not_into(tmp, g0)
        gb.free_bits([tmp, new_g0])

    # Prefix rounds.
    distance = 1
    while distance < parts:
        # t1 = ~ (G >> d); t2 = ~P
        gb.init_column(t1, 1)
        _strided_not(gb, col_g, t1, distance)
        gb.init_column(t2, 1)
        gb.not_column(col_p, t2)
        # t3 = P & (G >> d) = NOR(~P, ~(G>>d))
        gb.init_column(t3, 1)
        _nor_column(gb, t1, t2, t3)
        # G = G | t3  (t1 = NOR(G, t3); G = ~t1)
        gb.init_column(t1, 1)
        _nor_column(gb, col_g, t3, t1)
        gb.init_column(col_g, 1)
        gb.not_column(t1, col_g)
        # t3 = P & (P>>d) = NOR(~(P>>d), ~P); copy back into P via two NOTs.
        gb.init_column(t1, 1)
        _strided_not(gb, col_p, t1, distance)
        gb.init_column(t3, 1)
        _nor_column(gb, t1, t2, t3)
        gb.init_column(t1, 1)
        gb.not_column(t3, t1)
        gb.init_column(col_p, 1)
        gb.not_column(t1, col_p)
        distance *= 2

    # carries: c[k] = G[k-1]  -> t1 = ~(G >> 1); t2 = carry = ~t1.
    gb.init_column(t1, 1)
    _strided_not(gb, col_g, t1, 1)
    gb.init_column(t2, 1)
    gb.not_column(t1, t2)
    if subtract:
        # carry into bit 0 is the +1 carry-in itself.
        gb.init_cell((t2, 0), 1)

    # sum = P0 ^ carry (5-op XOR on columns), into dest.
    gb.init_column(t1, 1)
    _nor_column(gb, col_p0, t2, t1)
    gb.init_column(t3, 1)
    _nor_column(gb, col_p0, t1, t3)
    gb.init_column(col_g, 1)
    _nor_column(gb, t2, t1, col_g)
    gb.init_column(t2, 1)
    _nor_column(gb, t3, col_g, t2)  # XNOR
    gb.init_column(dest, 1)
    gb.not_column(t2, dest)

    for reg in cols:
        gb.release_column(reg)
