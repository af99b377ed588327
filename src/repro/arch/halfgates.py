"""The half-gates technique (Section III-D2, Table I).

A partitioned crossbar has one single-column decoder per partition, each
receiving a 3-bit opcode. A stateful-logic gate whose inputs and output live
in different partitions is realized by *half-gates*: the input partition's
decoder applies only the input voltages, the output partition's decoder
applies only the output voltages, and the combination forms a valid gate.

This module provides the Table I opcode set, the expansion of the restricted
partition pattern (p_a, p_b, p_out, p_end, p_step) into concrete gates and
per-partition opcodes, and the deduction of transistor selects from the
opcodes (restriction 3 of Section III-D3).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import List, Tuple

from repro.arch.micro_ops import GateType, LogicHOp


class Opcode(enum.IntEnum):
    """Per-partition 3-bit opcodes (Table I).

    The first bit (MSB, value 4) enables the InA input decoder, the second
    bit (value 2) enables the InB input decoder, and the last bit (value 1)
    enables the Out output decoder. ``NONE`` (000) applies no voltages at
    all, used for partitions between the input and output half-gates.
    """

    NONE = 0b000  # -
    OUT = 0b001  # ? -> Out
    INB = 0b010  # (?, InB) -> ?
    INB_OUT = 0b011  # (?, InB) -> Out
    INA = 0b100  # (InA, ?) -> ?
    INA_OUT = 0b101  # (InA, ?) -> Out
    INA_INB = 0b110  # (InA, InB) -> ?
    INA_INB_OUT = 0b111  # (InA, InB) -> Out

    @property
    def applies_in_a(self) -> bool:
        return bool(self.value & 0b100)

    @property
    def applies_in_b(self) -> bool:
        return bool(self.value & 0b010)

    @property
    def applies_out(self) -> bool:
        return bool(self.value & 0b001)


def opcode_table() -> "dict[int, str]":
    """Render Table I: index -> human-readable opcode string."""
    names = {
        Opcode.NONE: "-",
        Opcode.OUT: "? -> Out",
        Opcode.INB: "(?, InB) -> ?",
        Opcode.INB_OUT: "(?, InB) -> Out",
        Opcode.INA: "(InA, ?) -> ?",
        Opcode.INA_OUT: "(InA, ?) -> Out",
        Opcode.INA_INB: "(InA, InB) -> ?",
        Opcode.INA_INB_OUT: "(InA, InB) -> Out",
    }
    return {int(op): names[op] for op in Opcode}


# A concrete gate: (input partitions tuple, output partition). For INIT and
# NOT gates some input slots are unused and omitted from the tuple.
Gate = Tuple[Tuple[int, ...], int]


def expand_pattern(op: LogicHOp, partitions: int) -> List[Gate]:
    """Expand a LogicHOp's partition pattern into its concurrent gates.

    Returns a list of ``(input_partitions, output_partition)`` tuples and
    validates that every referenced partition is in range and that the
    sections spanned by distinct gates do not intersect (the semi-parallel
    validity requirement of Section III-D1).
    """
    gates: List[Gate] = []
    for k in range(op.gate_count):
        offset = k * op.p_step
        out_p = op.p_out + offset
        if op.gate == GateType.NOR:
            inputs: Tuple[int, ...] = (op.p_a + offset, op.p_b + offset)
        elif op.gate == GateType.NOT:
            inputs = (op.p_a + offset,)
        else:  # INIT0 / INIT1 take no inputs
            inputs = ()
        involved = inputs + (out_p,)
        if any(not 0 <= p < partitions for p in involved):
            raise ValueError(
                f"gate {k} of {op} references partition outside [0, {partitions})"
            )
        gates.append((inputs, out_p))

    # Sections (the min..max partition span of each gate) must be disjoint.
    spans = sorted(
        (min(inputs + (out,)), max(inputs + (out,))) for inputs, out in gates
    )
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        if lo <= hi:
            raise ValueError(f"intersecting gate sections in {op}")
    return gates


@lru_cache(maxsize=65536)
def pattern_outputs(
    gate: GateType,
    p_a: int,
    p_b: int,
    p_out: int,
    p_end: int,
    p_step: int,
    partitions: int,
) -> Tuple[int, int]:
    """(output-partition bitmask, gate count) of a valid partition pattern.

    :func:`expand_pattern` memoized on the fields it depends on: the
    expansion and every check in it read only the partition pattern
    (the column indices ``in_a``/``in_b``/``out`` play no part), and a
    lowered stream repeats a handful of patterns thousands of times, so
    stream validation and the simulator's pattern masks share this one
    memo. Only results are stored: an invalid pattern raises the same
    ``ValueError`` on every call.
    """
    op = LogicHOp(gate, 0, 0, 0, p_a=p_a, p_b=p_b, p_out=p_out,
                  p_end=p_end, p_step=p_step)
    gates = expand_pattern(op, partitions)
    mask = 0
    for _, out_p in gates:
        mask |= 1 << out_p
    return mask, len(gates)


def opcodes_for_pattern(op: LogicHOp, partitions: int) -> List[Opcode]:
    """Compute the per-partition opcode vector for a horizontal operation.

    Each partition receives the OR of the roles it plays across the
    operation's gates (a partition may hold both inputs, or an input and
    the output, of the same gate).
    """
    codes = [0] * partitions
    for inputs, out_p in expand_pattern(op, partitions):
        if op.gate in (GateType.NOR, GateType.NOT):
            codes[inputs[0]] |= 0b100  # InA role
        if op.gate == GateType.NOR:
            codes[inputs[1]] |= 0b010  # InB role
        codes[out_p] |= 0b001  # Out role
    return [Opcode(code) for code in codes]


def transistor_selects(op: LogicHOp, partitions: int) -> List[bool]:
    """Deduce the N-1 inter-partition transistor selects from the opcodes.

    Returns a list of ``partitions - 1`` booleans where ``True`` means the
    transistor between partition ``i`` and ``i + 1`` is *conducting*.
    Restriction 3 of Section III-D3: for ``p_a <= p_out``, a transistor is
    non-conducting only if the partition to its left has an ``* -> Out``
    opcode or the partition to its right has an ``(InA, *) -> *`` opcode;
    the ``p_a > p_out`` case is mirrored.
    """
    codes = opcodes_for_pattern(op, partitions)
    selects = []
    left_to_right = op.p_a <= op.p_out
    for i in range(partitions - 1):
        left, right = codes[i], codes[i + 1]
        if left_to_right:
            non_conducting = left.applies_out or right.applies_in_a
        else:
            non_conducting = left.applies_in_a or right.applies_out
        selects.append(not non_conducting)
    return selects


def sections_from_selects(selects: List[bool]) -> List[range]:
    """Split the partition axis into sections given the transistor selects.

    A section is a maximal run of partitions connected by conducting
    transistors. Used by tests to verify that the deduced selects isolate
    each concurrent gate into its own section.
    """
    sections: List[range] = []
    start = 0
    for i, conducting in enumerate(selects):
        if not conducting:
            sections.append(range(start, i + 1))
            start = i + 1
    sections.append(range(start, len(selects) + 1))
    return sections
