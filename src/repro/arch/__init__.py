"""Microarchitecture layer: configuration, micro-operations, half-gates, H-tree.

This package models Section III of the paper: the four micro-operation types
(mask, read/write, logic, move), the 64-bit operation encoding of Figure 5,
the half-gates per-partition opcodes of Table I, the restricted partition
model of Section III-D3, and the H-tree inter-crossbar communication
framework of Section III-F.
"""

from repro.arch.config import PIMConfig, config_fingerprint
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    GateType,
    CrossbarMaskOp,
    RowMaskOp,
    ReadOp,
    WriteOp,
    LogicHOp,
    LogicVOp,
    MoveOp,
    MicroOp,
    encode,
    decode,
)
from repro.arch.halfgates import (
    Opcode,
    opcode_table,
    expand_pattern,
    opcodes_for_pattern,
    transistor_selects,
)
from repro.arch.htree import HTree, validate_move_pattern

__all__ = [
    "PIMConfig",
    "config_fingerprint",
    "RangeMask",
    "GateType",
    "CrossbarMaskOp",
    "RowMaskOp",
    "ReadOp",
    "WriteOp",
    "LogicHOp",
    "LogicVOp",
    "MoveOp",
    "MicroOp",
    "encode",
    "decode",
    "Opcode",
    "opcode_table",
    "expand_pattern",
    "opcodes_for_pattern",
    "transistor_selects",
    "HTree",
    "validate_move_pattern",
]
