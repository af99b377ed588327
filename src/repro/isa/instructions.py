"""Macro-instructions of the proposed ISA (Section IV, Table II).

Four instruction families exist:

- :class:`RInstr` — register (R-type) operations executed thread-parallel
  across the activated threads of the activated warps;
- :class:`MoveInstr` — warp-parallel thread-serial data transfer, either
  within a warp or between warps following the Section III-F pattern;
- :class:`ReadInstr` — read one register of one thread of one warp;
- :class:`WriteInstr` — write a constant to one register across a
  range-based pattern of threads/warps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.isa.dtypes import DType, float32, int32


class ROp(enum.Enum):
    """R-type operations of Table II."""

    # Arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    # Comparison (results are 0/1 words)
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    # Bitwise
    BIT_NOT = "bit_not"
    BIT_AND = "bit_and"
    BIT_OR = "bit_or"
    BIT_XOR = "bit_xor"
    # Miscellaneous
    SIGN = "sign"
    ZERO = "zero"
    ABS = "abs"
    MUX = "mux"
    COPY = "copy"  # register-to-register copy (used by the tensor library)


#: Table II — which dtypes each operation supports. ``MOD`` is integer-only.
SUPPORT_MATRIX = {
    ROp.ADD: (int32, float32),
    ROp.SUB: (int32, float32),
    ROp.MUL: (int32, float32),
    ROp.DIV: (int32, float32),
    ROp.MOD: (int32,),
    ROp.NEG: (int32, float32),
    ROp.LT: (int32, float32),
    ROp.LE: (int32, float32),
    ROp.GT: (int32, float32),
    ROp.GE: (int32, float32),
    ROp.EQ: (int32, float32),
    ROp.NE: (int32, float32),
    ROp.BIT_NOT: (int32, float32),
    ROp.BIT_AND: (int32, float32),
    ROp.BIT_OR: (int32, float32),
    ROp.BIT_XOR: (int32, float32),
    ROp.SIGN: (int32, float32),
    ROp.ZERO: (int32, float32),
    ROp.ABS: (int32, float32),
    ROp.MUX: (int32, float32),
    ROp.COPY: (int32, float32),
}

#: Operand counts per operation (sources only; every op has one destination).
ARITY = {
    ROp.ADD: 2,
    ROp.SUB: 2,
    ROp.MUL: 2,
    ROp.DIV: 2,
    ROp.MOD: 2,
    ROp.NEG: 1,
    ROp.LT: 2,
    ROp.LE: 2,
    ROp.GT: 2,
    ROp.GE: 2,
    ROp.EQ: 2,
    ROp.NE: 2,
    ROp.BIT_NOT: 1,
    ROp.BIT_AND: 2,
    ROp.BIT_OR: 2,
    ROp.BIT_XOR: 2,
    ROp.SIGN: 1,
    ROp.ZERO: 1,
    ROp.ABS: 1,
    ROp.MUX: 3,
    ROp.COPY: 1,
}


@dataclass(frozen=True)
class RInstr:
    """A thread-parallel register operation.

    ``dest = op(src_a[, src_b[, src_c]])`` computed in every activated
    thread (``row_mask``) of every activated warp (``warp_mask``). For
    :attr:`ROp.MUX`, ``src_a`` is the 0/1 condition register and the result
    is ``src_b`` where the condition is 1, else ``src_c``.
    """

    op: ROp
    dtype: DType
    dest: int
    src_a: int
    src_b: Optional[int] = None
    src_c: Optional[int] = None
    warp_mask: Optional[RangeMask] = None
    row_mask: Optional[RangeMask] = None

    def sources(self) -> "tuple[int, ...]":
        """The source register indices actually used by this instruction."""
        nargs = ARITY[self.op]
        return tuple(
            src
            for src in (self.src_a, self.src_b, self.src_c)[:nargs]
            if src is not None
        )


@dataclass(frozen=True)
class MoveInstr:
    """A warp-parallel, thread-serial move of one register value.

    Copies register ``src_reg`` of thread ``src_thread`` into register
    ``dst_reg`` of thread ``dst_thread``. With ``warp_dist == 0`` the move
    stays within each activated warp (executed in parallel across all
    activated warps); otherwise every activated warp ``W`` sends to warp
    ``W + warp_dist`` following the H-tree pattern of Section III-F.
    """

    src_reg: int
    dst_reg: int
    src_thread: int
    dst_thread: int
    warp_mask: Optional[RangeMask] = None
    warp_dist: int = 0


@dataclass(frozen=True)
class ReadInstr:
    """Read one register of one thread of one warp; responds with a word."""

    warp: int
    thread: int
    reg: int


@dataclass(frozen=True)
class WriteInstr:
    """Write a raw N-bit constant to one register across a thread pattern."""

    reg: int
    value: int
    warp_mask: Optional[RangeMask] = None
    row_mask: Optional[RangeMask] = None


Instruction = Union[RInstr, MoveInstr, ReadInstr, WriteInstr]


def written_region(
    instr: Instruction, config: PIMConfig
) -> Optional[Tuple[int, RangeMask, RangeMask]]:
    """The cells an instruction writes, as ``(register, warps, rows)``;
    ``None`` for a read. An unset mask is the whole axis; a move writes
    one thread of its warp mask shifted by ``warp_dist``. Checksum
    regions, ``pim.compile``'s deferred-read and argument-aliasing checks
    and the pool's sharding all read it."""
    if isinstance(instr, ReadInstr):
        return None
    warps = instr.warp_mask or RangeMask.all(config.crossbars)
    if isinstance(instr, MoveInstr):
        dist = instr.warp_dist
        return (
            instr.dst_reg,
            RangeMask(warps.start + dist, warps.stop + dist, warps.step),
            RangeMask.single(instr.dst_thread),
        )
    reg = instr.dest if isinstance(instr, RInstr) else instr.reg
    return reg, warps, instr.row_mask or RangeMask.all(config.rows)


def validate(instr: Instruction, registers: int) -> None:
    """Validate an instruction against the architecture's register count.

    Raises ``ValueError`` for unsupported dtype/op combinations (Table II),
    missing or extra operands, and out-of-range register indices.
    """
    if isinstance(instr, RInstr):
        supported = SUPPORT_MATRIX[instr.op]
        if all(instr.dtype.name != d.name for d in supported):
            raise ValueError(f"{instr.op} does not support dtype {instr.dtype}")
        nargs = ARITY[instr.op]
        operands = (instr.src_a, instr.src_b, instr.src_c)
        if any(op is None for op in operands[:nargs]):
            raise ValueError(f"{instr.op} requires {nargs} source operands")
        if any(op is not None for op in operands[nargs:]):
            raise ValueError(f"{instr.op} takes only {nargs} source operands")
        for reg in (instr.dest, *instr.sources()):
            if not 0 <= reg < registers:
                raise ValueError(f"register {reg} out of range")
    elif isinstance(instr, MoveInstr):
        for reg in (instr.src_reg, instr.dst_reg):
            if not 0 <= reg < registers:
                raise ValueError(f"register {reg} out of range")
    elif isinstance(instr, ReadInstr):
        if not 0 <= instr.reg < registers:
            raise ValueError(f"register {instr.reg} out of range")
    elif isinstance(instr, WriteInstr):
        if not 0 <= instr.reg < registers:
            raise ValueError(f"register {instr.reg} out of range")
        if not 0 <= instr.value < (1 << 32):
            raise ValueError("write value must be a raw 32-bit word")
    else:
        raise TypeError(f"not an instruction: {instr!r}")
