"""The paper's design and parameter tables (Tables I-III), as data.

Each test asserts one table exactly against the object the
implementation reads it from, so a table and the code cannot drift
apart.
"""

from repro.arch.config import PIMConfig, paper_config
from repro.arch.halfgates import opcode_table
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import SUPPORT_MATRIX, ROp


def test_table_i_opcodes():
    """Table I: the per-partition opcodes of the half-gates technique."""
    assert opcode_table() == {
        0b000: "-",
        0b001: "? -> Out",
        0b010: "(?, InB) -> ?",
        0b011: "(?, InB) -> Out",
        0b100: "(InA, ?) -> ?",
        0b101: "(InA, ?) -> Out",
        0b110: "(InA, InB) -> ?",
        0b111: "(InA, InB) -> Out",
    }


def test_table_ii_operations():
    """Table II: every R-type operation supports int32 and float32, except
    mod (int32 only); ``copy`` is the driver's own, outside the table."""
    table_ii = [
        ROp.ADD, ROp.SUB, ROp.MUL, ROp.DIV, ROp.MOD, ROp.NEG,    # arithmetic
        ROp.LT, ROp.LE, ROp.GT, ROp.GE, ROp.EQ, ROp.NE,          # comparison
        ROp.BIT_NOT, ROp.BIT_AND, ROp.BIT_OR, ROp.BIT_XOR,       # bitwise
        ROp.SIGN, ROp.ZERO, ROp.ABS, ROp.MUX,                    # misc
    ]
    expected = {op: (int32, float32) for op in table_ii + [ROp.COPY]}
    expected[ROp.MOD] = (int32,)
    assert SUPPORT_MATRIX == expected


def test_table_iii_parameters():
    """Table III: 8 GB of 65,536 crossbars, each 1024 x 1024 in 32
    partitions, N = 32, at 300 MHz: 64M-row parallelism for Eq. (1)."""
    paper = paper_config()
    assert paper == PIMConfig(
        crossbars=65536, rows=1024, columns=1024,
        word_size=32, frequency_hz=300e6,
    )
    assert paper.capacity_bits == 8 * 2**30 * 8
    assert paper.total_rows == 64 * 2**20
