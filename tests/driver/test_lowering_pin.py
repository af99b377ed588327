"""The lowering is pinned: one digest over every gate the driver emits.

The digest covers the operation words of every R-type body (word size 16 /
32 / 64, parallel and serial, every op and dtype of Table II the word can
hold, five operand-aliasing patterns) and of a fixed set of spliced move,
read and write lowerings. A refactor of the AritPIM routines or of the
gate builder must leave it unchanged; only a deliberate change to the
emitted gates may bump it.
"""

from __future__ import annotations

import hashlib

from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.driver.driver import Driver
from repro.isa.instructions import (
    ARITY,
    SUPPORT_MATRIX,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
)

#: (dest, src_a, src_b, src_c): all distinct, dest is a, dest is b,
#: the sources alias each other, everything aliases.
ALIASING = ((0, 1, 2, 3), (1, 1, 2, 3), (2, 1, 2, 3), (0, 1, 1, 1), (1, 1, 1, 1))

WORD_SIZES = (16, 32, 64)

PINNED_DIGEST = "c8b7b548f700898cd738bcadbc5f822b91fa2109b80173410de7ae8aa13592f9"


def _config(word: int) -> PIMConfig:
    return PIMConfig(crossbars=8, rows=16, columns=32 * word, word_size=word)


def rtype_cases(word: int):
    """Every R-type instruction of the matrix at one word size."""
    for op in ROp:
        for dtype in SUPPORT_MATRIX[op]:
            if dtype.is_float and word != 32:
                continue  # the float suite lowers binary32 words only
            arity = ARITY[op]
            for dest, a, b, c in ALIASING:
                yield RInstr(op, dtype, dest, a, b if arity >= 2 else None,
                             c if arity >= 3 else None)


def short_streams(config: PIMConfig):
    """The spliced move / read / write lowerings of the pin."""
    last = config.crossbars - 1
    return (
        (MoveInstr(3, 3, 2, 2),),  # a no-op move
        (MoveInstr(3, 4, 2, 2),),
        (MoveInstr(3, 4, 2, 2, RangeMask(1, 5, 2)),),
        (MoveInstr(3, 4, 2, 9),),
        (MoveInstr(3, 3, 9, 2, RangeMask(0, 6, 2)),),
        (MoveInstr(5, 6, 1, 7, RangeMask(0, 0), 1),),
        (MoveInstr(5, 6, 1, 1, RangeMask(0, 4, 4), 2),),
        (MoveInstr(5, 5, 3, 0, RangeMask(0, 3), 4),),
        (ReadInstr(0, 0, 0),),
        (ReadInstr(last, 15, 7),),
        (WriteInstr(2, 0xBEEF),),
        (WriteInstr(2, 1, RangeMask(1, 7, 3), RangeMask(0, 15, 5)),),
        (WriteInstr(4, 7, RangeMask(2, 2), RangeMask(4, 4)),
         MoveInstr(4, 6, 4, 8, RangeMask(2, 2)),
         ReadInstr(2, 8, 6)),
        (MoveInstr(0, 1, 0, 1, RangeMask(0, 1), 2),
         MoveInstr(1, 0, 1, 0, RangeMask(2, 3), 4),
         WriteInstr(0, 0xFFFF, RangeMask(0, 1)),
         ReadInstr(1, 1, 1)),
    )


def lowering_digest() -> str:
    digest = hashlib.sha256()
    for word in WORD_SIZES:
        config = _config(word)
        for parallelism in ("parallel", "serial"):
            driver = Driver(None, config=config, parallelism=parallelism)
            cases = [(instr,) for instr in rtype_cases(word)]
            if parallelism == "parallel":
                cases += short_streams(config)
            for stream in cases:
                program = driver.compile(stream, optimize=False)
                digest.update(repr((word, parallelism, stream)).encode())
                digest.update(program.encoded(word).tobytes())
    return digest.hexdigest()


def test_every_emitted_gate_is_pinned():
    digest = lowering_digest()
    assert digest == PINNED_DIGEST, (
        f"the emitted gates changed (digest {digest}): a refactor of the "
        "lowering must emit the same words; bump PINNED_DIGEST only for a "
        "deliberate gate change, and say which in the commit"
    )
