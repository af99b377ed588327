"""A refused instruction is refused the same way on every backend.

The simulator backend is the reference: its driver refuses an R-type
macro whole at plan build (``CompileError``, nothing runs), and feeds a
non-R lowering to the chip op by op, so the ops before the refused one
have run and are billed. The billed backends (numpy, the pool over
either worker kind) price instructions without a chip; this suite pins
them to the same exception type, the same ``SimStats`` after the raise
and — wherever the refusal comes before the first memory write — an
untouched word image.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.backend import NumpyBackend, SimulatorBackend
from repro.isa.dtypes import int32
from repro.isa.instructions import MoveInstr, ReadInstr, RInstr, ROp, WriteInstr
from repro.pool import PooledBackend
from tests.integration.test_differential_fuzz import _seeds

CFG = small_config(crossbars=4, rows=16)

BACKENDS = {
    "simulator": lambda: SimulatorBackend(CFG),
    "numpy": lambda: NumpyBackend(CFG),
    "pooled-numpy": lambda: PooledBackend(CFG, workers=2, worker_backend="numpy"),
    "pooled-simulator": lambda: PooledBackend(
        CFG, workers=2, worker_backend="simulator"
    ),
}


def _add(**masks):
    return RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1, **masks)


#: name -> (instruction, cycles the chip ran before refusing it).
REFUSALS = {
    "move-mask-out-of-range": (MoveInstr(0, 1, 0, 0, RangeMask(0, 7, 1), 1), 0),
    "move-htree-illegal": (MoveInstr(0, 1, 0, 0, RangeMask(0, 1, 1), 1), 1),
    "move-dst-thread-out-of-range": (
        MoveInstr(0, 1, 0, 99, RangeMask(0, 0, 1), 1), 1,
    ),
    "move-dst-warp-above-range": (MoveInstr(0, 1, 0, 0, RangeMask(3, 3, 1), 1), 1),
    "move-dst-warp-below-range": (MoveInstr(0, 1, 0, 0, RangeMask(0, 0, 1), -1), 0),
    "rtype-warp-mask-out-of-range": (_add(warp_mask=RangeMask(0, 7, 1)), 0),
    "rtype-row-mask-out-of-range": (_add(row_mask=RangeMask(0, 99, 1)), 0),
    "write-row-mask-out-of-range": (WriteInstr(1, 5, None, RangeMask(0, 99, 1)), 1),
    "read-warp-out-of-range": (ReadInstr(9, 0, 1), 0),
}


def _refuse(make, instr, seed):
    """Execute ``instr`` on a fresh backend over a seeded image; return
    what the refusal looked like from outside."""
    backend = make()
    image = np.random.default_rng(seed).integers(
        0, 1 << 32, size=backend.words.shape, dtype=np.uint64
    ).astype(backend.words.dtype)
    backend.words[...] = image
    with pytest.raises(Exception) as info:
        backend.execute(instr)
    untouched = np.array_equal(backend.words, image)
    return type(info.value), backend.stats.copy(), untouched


@pytest.mark.parametrize("seed", _seeds()[:1])
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_is_identical_on_every_backend(case, seed):
    instr, cycles = REFUSALS[case]
    error, stats, untouched = _refuse(BACKENDS["simulator"], instr, seed)
    assert stats.cycles == cycles and untouched, case
    for name in ("numpy", "pooled-numpy", "pooled-simulator"):
        assert _refuse(BACKENDS[name], instr, seed) == (error, stats, True), (
            f"{case} on {name}"
        )


def test_refusal_after_the_first_write_bills_the_same_prefix():
    """An intra-warp move into a thread that does not exist is refused at
    its vertical gate, four ops in: the staging column is already
    written on the chip (the functional model has none), so only the
    type and the bill are common to all backends."""
    instr = MoveInstr(0, 1, 0, 99, RangeMask(0, 0, 1), 0)
    error, stats, _ = _refuse(BACKENDS["simulator"], instr, 0)
    assert stats.cycles == 4
    for name in ("numpy", "pooled-numpy", "pooled-simulator"):
        assert _refuse(BACKENDS[name], instr, 0)[:2] == (error, stats), name


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_refused_instruction_is_refused_again(name):
    """Nothing about a refusal is memoized: the second attempt raises the
    same error and bills the same prefix again, like the chip."""
    instr, cycles = REFUSALS["write-row-mask-out-of-range"]
    backend = BACKENDS[name]()
    for attempt in (1, 2):
        with pytest.raises(Exception, match="row mask out of range"):
            backend.execute(instr)
        assert backend.stats.cycles == attempt * cycles
