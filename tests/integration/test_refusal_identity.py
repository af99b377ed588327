"""A refused instruction is refused whole, the same way, everywhere.

The driver's ``check_stream`` is the one refusal: whatever the chip
would refuse — a mask or row out of range, an illegal H-tree pattern —
is refused before one op of the stream is built, priced or sent. So
every backend (the simulator, planned and plan-less, numpy, and the pool
over either worker kind) and every entry point (``execute``,
``run_stream``, a verbatim ``compile`` and a ``pim.compile`` capture)
raises the same exception type, bills nothing and leaves the word image
untouched — also when a write and an add come before the refused
instruction in its stream.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig, small_config
from repro.arch.masks import RangeMask
from repro.backend import NumpyBackend, SimulatorBackend
from repro.driver.compiler import CompileError
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import MoveInstr, ReadInstr, RInstr, ROp, WriteInstr
from repro.pool import PooledBackend
from repro.sim.simulator import SimulationError
from repro.sim.stats import SimStats
from tests.integration.test_differential_fuzz import _seeds

CFG = small_config(crossbars=4, rows=16)

BACKENDS = {
    "simulator": lambda: SimulatorBackend(CFG),
    "simulator-unplanned": lambda: SimulatorBackend(CFG, cache_size=0),
    "numpy": lambda: NumpyBackend(CFG),
    "pooled-numpy": lambda: PooledBackend(CFG, workers=2, worker_backend="numpy"),
    "pooled-simulator": lambda: PooledBackend(
        CFG, workers=2, worker_backend="simulator"
    ),
}


def _add(**masks):
    return RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1, **masks)


#: name -> (instruction, what refuses it): the driver's range checks
#: raise ``CompileError``, the chip's walk ``SimulationError``.
REFUSALS = {
    "move-mask-out-of-range": (
        MoveInstr(0, 1, 0, 0, RangeMask(0, 7, 1), 1), CompileError,
    ),
    "move-htree-illegal": (
        MoveInstr(0, 1, 0, 0, RangeMask(0, 1, 1), 1), SimulationError,
    ),
    "move-dst-thread-out-of-range": (
        MoveInstr(0, 1, 0, 99, RangeMask(0, 0, 1), 1), CompileError,
    ),
    "move-intra-warp-dst-thread-out-of-range": (
        MoveInstr(0, 1, 0, 99, RangeMask(0, 0, 1), 0), CompileError,
    ),
    "move-dst-warp-above-range": (
        MoveInstr(0, 1, 0, 0, RangeMask(3, 3, 1), 1), CompileError,
    ),
    "move-dst-warp-below-range": (
        MoveInstr(0, 1, 0, 0, RangeMask(0, 0, 1), -1), CompileError,
    ),
    "rtype-warp-mask-out-of-range": (_add(warp_mask=RangeMask(0, 7, 1)), CompileError),
    "rtype-row-mask-out-of-range": (_add(row_mask=RangeMask(0, 99, 1)), CompileError),
    "write-row-mask-out-of-range": (
        WriteInstr(1, 5, None, RangeMask(0, 99, 1)), CompileError,
    ),
    "read-warp-out-of-range": (ReadInstr(9, 0, 1), CompileError),
}

#: What runs before the refused instruction in a stream: nothing of it
#: may run, and nothing of it may be billed.
PREFIX = [WriteInstr(0, 5), WriteInstr(1, 7), _add()]


def _capture(backend, stream):
    """A ``pim.compile`` capture of ``stream``: its first call records the
    stream, lowers it and — had it been accepted — replays it."""
    device = pim.PIMDevice(backend=backend)

    def issue():
        for instr in stream:
            device.execute(instr)

    pim.compile(issue, device=device)()


ENTRY_POINTS = {
    "execute": lambda backend, instr: backend.execute(instr),
    "run_stream": lambda backend, instr: backend.run_stream(PREFIX + [instr]),
    "compile": lambda backend, instr: backend.compile(
        PREFIX + [instr], optimize=False
    ),
    "capture": lambda backend, instr: _capture(backend, PREFIX + [instr]),
}


def _refuse(make, entry, instr, seed):
    """Refuse ``instr`` through ``entry`` on a fresh backend over a seeded
    image; return the exception type, the bill and whether the image
    was left untouched."""
    backend = make()
    image = np.random.default_rng(seed).integers(
        0, 1 << 32, size=backend.words.shape, dtype=np.uint64
    ).astype(backend.words.dtype)
    backend.words[...] = image
    with pytest.raises(Exception) as info:
        ENTRY_POINTS[entry](backend, instr)
    return info.type, backend.stats.copy(), np.array_equal(backend.words, image)


@pytest.mark.parametrize("seed", _seeds()[:1])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_is_identical_on_every_backend(case, entry, seed):
    instr, error = REFUSALS[case]
    for name, make in BACKENDS.items():
        refused = _refuse(make, entry, instr, seed)
        assert refused == (error, SimStats(), True), f"{case} via {entry} on {name}"


#: Chips whose word is not float32's width: 16-bit and 64-bit words.
NARROW_AND_WIDE = {
    16: PIMConfig(crossbars=4, rows=16, columns=512, word_size=16),
    64: PIMConfig(crossbars=4, rows=16, columns=2048, word_size=64),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("word", sorted(NARROW_AND_WIDE))
def test_a_float_op_on_a_chip_of_another_word_width_is_refused(word, entry):
    """A float op needs words of its dtype's width: on any other chip it
    is refused whole, as a ``CompileError``, before its stream's write
    and int add run. (The numpy backend models 32-bit words only and
    refuses such a chip at construction.)"""
    config = NARROW_AND_WIDE[word]
    instr = RInstr(ROp.MUL, float32, dest=2, src_a=0, src_b=1)
    backends = {
        "simulator": lambda: SimulatorBackend(config),
        "simulator-unplanned": lambda: SimulatorBackend(config, cache_size=0),
        "pooled-simulator": lambda: PooledBackend(
            config, workers=2, worker_backend="simulator"
        ),
    }
    for name, make in backends.items():
        refused = _refuse(make, entry, instr, seed=word)
        assert refused == (CompileError, SimStats(), True), f"{name} via {entry}"


def test_the_stream_is_refused_before_its_write_and_add():
    """A plan the chip would refuse at its move is refused before the
    writes and the add ahead of it run: no sum, no cycles."""
    config = small_config(crossbars=16, rows=16)
    stream = [WriteInstr(0, 5), WriteInstr(1, 7),
              RInstr(ROp.ADD, int32, dest=3, src_a=0, src_b=1),
              MoveInstr(0, 1, 0, 0, RangeMask(0, 2, 1), 1)]
    for backend in (SimulatorBackend(config), NumpyBackend(config)):
        with pytest.raises(SimulationError, match="source and destination"):
            backend.run_stream(stream)
        assert not backend.words.any() and backend.stats.cycles == 0


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_refused_instruction_is_refused_again(name):
    """Nothing about a refusal is memoized: the second attempt raises the
    same error, and neither bills anything."""
    instr, error = REFUSALS["write-row-mask-out-of-range"]
    backend = BACKENDS[name]()
    for _ in range(2):
        with pytest.raises(error, match="row mask out of range"):
            backend.execute(instr)
        assert backend.stats.cycles == 0
