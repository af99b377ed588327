"""Word-granular stretches of a plan replay as one copy (``replay.CopyRun``).

A plan folds each maximal stretch of mask ops, moves, vertical gates,
writes and whole-column INIT / NOT gate runs into one gather / AND / XOR
/ scatter of the word image. These tests pin it to op-by-op execution:

- seeded streams of bulk moves (inter- and intra-warp, same-thread
  copies, chained and overlapping destinations, the per-warp H-tree
  fallbacks, partial warps) with writes, R-types and reads between them,
  at word sizes 16, 32 and 64, leave the same whole word image (scratch
  and staging registers included), masks, stats and read responses as
  the same streams lowered and executed one op at a time;
- a NOT onto a cell that is not a constant ends a stretch, and the gate
  run or vertical op it sits in replays on its own;
- the ``fig12_replay_sim`` plan's stretch and absorbed-op counts are
  pinned as ``replay_info()`` keys.

Seeds are pinned; CI's fuzz job rotates them through
``REPRO_FUZZ_SEEDS`` like the differential-fuzz suite.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    CrossbarMaskOp, GateType, LogicHOp, LogicVOp, ReadOp, RowMaskOp,
)
from repro.driver.driver import Driver
from repro.driver.program import MicroProgram
from repro.isa.dtypes import int32
from repro.isa.instructions import ReadInstr, RInstr, ROp, WriteInstr
from repro.pim.tensor import _move_plan
from repro.sim import replay
from repro.sim.simulator import Simulator
from tests.integration.test_differential_fuzz import _seeds

SEEDS = _seeds()  # pinned, or REPRO_FUZZ_SEEDS


def _config(word_size: int) -> PIMConfig:
    return PIMConfig(crossbars=8, rows=8, columns=32 * word_size, word_size=word_size)


def _bulk_move(rng: random.Random, config: PIMConfig) -> list:
    """One bulk move's planned stream (``_move_plan``) between two user
    registers, of a random shape."""
    rows, capacity = config.rows, config.rows * config.crossbars
    src_reg, dst_reg = (rng.randrange(config.user_registers) for _ in range(2))
    kind = rng.choice(["copy", "shift", "warps", "strided", "xor"])
    n = rng.randrange(1, capacity // 2 + 1)  # partial warps as often as not
    if kind == "copy":  # same threads and warps: register-to-register copies
        start = rng.randrange(capacity - n + 1)
        src = dst = range(start, start + n)
    elif kind == "shift":  # thread to thread, across warp edges too; chained in place
        step = rng.randrange(1, rows + 2)
        src, dst = range(n), range(step, step + n)
    elif kind == "warps":  # whole-warp offsets: runs the H-tree rejects
        offset = rows * rng.randrange(1, config.crossbars // 2 + 1)
        src, dst = range(n), range(offset, offset + n)
        if rng.random() < 0.5:
            src, dst = dst, src
    elif kind == "strided":  # compacting a view such as z[::2]
        src, dst = range(0, 2 * n, 2), range(n)
    else:  # the bitonic sort's partner permutation
        size = 1 << rng.randrange(1, capacity.bit_length() - 1)
        j = 1 << rng.randrange(size.bit_length() - 1)
        src, dst = tuple(i ^ j for i in range(size)), range(size)
    return list(_move_plan(rows, config.crossbars, src_reg, 0, src, dst_reg, 0, dst))


def _mask(rng: random.Random, size: int) -> RangeMask:
    start = rng.randrange(size)
    step = rng.randrange(1, 3)
    return RangeMask(start, start + step * rng.randrange((size - 1 - start) // step + 1), step)


def _stream(rng: random.Random, config: PIMConfig) -> list:
    """Bulk moves with writes and R-types between them, ending in a read."""
    stream: list = []
    users = config.user_registers
    for _ in range(rng.randrange(2, 7)):
        stream += _bulk_move(rng, config)
        roll = rng.random()
        if roll < 0.3:
            value = rng.randrange(1 << min(32, config.word_size))  # a raw ISA word
            stream.append(WriteInstr(rng.randrange(users), value,
                                     _mask(rng, config.crossbars), _mask(rng, config.rows)))
        elif roll < 0.5:
            dest, a, b = (rng.randrange(users) for _ in range(3))
            op = rng.choice([ROp.ADD, ROp.BIT_XOR, ROp.BIT_NOT, ROp.COPY])
            unary = op in (ROp.BIT_NOT, ROp.COPY)
            stream.append(RInstr(op, int32, dest, a, None if unary else b))
        elif roll < 0.6:
            stream.append(ReadInstr(rng.randrange(config.crossbars),
                                    rng.randrange(config.rows), rng.randrange(users)))
    return stream + [ReadInstr(rng.randrange(config.crossbars), rng.randrange(config.rows),
                               rng.randrange(config.registers))]


def _twins(config: PIMConfig, seed: int):
    """A planning driver and an op-by-op one (``cache_size=0``) over
    simulators seeded with the same image."""
    image = np.random.default_rng(seed).integers(
        0, 1 << config.word_size, size=(config.crossbars, config.registers, config.rows),
        dtype=np.uint64)
    chips = Simulator(config), Simulator(config)
    for chip in chips:
        chip.memory.words[...] = image
    return Driver(chips[0]), Driver(chips[1], cache_size=0)


def _assert_same_chip(planned: Simulator, reference: Simulator, context) -> None:
    assert np.array_equal(planned.memory.words, reference.memory.words), context
    assert planned.crossbar_mask == reference.crossbar_mask, context
    assert planned.row_mask == reference.row_mask, context
    assert planned.stats == reference.stats, context


@pytest.mark.parametrize("word_size", [16, 32, 64])
@pytest.mark.parametrize("seed", SEEDS)
def test_move_streams_replay_as_executed_op_by_op(word_size, seed):
    config = _config(word_size)
    rng = random.Random(seed * 131 + word_size)
    planning, stepping = _twins(config, seed)
    folded = 0
    for turn in range(6):
        stream = _stream(rng, config)
        context = f"seed={seed} word={word_size} stream {turn}"
        assert planning.execute_stream(stream) == stepping.execute_stream(stream), context
        _assert_same_chip(planning.chip, stepping.chip, context)
        plan = planning.chip.replay_plan(planning.stream_program(stream))
        folded += sum(step.ops for step in plan.steps if type(step) is replay.CopyRun)
    assert planning.chip.replay_counters["reference"] == 0
    assert stepping.chip.replay_counters["vectorized"] == 0
    assert folded > 100


@pytest.mark.parametrize("word_size", [32, 64])
def test_a_move_is_one_copy_run(word_size):
    """An inter- and an intra-warp move with their landings: one record
    (at a word size whose gates leave no bit of the word alone)."""
    config = _config(word_size)
    stream = list(_move_plan(config.rows, config.crossbars, 0, 0, range(3, 20),
                             1, 0, range(12, 29)))
    planning, stepping = _twins(config, 1)
    planning.execute_stream(stream)
    stepping.execute_stream(stream)
    _assert_same_chip(planning.chip, stepping.chip, stream)
    program = planning.stream_program(stream)
    (run,) = planning.chip.replay_plan(program).steps
    assert type(run) is replay.CopyRun and run.ops == len(program)
    # Register 1's 17 destination cells and the two staging registers'.
    assert len(run.dst) == 3 * 17


def _program(config, ops):
    return MicroProgram.from_ops(ops, "p", config)


def test_a_not_onto_a_cell_that_is_not_a_constant_replays_alone():
    """``out &= ~in`` onto a live cell reads two cells: the gate run (and
    the vertical NOT) holding it is its own record, between copies."""
    config = _config(32)
    whole = dict(p_a=0, p_b=0, p_out=0, p_end=31, p_step=1)
    ops = [CrossbarMaskOp(0, 7, 1), RowMaskOp(0, 7, 1),
           LogicHOp(GateType.INIT1, 0, 0, 2, **whole), LogicHOp(GateType.NOT, 0, 0, 2, **whole),
           LogicVOp(GateType.INIT1, 0, 0, 9),  # ends the gate run
           LogicHOp(GateType.NOT, 1, 1, 2, **whole),  # onto ~r0: not a constant
           LogicVOp(GateType.INIT0, 0, 3, 4),
           LogicVOp(GateType.NOT, 5, 3, 4),  # onto the INIT0: a constant
           LogicVOp(GateType.NOT, 5, 6, 4),  # onto a live cell
           LogicVOp(GateType.INIT1, 0, 7, 4),
           CrossbarMaskOp(3, 3, 1), RowMaskOp(5, 5, 1), ReadOp(2)]
    program = _program(config, ops)
    planned, reference = Simulator(config), Simulator(config)
    image = np.random.default_rng(3).integers(0, 1 << 32, planned.memory.words.shape,
                                               dtype=np.uint64)
    for chip in (planned, reference):
        chip.memory.words[...] = image
    expected = [reference.execute(op) for op in ops][-1]
    assert planned.execute_program(program) == expected
    _assert_same_chip(planned, reference, ops)
    kinds = [type(step).__name__ for step in planned.replay_plan(program).steps]
    assert kinds == ["CopyRun", "GateRun", "CopyRun", "VerticalNot", "CopyRun", "ReadStep"]


def test_the_final_masks_are_the_programs_last():
    """The masks a replay leaves are those the program set last, each
    kind on its own: a program setting no row mask keeps the caller's."""
    config = _config(32)
    ops = [CrossbarMaskOp(1, 5, 2), LogicVOp(GateType.INIT1, 0, 3, 4),
           CrossbarMaskOp(2, 6, 4), LogicVOp(GateType.NOT, 3, 5, 4)]
    program = _program(config, ops)
    planned, reference = Simulator(config), Simulator(config)
    for chip in (planned, reference):
        chip.execute(RowMaskOp(2, 6, 2))
    planned.execute_program(program)
    for op in ops:
        reference.execute(op)
    _assert_same_chip(planned, reference, ops)
    assert planned.replay_plan(program).masks == (RangeMask(2, 6, 4), None)
    assert planned.row_mask == RangeMask(2, 6, 2)


def _fig12(a, b):
    """``bench``'s ``fig12_func``: Figure 12's ``myFunc`` plus the strided
    reduction."""
    z = a * b + a
    return z[::2].sum()


def test_the_fig12_replay_plan_folds_its_moves():
    """The ``fig12_replay_sim`` program (O0, 8x32, n=256): its 954
    non-gate ops and 269 landing runs are 7 copies of the image, between
    its 9 plane runs; the IR's own counts keep their meaning."""
    device = pim.PIMDevice(PIMConfig(crossbars=8, rows=32), backend="simulator")
    rng = np.random.default_rng(7)
    a, b = (pim.from_numpy(rng.uniform(-4, 4, 256).astype(np.float32), device=device)
            for _ in range(2))
    compiled = pim.compile(_fig12, device=device)
    compiled(a, b)
    info = compiled.replay_info(a, b)
    device.close()
    assert (info["ops"], info["gate_runs"], info["fallback_ops"]) == (53_823, 278, 954)
    assert (info["copy_runs"], info["copy_ops"]) == (7, 1_934)
    assert len(info["plan"]) == 9
    assert {run["layout"] for run in info["plan"]} == {"planes"}
