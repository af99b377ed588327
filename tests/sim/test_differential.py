"""Differential testing: packed simulator vs. the naive reference.

Random micro-operation streams — and full driver-lowered macro-
instructions — are executed on both the word-packed production simulator
and the bit-at-a-time :class:`ReferenceSimulator`; the final memory images
must match exactly. This pins the packed executor's semantics to the
written-out operation definitions, independent of its implementation.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import small_config
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicHOp,
    LogicVOp,
    MoveOp,
    RowMaskOp,
    WriteOp,
)
from repro.driver.driver import Driver
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import RInstr, ROp
from repro.sim.reference import ReferenceSimulator
from repro.sim.simulator import Simulator

CFG = small_config(crossbars=4, rows=4)


def images_match(sim: Simulator, ref: ReferenceSimulator) -> bool:
    for xbar in range(CFG.crossbars):
        if not (sim.memory.unpack_bits(xbar) == ref.bits[xbar]).all():
            return False
    return True


def run_both(ops, seed_words=None):
    sim = Simulator(CFG)
    ref = ReferenceSimulator(CFG)
    if seed_words is not None:
        for (xbar, row, index), value in seed_words.items():
            sim.memory.set_word(xbar, row, index, value)
            ref.execute(CrossbarMaskOp(xbar, xbar, 1))
            ref.execute(RowMaskOp(row, row, 1))
            ref.execute(WriteOp(index, value))
            ref.execute(CrossbarMaskOp(0, CFG.crossbars - 1, 1))
            ref.execute(RowMaskOp(0, CFG.rows - 1, 1))
    sim.execute_all(ops)
    ref.execute_all(ops)
    assert images_match(sim, ref)


# ----------------------------------------------------------------------
# Random op-stream strategy
# ----------------------------------------------------------------------
def _mask_ops(draw):
    start = draw(st.integers(0, CFG.crossbars - 1))
    stop = draw(st.integers(start, CFG.crossbars - 1))
    step = draw(st.sampled_from([1, 2]))
    stop = start + ((stop - start) // step) * step
    rstart = draw(st.integers(0, CFG.rows - 1))
    rstop = draw(st.integers(rstart, CFG.rows - 1))
    rstep = draw(st.sampled_from([1, 2]))
    rstop = rstart + ((rstop - rstart) // rstep) * rstep
    return [CrossbarMaskOp(start, stop, step), RowMaskOp(rstart, rstop, rstep)]


@st.composite
def op_streams(draw):
    ops = [
        CrossbarMaskOp(0, CFG.crossbars - 1, 1),
        RowMaskOp(0, CFG.rows - 1, 1),
    ]
    for _ in range(draw(st.integers(3, 20))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            ops.extend(_mask_ops(draw))
        elif kind == 1:
            ops.append(
                WriteOp(draw(st.integers(0, CFG.registers - 1)),
                        draw(st.integers(0, 2**32 - 1)))
            )
        elif kind == 2:
            gate = draw(st.sampled_from(list(GateType)))
            p_a = draw(st.integers(0, CFG.partitions - 1))
            p_b = draw(st.integers(p_a, CFG.partitions - 1))
            p_out = draw(st.integers(0, CFG.partitions - 1))
            ops.append(
                LogicHOp(
                    gate,
                    draw(st.integers(0, CFG.registers - 1)),
                    draw(st.integers(0, CFG.registers - 1)),
                    draw(st.integers(0, CFG.registers - 1)),
                    p_a=p_a, p_b=p_b, p_out=p_out, p_end=p_out, p_step=1,
                )
            )
        elif kind == 3:
            gate = draw(st.sampled_from(
                [GateType.INIT0, GateType.INIT1, GateType.NOT]))
            in_row = draw(st.integers(0, CFG.rows - 1))
            out_row = draw(
                st.integers(0, CFG.rows - 1).filter(
                    lambda r: gate != GateType.NOT or r != in_row
                )
            )
            ops.append(
                LogicVOp(gate, in_row, out_row,
                         draw(st.integers(0, CFG.registers - 1)))
            )
        else:
            # Parallel column op (strided pattern).
            step = draw(st.sampled_from([1, 2, 4]))
            offset = draw(st.integers(0, step - 1)) if step > 1 else 0
            dist = draw(st.integers(0, step - 1))
            p_out = dist + offset
            if p_out >= CFG.partitions:
                continue
            last = p_out + ((CFG.partitions - 1 - p_out) // step) * step
            gate = draw(st.sampled_from([GateType.NOT, GateType.INIT1]))
            ops.append(
                LogicHOp(
                    gate,
                    draw(st.integers(0, CFG.registers - 1)),
                    draw(st.integers(0, CFG.registers - 1)),
                    draw(st.integers(0, CFG.registers - 1)),
                    p_a=offset, p_b=offset, p_out=p_out, p_end=last,
                    p_step=step,
                )
            )
    return ops


@settings(max_examples=60, deadline=None)
@given(ops=op_streams())
def test_random_streams_match(ops):
    run_both(ops)


class TestDriverLoweredPrograms:
    """Whole macro-instructions through both executors."""

    @pytest.mark.parametrize(
        "op,dtype",
        [
            (ROp.ADD, int32),
            (ROp.MUL, int32),
            (ROp.LT, int32),
            (ROp.ADD, float32),
            (ROp.MUL, float32),
            (ROp.BIT_XOR, int32),
            (ROp.ABS, int32),
        ],
        ids=lambda x: getattr(x, "value", None) or getattr(x, "name", str(x)),
    )
    def test_macro_instruction(self, op, dtype):
        rng = np.random.default_rng(
            zlib.crc32(repr((op.value, dtype.name)).encode())
        )
        sim = Simulator(CFG)
        ref = ReferenceSimulator(CFG)
        driver = Driver(sim, guard=True)

        seed = {}
        for reg in (0, 1):
            for xbar in range(CFG.crossbars):
                for row in range(CFG.rows):
                    value = int(rng.integers(0, 2**32))
                    sim.memory.set_word(xbar, row, reg, value)
                    seed[(xbar, row, reg)] = value
        for (xbar, row, reg), value in seed.items():
            for partition in range(CFG.partitions):
                ref.bits[xbar, row, partition * CFG.partition_width + reg] = bool(
                    (value >> partition) & 1
                )

        from repro.isa.instructions import ARITY

        instr = RInstr(
            op, dtype, dest=2, src_a=0,
            src_b=1 if ARITY[op] >= 2 else None,
        )
        ops = driver.lower(instr)
        sim.execute_all(ops)
        ref.execute_all(ops)
        assert images_match(sim, ref)
