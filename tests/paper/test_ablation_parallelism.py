"""Ablation: bit-serial vs bit-parallel (partition) lowering.

Reproduces the partition-parallelism benefit of Section III-D / Figure 4:
the same macro-instruction is lowered with partitions disabled (pure
bit-serial element-parallel) and enabled (Kogge-Stone + parallel bitwise),
and the cycle counts are compared. Both counts are deterministic and
pinned.
"""

import pytest

from repro.arch.config import PIMConfig
from repro.driver.driver import Driver
from repro.isa.dtypes import int32
from repro.isa.instructions import RInstr, ROp
from repro.sim.simulator import Simulator

CASES = [
    # (name, op, arity, serial cycles, parallel cycles)
    ("add", ROp.ADD, 2, 299, 183),
    ("sub", ROp.SUB, 2, 331, 192),
    ("bit_and", ROp.BIT_AND, 2, 165, 6),
    ("bit_or", ROp.BIT_OR, 2, 132, 4),
    ("bit_xor", ROp.BIT_XOR, 2, 231, 10),
    ("bit_not", ROp.BIT_NOT, 1, 99, 2),
]


def cycles_for(op: ROp, arity: int, mode: str) -> int:
    sim = Simulator(PIMConfig(crossbars=1, rows=1))
    driver = Driver(sim, parallelism=mode)
    driver.execute(
        RInstr(op, int32, dest=2, src_a=0, src_b=1 if arity == 2 else None)
    )
    return sim.stats.cycles - 2  # exclude the two mask ops


@pytest.mark.parametrize(
    "name,op,arity,serial_cycles,parallel_cycles", CASES,
    ids=[c[0] for c in CASES],
)
def test_parallelism_ablation(name, op, arity, serial_cycles, parallel_cycles):
    serial = cycles_for(op, arity, "serial")
    parallel = cycles_for(op, arity, "parallel")
    assert parallel < serial
    assert (serial, parallel) == (serial_cycles, parallel_cycles)
