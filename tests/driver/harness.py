"""Shared harness: run macro-instructions on a small simulated chip."""

from __future__ import annotations

import numpy as np

from repro.arch.config import PIMConfig, small_config
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import LogicHOp
from repro.driver.driver import Driver
from repro.isa.dtypes import DType, raw_to_value, value_to_raw
from repro.isa.instructions import ReadInstr, RInstr, ROp, WriteInstr
from repro.sim.simulator import Simulator


class Chip:
    """A tiny chip + driver with array-level put/get helpers."""

    def __init__(self, config: PIMConfig = None, **driver_kwargs):
        self.config = config or small_config(crossbars=4, rows=8)
        self.simulator = Simulator(self.config)
        driver_kwargs.setdefault("guard", True)
        self.driver = Driver(self.simulator, **driver_kwargs)

    @property
    def capacity(self) -> int:
        return self.config.crossbars * self.config.rows

    def put(self, reg: int, values, dtype: DType) -> None:
        values = np.asarray(values).reshape(-1)
        assert values.size <= self.capacity
        for index, value in enumerate(values):
            warp, thread = divmod(index, self.config.rows)
            self.driver.execute(
                WriteInstr(
                    reg,
                    value_to_raw(value, dtype),
                    RangeMask.single(warp),
                    RangeMask.single(thread),
                )
            )

    def get(self, reg: int, count: int, dtype: DType) -> np.ndarray:
        out = []
        for index in range(count):
            warp, thread = divmod(index, self.config.rows)
            raw = self.driver.execute(ReadInstr(warp, thread, reg))
            out.append(raw_to_value(raw, dtype))
        return np.array(out, dtype=dtype.np_dtype)

    def run(self, op: ROp, dtype: DType, dest: int, *sources: int) -> None:
        srcs = list(sources) + [None, None, None]
        self.driver.execute(
            RInstr(
                op, dtype, dest=dest,
                src_a=srcs[0], src_b=srcs[1], src_c=srcs[2],
            )
        )


class GateHarness:
    """Run GateBuilder gate sequences on a single-row simulated crossbar.

    Cells are set/read through the packed memory image directly (the
    builder's micro-ops still execute through the simulator proper).
    """

    def __init__(self, guard: bool = True):
        from repro.driver.gates import GateBuilder

        self.config = small_config(crossbars=1, rows=1)
        self.simulator = Simulator(self.config)
        self.gb = GateBuilder(self.config, self._emit, guard=guard)

    def _emit(self, row) -> None:
        """The builder emits rows; the simulator executes op objects."""
        self.simulator.execute(LogicHOp(*row))

    def set_cell(self, cell, value: int) -> None:
        reg, part = cell
        self.simulator.memory.set_bit(0, 0, part, reg, value)

    def get_cell(self, cell) -> int:
        reg, part = cell
        return self.simulator.memory.get_bit(0, 0, part, reg)

    def set_register(self, reg: int, word: int) -> None:
        self.simulator.memory.set_word(0, 0, reg, word & 0xFFFFFFFF)

    def get_register(self, reg: int) -> int:
        return self.simulator.memory.get_word(0, 0, reg)

    def set_bits(self, cells, value: int) -> None:
        for index, cell in enumerate(cells):
            self.set_cell(cell, (value >> index) & 1)

    def get_bits(self, cells) -> int:
        return sum(self.get_cell(cell) << i for i, cell in enumerate(cells))

    def input_bits(self, value: int, width: int):
        """Allocate a scratch bit vector holding ``value``."""
        cells = self.gb.alloc_bits(width)
        self.set_bits(cells, value)
        return cells

    @property
    def cycles(self) -> int:
        return self.simulator.stats.cycles


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Bit-exact comparison (distinguishes ±0, unlike ==)."""
    got32 = np.asarray(got).view(np.uint32)
    want32 = np.asarray(want).view(np.uint32)
    mismatch = got32 != want32
    assert not mismatch.any(), (
        f"bit mismatch at {np.where(mismatch)[0][:10]}: "
        f"got {np.asarray(got)[mismatch][:10]} want {np.asarray(want)[mismatch][:10]}"
    )
