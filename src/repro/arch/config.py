"""PIM architecture configuration (Table III of the paper).

The paper evaluates an 8 GB memory of 64k crossbars, each a 1024x1024
memristor array with 32 transistor-delimited partitions, a 32-bit word size
and a 300 MHz clock. All of these are configurable here; tests use smaller
memories because cycle counts per macro-instruction are independent of the
crossbar count (operations are broadcast to all crossbars). The 64-bit
operation word (:mod:`repro.arch.micro_ops`) bounds the geometry: at most
4096 rows, 2**18 crossbars, 128 registers and 64 partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.arch.micro_ops import _IDX_FIELD, _PART_FIELD, _ROW_FIELD, _XB_FIELD


@dataclass(frozen=True)
class PIMConfig:
    """Static parameters of a digital memristive PIM memory.

    Attributes:
        crossbars: number of crossbar arrays (warps) in the memory. Must be a
            power of 4 so the H-tree is complete (the paper uses 64k).
        rows: number of rows (threads) per crossbar, ``h``.
        columns: number of bitlines per crossbar, ``w``.
        partitions: number of dynamically-connected partitions, ``N_p``.
        word_size: word size ``N`` in bits; the ISA and the microarchitecture
            share it. The paper sets ``word_size == partitions == 32``.
        frequency_hz: PIM clock frequency, used only to convert cycles
            into operations per second via Eq. (1).
        scratch_registers: register indices reserved at the top of each row
            for driver temporaries (not allocatable by the tensor library).
    """

    crossbars: int = 16
    rows: int = 1024
    columns: int = 1024
    partitions: int = 32
    word_size: int = 32
    frequency_hz: float = 300e6
    scratch_registers: int = 16

    def __post_init__(self) -> None:
        if self.columns % self.partitions:
            raise ValueError("columns must be divisible by partitions")
        if self.columns % self.word_size:
            raise ValueError("columns must be divisible by word_size")
        if self.word_size > 64:
            raise ValueError("word_size larger than 64 bits is not supported")
        if self.partitions != self.word_size:
            # The paper generalizes to differing values; this reproduction,
            # like the paper's evaluation, keeps them equal so that one
            # strided word spans exactly one bit per partition.
            raise ValueError("partitions must equal word_size in this model")
        if self.crossbars < 1 or (self.crossbars & (self.crossbars - 1)):
            raise ValueError("crossbars must be a positive power of two")
        if self.registers <= self.scratch_registers:
            raise ValueError(
                "not enough registers: need more than scratch_registers "
                f"({self.registers} <= {self.scratch_registers})"
            )
        # A chip the 64-bit operation word cannot address is not a chip of
        # this microarchitecture: every count is bounded by its field.
        for name, width in (
            ("crossbars", _XB_FIELD), ("rows", _ROW_FIELD),
            ("registers", _IDX_FIELD), ("partitions", _PART_FIELD),
        ):
            if getattr(self, name) > 1 << width:
                raise ValueError(
                    f"{name}={getattr(self, name)} exceeds the {1 << width} "
                    f"the operation word's {width}-bit field addresses"
                )

    @property
    def registers(self) -> int:
        """Registers per thread, ``R = w / N`` (intra-partition indices)."""
        return self.columns // self.word_size

    @property
    def user_registers(self) -> int:
        """Registers available to the tensor-library allocator."""
        return self.registers - self.scratch_registers

    @property
    def partition_width(self) -> int:
        """Columns per partition, ``w / N_p``."""
        return self.columns // self.partitions

    @property
    def total_rows(self) -> int:
        """Total rows of the memory — the element-parallelism of Eq. (1)."""
        return self.crossbars * self.rows

    @property
    def capacity_bits(self) -> int:
        """Total storage capacity of the simulated memory in bits."""
        return self.crossbars * self.rows * self.columns

    def scratch_register_indices(self) -> range:
        """The reserved (driver-owned) register indices."""
        return range(self.user_registers, self.registers)


def config_fingerprint(config: PIMConfig) -> Tuple[int, int, int, int, int, int]:
    """The identity a compiled program depends on.

    Two configs with equal fingerprints validate exactly the same micro-op
    streams (register/row/crossbar ranges, partition patterns, and word
    size all match) and lower every macro alike: ``scratch_registers``
    fixes the registers a body may clobber, so a body lowered under
    another range would overwrite live user registers. ``frequency_hz``
    only changes throughput numbers.
    """
    return (config.crossbars, config.rows, config.columns, config.partitions,
            config.word_size, config.scratch_registers)


def paper_config() -> PIMConfig:
    """The exact parameters of Table III (8 GB, 64k crossbars, 300 MHz).

    Simulating the full 8 GB image is possible but slow in pure Python; this
    is provided so throughput numbers can be derived at paper scale.
    """
    return PIMConfig(
        crossbars=65536,
        rows=1024,
        columns=1024,
        partitions=32,
        word_size=32,
        frequency_hz=300e6,
    )


def small_config(crossbars: int = 4, rows: int = 64) -> PIMConfig:
    """A small memory for unit tests (identical per-op semantics)."""
    return PIMConfig(crossbars=crossbars, rows=rows)
