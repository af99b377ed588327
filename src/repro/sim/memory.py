"""Condensed strided memory image of the simulated PIM chip.

The logical state of crossbar ``x`` is an ``h x w`` bit matrix. Following
the paper's simulator optimization, rows are stored in a condensed word
format defined by the strided data layout (Figure 6): entry ``[x, t, r]``
is an N-bit word whose bit ``i`` is the memristor at row ``t``, partition
``i``, intra-partition column ``r``. Logic operations on partitions become
bitwise word operations, the same trick the paper uses on the GPU.
"""

from __future__ import annotations

from sys import byteorder

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import _PART_FIELD, _distinct

#: Bytes of unpacked bits a plane pack or unpack holds at once: a wide
#: region's registers go a few at a time.
_BIT_BUDGET = 1 << 22


class CrossbarMemory:
    """The packed bit-state of every crossbar in the memory.

    Exposes raw word get/set used by the simulator, plus whole-array
    import/export helpers used by tests to compare against an unpacked
    bit-level reference model.
    """

    def __init__(self, config: PIMConfig):
        self.config = config
        dtype = np.uint32 if config.word_size <= 32 else np.uint64
        self._dtype = dtype
        # Axis order (crossbars, registers, rows): the rows of one register
        # are contiguous, so element-parallel logic operations act on
        # contiguous vectors (the simulator's memory-locality optimization,
        # mirroring the paper's GPU batching).
        self.words = np.zeros(
            (config.crossbars, config.registers, config.rows), dtype=dtype
        )
        mask = (1 << config.word_size) - 1
        self.word_mask = dtype(mask)

    @property
    def dtype(self) -> np.dtype:
        """The NumPy dtype used for packed words."""
        return np.dtype(self._dtype)

    def get_word(self, crossbar: int, row: int, index: int) -> int:
        """Read the N-bit strided word at (crossbar, row, intra-row index)."""
        return int(self.words[crossbar, index, row])

    def set_word(self, crossbar: int, row: int, index: int, value: int) -> None:
        """Write the N-bit strided word at (crossbar, row, intra-row index)."""
        if not 0 <= value < (1 << self.config.word_size):
            raise ValueError("value does not fit the word size")
        self.words[crossbar, index, row] = value

    def get_bit(self, crossbar: int, row: int, partition: int, index: int) -> int:
        """Read one memristor's logical state (by partition/intra-partition)."""
        return (self.get_word(crossbar, row, index) >> partition) & 1

    def set_bit(
        self, crossbar: int, row: int, partition: int, index: int, value: int
    ) -> None:
        """Write one memristor's logical state."""
        word = self.get_word(crossbar, row, index)
        if value:
            word |= 1 << partition
        else:
            word &= ~(1 << partition)
        self.set_word(crossbar, row, index, word)

    def unpack_bits(self, crossbar: int) -> np.ndarray:
        """Expand one crossbar to its full ``h x w`` boolean bit matrix.

        Column ``c = i * (w / N_p) + r`` corresponds to partition ``i``,
        intra-partition index ``r`` (the strided layout of Figure 6).
        """
        cfg = self.config
        bits = np.zeros((cfg.rows, cfg.columns), dtype=bool)
        for partition in range(cfg.partitions):
            cols = slice(
                partition * cfg.partition_width,
                (partition + 1) * cfg.partition_width,
            )
            bits[:, cols] = (
                (self.words[crossbar].T >> np.uint32(partition)) & 1
            ).astype(bool)
        return bits

    def region(self, xb: RangeMask, reg: int, row: RangeMask) -> np.ndarray:
        """Strided ``(crossbars, rows)`` view of one register's words (a
        ``(crossbars, registers, rows)`` copy for an array of registers).

        The bulk word-view a horizontal logic operation updates in
        place (op-by-op execution directly, vectorized runs on unpack).
        """
        return self.words[self._index(xb, reg, row)]

    @staticmethod
    def _index(xb: RangeMask, reg, row: RangeMask) -> tuple:
        """The :attr:`words` index of :meth:`region`, to read or assign."""
        return (slice(xb.start, xb.stop + 1, xb.step), reg,
                slice(row.start, row.stop + 1, row.step))

    def pack_lanes(self, xb: RangeMask, reg: int, row: RangeMask) -> int:
        """Pack a register's masked region into one dense-lane integer.

        Each word of the region occupies one *lane* of the result exactly
        as wide as the memory dtype (32 bits, or 64 for ``word_size >
        32``), in row-major ``(crossbars, rows)`` order — the region's
        own bytes, no widening copy. A whole region-wide logic operation
        is then a handful of arbitrary-precision bitwise operations — the
        vectorized replay plans' representation. Lanes need no guard
        space: the bits a partition shift spills into the neighbouring
        lane can never be selected by the gate's own out-mask (see
        :func:`repro.sim.replay._pattern_mask`).
        """
        return int.from_bytes(self.region(xb, reg, row).tobytes(), byteorder)

    def unpack_lanes(
        self, xb: RangeMask, reg: int, row: RangeMask, value: int
    ) -> None:
        """Write a :meth:`pack_lanes` integer back into the region.

        ``value`` must fit the region's ``lanes * itemsize`` bytes
        (``to_bytes`` raises otherwise).
        """
        shape = (len(xb), len(row))
        data = value.to_bytes(shape[0] * shape[1] * self.dtype.itemsize, byteorder)
        self.region(xb, reg, row)[...] = np.frombuffer(
            data, dtype=self._dtype
        ).reshape(shape)

    def _bits(self, xb: RangeMask, regs, row: RangeMask) -> np.ndarray:
        """``(registers, lanes, dtype bits)`` ``uint8`` bits of the
        registers' masked regions, lanes in row-major ``(crossbars,
        rows)`` order."""
        words = self.region(xb, regs, row).transpose(1, 0, 2)
        little = np.ascontiguousarray(words, self.dtype.newbyteorder("<"))
        return np.unpackbits(
            little.view(np.uint8).reshape(len(regs), -1, self.dtype.itemsize),
            axis=-1, bitorder="little",
        )

    def _plane_chunks(self, xb: RangeMask, row: RangeMask, planes):
        """``(registers, slice of planes, rows into them, partitions)`` per
        group of registers whose bits fit :data:`_BIT_BUDGET`; ``planes``
        (``reg << 6 | partition`` numbers) sorted."""
        planes = np.asarray(planes, dtype=np.int64)
        registers, rank = _distinct(planes >> _PART_FIELD)
        bits = len(xb) * len(row) * 8 * self.dtype.itemsize
        group = max(1, _BIT_BUDGET // bits)
        for low in range(0, len(registers), group):
            span = slice(*np.searchsorted(rank, (low, low + group)).tolist())
            yield (registers[low : low + group], span, rank[span] - low,
                   planes[span] & ((1 << _PART_FIELD) - 1))

    def pack_planes(self, xb: RangeMask, row: RangeMask, planes) -> list:
        """One integer per *plane* of the masked region: bit ``k`` of plane
        ``reg << 6 | p`` is partition ``p`` of register ``reg`` in lane
        ``k`` (row-major ``(crossbars, rows)``) — the bit-plane replay's
        representation, where a partition-parallel gate is one bitwise
        operation per output partition. Only the sorted ``planes`` are
        packed."""
        size = (len(xb) * len(row) + 7) // 8
        values: list = []
        for registers, _, at, parts in self._plane_chunks(xb, row, planes):
            data = np.packbits(
                self._bits(xb, registers, row)[at, :, parts], axis=-1,
                bitorder="little",
            ).tobytes()
            values += [int.from_bytes(data[i : i + size], "little")
                       for i in range(0, len(data), size)]
        return values

    def unpack_planes(self, xb: RangeMask, row: RangeMask, planes, values) -> None:
        """Write :meth:`pack_planes` integers back: the sorted ``planes``
        are cleared and rewritten, every other bit of the region is left
        as it is. A value must fit the region's lanes."""
        lanes = len(xb) * len(row)
        size = (lanes + 7) // 8
        data = np.frombuffer(
            b"".join(value.to_bytes(size, "little") for value in values), np.uint8
        ).reshape(len(values), size)
        shape = (len(xb), len(row))
        for registers, span, at, parts in self._plane_chunks(xb, row, planes):
            bits = self._bits(xb, registers, row)
            bits[at, :, parts] = np.unpackbits(
                data[span], axis=-1, count=lanes, bitorder="little"
            )
            words = np.packbits(bits, axis=-1, bitorder="little").view(
                self.dtype.newbyteorder("<")
            ).reshape(len(registers), *shape)
            self.words[self._index(xb, registers, row)] = words.transpose(1, 0, 2)

    def fill(self, value: int) -> None:
        """Set every word of the memory to ``value`` (testing helper)."""
        if not 0 <= value < (1 << self.config.word_size):
            raise ValueError("value does not fit the word size")
        self.words[...] = value
