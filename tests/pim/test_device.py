"""Tests for PIMDevice: element addressing, DMA paths, mask segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.isa.dtypes import float32, int32
from repro.pim.device import PIMDevice
from repro.pim.malloc import Slot


@pytest.fixture
def dev():
    return PIMDevice(PIMConfig(crossbars=4, rows=8))


class TestAddressing:
    def test_locate_row_major(self, dev):
        slot = Slot(reg=0, warp_start=1, warp_count=2)
        assert dev.locate(slot, 0) == (1, 0)
        assert dev.locate(slot, 7) == (1, 7)
        assert dev.locate(slot, 8) == (2, 0)


class TestDMA:
    def test_load_dump_roundtrip(self, dev):
        slot = dev.allocator.allocate(20)
        data = np.arange(20, dtype=np.int32)
        dev.load_array(slot, data, int32)
        np.testing.assert_array_equal(dev.dump_array(slot, 20, int32), data)

    def test_load_respects_warp_offset(self, dev):
        first = dev.allocator.allocate(8)
        slot = Slot(reg=1, warp_start=2, warp_count=1)
        dev.allocator._claim(1, 2, 1)
        data = np.full(8, 7.5, dtype=np.float32)
        dev.load_array(slot, data, float32)
        assert dev.simulator.memory.get_word(2, 0, 1) == np.float32(7.5).view(np.uint32)

    def test_dma_does_not_touch_stats(self, dev):
        slot = dev.allocator.allocate(8)
        before = dev.simulator.stats.cycles
        dev.load_array(slot, np.zeros(8, np.int32), int32)
        dev.dump_array(slot, 8, int32)
        assert dev.simulator.stats.cycles == before


BACKENDS = [
    ("simulator", {}),
    ("numpy", {}),
    ("pooled", {"workers": 2}),
]


def _device(backend, kwargs, **config):
    return PIMDevice(PIMConfig(**config), backend=backend, **kwargs)


#: (warp_start, warp_count, length) at rows = 8: one element past warp 0,
#: exactly one warp, a partial last warp, several full warps, several
#: warps with a partial last one.
SHAPES = [(1, 1, 1), (0, 1, 8), (2, 2, 13), (0, 4, 32), (1, 3, 17)]


class TestBlockTransfer:
    """Each transfer is one block copy; a per-element reference is the
    spec: element ``e`` is ``words[warp, reg, row]`` at
    ``(warp, row) = device.locate(slot, e)``."""

    @staticmethod
    def _config(word_size):
        if word_size == 64:
            return dict(crossbars=4, rows=8, columns=2048, partitions=64,
                        word_size=64)
        return dict(crossbars=4, rows=8)

    def _check(self, word_size, reg, warp_start, warp_count, length, seed):
        dev = _device("simulator", {}, **self._config(word_size))
        words = dev.backend.words
        rng = np.random.default_rng(seed)
        words[...] = rng.integers(0, 2**word_size, words.shape,
                                  dtype=np.uint64)
        slot = Slot(reg=reg, warp_start=warp_start, warp_count=warp_count)
        raw = rng.integers(0, 2**word_size, length, dtype=np.uint64)
        raw = raw.astype(words.dtype)
        expected = words.copy()
        for element in range(length):
            warp, row = dev.locate(slot, element)
            expected[warp, reg, row] = raw[element]
        dev.write_raw(slot, raw)
        np.testing.assert_array_equal(words, expected)
        for take in (length, 1, max(1, length // 2)):
            got = dev.read_raw(slot, take)
            assert got.dtype == words.dtype and got.shape == (take,)
            reference = [words[warp, reg, row] for warp, row in
                         map(dev.locate, [slot] * take, range(take))]
            np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("word_size", [32, 64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_named_shapes(self, word_size, shape):
        self._check(word_size, 3, *shape, seed=sum(shape))

    @settings(max_examples=40, deadline=None)
    @given(
        word_size=st.sampled_from([32, 64]),
        reg=st.integers(0, 15),
        span=st.tuples(st.integers(0, 3), st.integers(1, 4)).filter(
            lambda s: s[0] + s[1] <= 4
        ),
        fill=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_element_reference(self, word_size, reg, span,
                                           fill, seed):
        warp_start, warp_count = span
        length = max(1, round(fill * warp_count * 8))
        self._check(word_size, reg, warp_start, warp_count, length, seed)

    @pytest.mark.parametrize("warp_count", [1, 3])
    def test_read_raw_is_a_snapshot(self, warp_count):
        dev = _device("simulator", {}, crossbars=4, rows=8)
        slot = Slot(reg=2, warp_start=1, warp_count=warp_count)
        length = warp_count * 8
        dev.write_raw(slot, np.arange(1, length + 1, dtype=np.uint32))
        got = dev.read_raw(slot, length)
        dev.backend.words[...] = 0
        np.testing.assert_array_equal(got, np.arange(1, length + 1))
        got[:] = 7
        assert not dev.backend.words.any()

    @pytest.mark.parametrize("backend,kwargs", BACKENDS)
    def test_round_trip_is_bit_exact(self, backend, kwargs):
        """DMA moves words: -0.0, NaN payloads and subnormals survive
        (no flush-to-zero), as do the int32 extremes."""
        dev = _device(backend, kwargs, crossbars=4, rows=8)
        bits = np.array([
            0x80000000, 0x00000000, 0x7FC00001, 0xFFBFFFFF, 0x7F800001,
            0x00000001, 0x807FFFFF, 0x7F800000, 0xFF800000, 0x3F800000,
            0x7FFFFFFF, 0x80000001,
        ], dtype=np.uint32)
        slot = dev.allocator.allocate(bits.size)
        for dtype in (float32, int32):
            values = bits.view(dtype.np_dtype)
            dev.load_array(slot, values, dtype)
            got = dev.dump_array(slot, bits.size, dtype)
            assert got.dtype == values.dtype
            np.testing.assert_array_equal(got.view(np.uint32), bits)


class TestSlotBound:
    """A payload longer than its slot is refused before any word moves:
    it would otherwise land on whatever tensor holds the next warps."""

    @pytest.mark.parametrize("backend,kwargs", BACKENDS)
    def test_overlong_transfers_are_refused(self, backend, kwargs):
        dev = _device(backend, kwargs, crossbars=4, rows=16)
        slot = dev.allocator._claim(0, 0, 1)
        neighbour = dev.allocator._claim(0, 1, 1)  # the next warp of reg 0
        dev.load_array(neighbour, np.arange(100, 116), int32)
        before = dev.backend.words.copy()
        overlong = np.arange(32, dtype=np.int32)
        with pytest.raises(ValueError, match=r"32 elements .* \(16 elements\)"):
            dev.load_array(slot, overlong, int32)
        with pytest.raises(ValueError, match=r"32 elements .* \(16 elements\)"):
            dev.write_raw(slot, overlong.view(np.uint32))
        np.testing.assert_array_equal(dev.backend.words, before)
        with pytest.raises(ValueError, match=r"17 elements .* \(16 elements\)"):
            dev.dump_array(slot, 17, int32)
        with pytest.raises(ValueError, match=r"17 elements .* \(16 elements\)"):
            dev.read_raw(slot, 17)
        np.testing.assert_array_equal(
            dev.dump_array(neighbour, 16, int32), np.arange(100, 116)
        )
        dev.load_array(slot, overlong[:16], int32)  # the slot itself fits
        np.testing.assert_array_equal(dev.dump_array(slot, 16, int32),
                                      overlong[:16])


class TestSegments:
    def _segments(self, dev, slot_warps, mask):
        slot = Slot(reg=0, warp_start=0, warp_count=slot_warps)
        return dev.segments(slot, mask)

    def _covered(self, segments, rows):
        elements = []
        for warp_mask, row_mask in segments:
            for warp in warp_mask.indices():
                for row in row_mask.indices():
                    elements.append(warp * rows + row)
        return sorted(elements)

    def test_full_single_warp(self, dev):
        segments = self._segments(dev, 1, RangeMask.all(8))
        assert len(segments) == 1
        assert self._covered(segments, 8) == list(range(8))

    def test_full_multi_warp_merges(self, dev):
        segments = self._segments(dev, 3, RangeMask.all(24))
        assert len(segments) == 1  # identical row masks merge into one group
        assert self._covered(segments, 8) == list(range(24))

    def test_partial_last_warp_splits(self, dev):
        segments = self._segments(dev, 3, RangeMask.all(20))
        assert len(segments) == 2
        assert self._covered(segments, 8) == list(range(20))

    def test_stride_dividing_rows(self, dev):
        mask = RangeMask(0, 22, 2)  # step 2 divides rows=8
        segments = self._segments(dev, 3, mask)
        assert self._covered(segments, 8) == list(range(0, 23, 2))
        assert len(segments) == 1

    def test_stride_not_dividing_rows(self, dev):
        mask = RangeMask(0, 21, 3)  # step 3 vs rows=8: phase shifts per warp
        segments = self._segments(dev, 3, mask)
        assert self._covered(segments, 8) == list(range(0, 22, 3))
        assert len(segments) >= 2  # cannot merge differing phases

    def test_offset_stride(self, dev):
        mask = RangeMask(5, 21, 4)
        segments = self._segments(dev, 3, mask)
        assert self._covered(segments, 8) == [5, 9, 13, 17, 21]

    @pytest.mark.parametrize("start,stop,step", [
        (0, 31, 1), (1, 31, 2), (3, 27, 4), (0, 30, 5), (7, 23, 8), (2, 2, 1),
    ])
    def test_coverage_property(self, dev, start, stop, step):
        stop = start + ((stop - start) // step) * step
        mask = RangeMask(start, stop, step)
        segments = self._segments(dev, 4, mask)
        assert self._covered(segments, 8) == list(mask.indices())

    def test_segments_use_absolute_warps(self, dev):
        slot = Slot(reg=0, warp_start=2, warp_count=2)
        segments = dev.segments(slot, RangeMask.all(16))
        (warp_mask, _), = segments
        assert warp_mask.start == 2
        assert warp_mask.stop == 3
