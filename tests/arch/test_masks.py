"""Unit and property tests for the range-based masks of Section III-B."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch.masks import RangeMask


class TestRangeMaskBasics:
    def test_all(self):
        mask = RangeMask.all(10)
        assert len(mask) == 10
        assert list(mask.indices()) == list(range(10))

    def test_single(self):
        mask = RangeMask.single(7)
        assert len(mask) == 1
        assert 7 in mask
        assert 6 not in mask

    def test_strided(self):
        mask = RangeMask(2, 10, 4)
        assert list(mask.indices()) == [2, 6, 10]

    def test_one_index_has_one_spelling(self):
        """A slice like ``t[5:6:5000]`` selects one index; its step says
        nothing, and would fit no mask operation's step field."""
        mask = RangeMask.from_slice(slice(5, 6, 5000), 64)
        assert mask == RangeMask.single(5) and mask.step == 1
        assert hash(RangeMask(3, 3, 7)) == hash(RangeMask(3, 3, 1))
        assert RangeMask(0, 12, 4).compose(RangeMask(2, 2, 9)).step == 1

    def test_step_must_divide(self):
        with pytest.raises(ValueError):
            RangeMask(0, 10, 3)

    def test_stop_before_start(self):
        with pytest.raises(ValueError):
            RangeMask(5, 4, 1)

    def test_negative_start(self):
        with pytest.raises(ValueError):
            RangeMask(-1, 4, 1)

    def test_boolean_expansion(self):
        mask = RangeMask(1, 5, 2)
        expected = np.array([False, True, False, True, False, True, False])
        assert (mask.boolean(7) == expected).all()

    def test_boolean_out_of_bounds(self):
        with pytest.raises(ValueError):
            RangeMask(0, 10, 1).boolean(5)

    def test_contains_respects_phase(self):
        mask = RangeMask(1, 9, 2)
        assert 3 in mask
        assert 4 not in mask
        assert 11 not in mask


class TestFromSlice:
    def test_full_slice(self):
        assert RangeMask.from_slice(slice(None), 8) == RangeMask(0, 7, 1)

    def test_even_slice(self):
        assert RangeMask.from_slice(slice(None, None, 2), 8) == RangeMask(0, 6, 2)

    def test_offset_slice(self):
        assert RangeMask.from_slice(slice(1, None, 2), 8) == RangeMask(1, 7, 2)

    def test_bounded_slice(self):
        assert RangeMask.from_slice(slice(2, 6), 8) == RangeMask(2, 5, 1)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            RangeMask.from_slice(slice(None, None, -1), 8)

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            RangeMask.from_slice(slice(5, 5), 8)

    @given(
        start=st.integers(0, 20),
        stop=st.integers(1, 40),
        step=st.integers(1, 5),
        length=st.integers(1, 40),
    )
    def test_matches_python_slice_semantics(self, start, stop, step, length):
        sl = slice(start, stop, step)
        expected = list(range(length))[sl]
        if not expected:
            with pytest.raises(ValueError):
                RangeMask.from_slice(sl, length)
            return
        mask = RangeMask.from_slice(sl, length)
        assert list(mask.indices()) == expected


class TestCompose:
    def test_compose_even_of_even(self):
        outer = RangeMask.from_slice(slice(None, None, 2), 16)
        inner = RangeMask.from_slice(slice(None, None, 2), len(outer))
        composed = outer.compose(inner)
        assert list(composed.indices()) == [0, 4, 8, 12]

    def test_compose_offset(self):
        outer = RangeMask.from_slice(slice(1, None, 2), 16)  # 1,3,..,15
        inner = RangeMask.from_slice(slice(2, 6), len(outer))  # picks 2..5
        composed = outer.compose(inner)
        assert list(composed.indices()) == [5, 7, 9, 11]

    @given(
        data=st.data(),
        length=st.integers(4, 60),
    )
    def test_compose_equals_nested_slicing(self, data, length):
        outer_step = data.draw(st.integers(1, 4))
        outer_start = data.draw(st.integers(0, 3))
        base = list(range(length))
        outer_sel = base[outer_start::outer_step]
        if not outer_sel:
            return
        outer = RangeMask.from_slice(slice(outer_start, None, outer_step), length)
        inner_step = data.draw(st.integers(1, 3))
        inner_start = data.draw(st.integers(0, max(0, len(outer_sel) - 1)))
        inner_sel = outer_sel[inner_start::inner_step]
        if not inner_sel:
            return
        inner = RangeMask.from_slice(
            slice(inner_start, None, inner_step), len(outer)
        )
        assert list(outer.compose(inner).indices()) == inner_sel

    def test_compose_bounds_check(self):
        outer = RangeMask(0, 6, 2)
        with pytest.raises(ValueError):
            outer.compose(RangeMask(0, 4, 1))  # inner longer than outer
