"""Tests for the 64-bit micro-operation encoding (Figure 5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicHOp,
    LogicVOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    WriteOp,
    decode,
    encode,
)


def roundtrip(op):
    word = encode(op)
    assert 0 <= word < (1 << 64)
    return decode(word)


class TestEncodingRoundtrip:
    def test_crossbar_mask(self):
        op = CrossbarMaskOp(3, 63, 4)
        assert roundtrip(op) == op

    def test_row_mask(self):
        op = RowMaskOp(1, 1021, 4)
        assert roundtrip(op) == op

    def test_read(self):
        assert roundtrip(ReadOp(17)) == ReadOp(17)

    def test_write(self):
        op = WriteOp(5, 0xDEADBEEF)
        assert roundtrip(op) == op

    def test_logic_h_single_gate(self):
        op = LogicHOp(GateType.NOR, 1, 2, 3, p_a=4, p_b=9, p_out=6, p_end=6)
        assert roundtrip(op) == op

    def test_logic_h_parallel(self):
        op = LogicHOp(GateType.NOT, 0, 0, 7, p_a=0, p_b=0, p_out=0, p_end=31, p_step=1)
        assert roundtrip(op) == op

    def test_logic_v(self):
        op = LogicVOp(GateType.NOT, 12, 900, 3)
        assert roundtrip(op) == op

    def test_move_positive(self):
        op = MoveOp(16, 5, 9, 2, 3)
        assert roundtrip(op) == op

    def test_move_negative_distance(self):
        op = MoveOp(-4, 0, 0, 1, 1)
        assert roundtrip(op) == op

    def test_write_value_exceeding_word_size(self):
        with pytest.raises(ValueError):
            encode(WriteOp(0, 1 << 33), word_size=32)

    def test_kind_tags_are_distinct(self):
        ops = [
            CrossbarMaskOp(0, 0, 1),
            RowMaskOp(0, 0, 1),
            ReadOp(0),
            WriteOp(0, 0),
            LogicHOp(GateType.NOR, 0, 1, 2, p_a=0, p_b=1, p_out=2, p_end=2),
            LogicVOp(GateType.NOT, 0, 1, 0),
            MoveOp(1, 0, 0, 0, 0),
        ]
        tags = {encode(op) >> 61 for op in ops}
        assert len(tags) == len(ops)


class TestValidation:
    def test_logic_h_requires_ordered_inputs(self):
        with pytest.raises(ValueError):
            LogicHOp(GateType.NOR, 0, 1, 2, p_a=5, p_b=2, p_out=3, p_end=3)

    def test_logic_h_step_divides(self):
        with pytest.raises(ValueError):
            LogicHOp(GateType.NOR, 0, 1, 2, p_a=0, p_b=1, p_out=2, p_end=7, p_step=3)

    def test_logic_h_gate_count(self):
        op = LogicHOp(GateType.NOT, 0, 0, 1, p_a=0, p_b=0, p_out=1, p_end=31, p_step=2)
        assert op.gate_count == 16

    def test_vertical_nor_rejected(self):
        with pytest.raises(ValueError):
            LogicVOp(GateType.NOR, 0, 1, 0)


@given(
    start=st.integers(0, 1000),
    stop_extra=st.integers(0, 1000),
    step=st.integers(1, 100),
)
def test_mask_roundtrip_property(start, stop_extra, step):
    op = CrossbarMaskOp(start, start + step * (stop_extra % 7), step)
    assert roundtrip(op) == op


@given(
    gate=st.sampled_from([GateType.NOR, GateType.NOT, GateType.INIT0, GateType.INIT1]),
    in_a=st.integers(0, 31),
    in_b=st.integers(0, 31),
    out=st.integers(0, 31),
    p_a=st.integers(0, 15),
    p_b_extra=st.integers(0, 15),
    p_out=st.integers(0, 31),
    gates=st.integers(1, 4),
    p_step=st.integers(1, 8),
)
def test_logic_h_roundtrip_property(
    gate, in_a, in_b, out, p_a, p_b_extra, p_out, gates, p_step
):
    op = LogicHOp(
        gate, in_a, in_b, out,
        p_a=p_a,
        p_b=p_a + p_b_extra,
        p_out=p_out,
        p_end=p_out + (gates - 1) * p_step,
        p_step=p_step,
    )
    assert roundtrip(op) == op


@pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64])
def test_distinct_ranks_values_like_np_unique(dtype):
    """``_distinct`` is ``np.unique(values, return_inverse=True)``: sorted
    distinct values and each value's rank, duplicates included."""
    from repro.arch.micro_ops import _distinct

    rng = np.random.default_rng(26)
    info = np.iinfo(dtype)
    for size, kinds in ((0, 1), (1, 1), (500, 7), (4000, 300), (4000, 3000)):
        pool = rng.integers(info.min, info.max, size=kinds, dtype=dtype,
                            endpoint=True)
        values = rng.choice(pool, size=size)  # size 0: the empty array
        distinct, ranks = _distinct(values)
        expected, inverse = np.unique(values, return_inverse=True)
        assert distinct.dtype == values.dtype
        assert np.array_equal(distinct, expected)
        assert np.array_equal(ranks, inverse.reshape(-1))


class TestEncodeRows:
    """A gate given as its row — the nine fields in layout order — packs to
    the word of the op object, and is refused like the op object."""

    GOOD = [
        (GateType.NOR, 1, 2, 3, 4, 9, 6, 6, 1),
        (GateType.NOT, 0, 0, 7, 0, 0, 0, 31, 1),
        (GateType.INIT1, 0, 0, 127, 0, 0, 1, 61, 4),
        (GateType.INIT0, 0, 0, 5, 63, 63, 63, 63, 63),
    ]

    def test_rows_pack_to_the_ops_words(self):
        from repro.arch.micro_ops import encode_many, encode_rows

        words = encode_rows(self.GOOD)
        assert words.dtype == np.uint64
        assert words.tolist() == [encode(LogicHOp(*row)) for row in self.GOOD]
        mixed = [ReadOp(1), self.GOOD[0], RowMaskOp(0, 3, 1), self.GOOD[2]]
        assert encode_many(mixed).tolist() == [
            encode(LogicHOp(*op) if type(op) is tuple else op) for op in mixed
        ]
        assert encode_rows([]).tolist() == []

    @pytest.mark.parametrize("field, value, message", [
        ("p_a", 10, "p_a <= p_b"),               # p_a > p_b
        ("p_step", 0, "p_step must be positive"),
        ("p_step", -1, "p_step must be positive"),
        ("p_end", 3, "p_end must be >= p_out"),  # p_end < p_out
        ("p_step", 4, "p_step must divide"),
    ])
    def test_a_row_breaking_a_constructor_invariant(self, field, value, message):
        from repro.arch.micro_ops import _LAYOUT, _Kind, encode_rows

        names = [name for name, _ in _LAYOUT[_Kind.LOGIC_H][1]]
        row = dict(zip(names, (GateType.NOR, 1, 2, 3, 4, 9, 6, 12, 3)))
        row[field] = value
        with pytest.raises(ValueError, match=message):
            LogicHOp(**row)
        with pytest.raises(ValueError, match=message):
            encode_rows([self.GOOD[0], tuple(row.values())])

    @pytest.mark.parametrize("field", ["gate", "in_a", "in_b", "out", "p_b",
                                       "p_out", "p_end", "p_step"])
    def test_a_field_one_past_its_width(self, field):
        from repro.arch.micro_ops import _LAYOUT, _Kind, encode_rows

        layout = _LAYOUT[_Kind.LOGIC_H][1]
        row = dict(zip((name for name, _ in layout), (3, 0, 0, 0, 0, 0, 0, 0, 1)))
        row[field] = 1 << dict(layout)[field]
        if field in ("p_out", "p_end"):  # keep the constructor satisfied
            row["p_end"] = 64
        with pytest.raises(ValueError, match="does not fit") as scalar:
            encode(LogicHOp(**row))
        with pytest.raises(ValueError, match="does not fit") as packed:
            encode_rows([tuple(row.values())])
        assert f"in {dict(layout)[field]} bits" in str(scalar.value)
        if field != "p_out":  # (then p_end overflows too, and is met first)
            assert f"LogicHOp.{field} does not fit" in str(packed.value)
        for value in (-1, 1 << 70):
            row[field] = value
            with pytest.raises(ValueError):
                encode_rows([tuple(row.values())])
