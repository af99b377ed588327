"""Micro-operations and their 64-bit binary encoding (Figure 5).

The microarchitecture interface consists of 64-bit operations sent from the
host driver to the on-chip controller, which only buffers and broadcasts
them to the crossbars. Seven operation kinds exist:

- crossbar mask / row mask (Section III-B),
- read / write with N-bit strided granularity (Section III-C),
- horizontal logic with the restricted partition pattern (Section III-D),
- vertical logic (Section III-E),
- inter-array move over the H-tree (Section III-F).

The exact bit positions inside the 64-bit word are not published in the
paper; this module fixes one concrete layout with generous field widths
(documented per operation) while preserving the paper's counted format size:
the horizontal-logic payload occupies ``2 + 3*log2(w) + 2*log2(N) = 42``
bits for the default 1024x1024/32-partition geometry, leaving spare bits as
the paper notes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class GateType(enum.IntEnum):
    """Stateful-logic gate types supported by the periphery.

    ``INIT0``/``INIT1`` are constant gates without inputs (akin to writes);
    ``NOT`` has one input; ``NOR`` has two. Horizontal operations support all
    four; vertical operations support only ``{INIT0, INIT1, NOT}``
    (Section III-E).
    """

    INIT0 = 0
    INIT1 = 1
    NOT = 2
    NOR = 3


class _Kind(enum.IntEnum):
    """3-bit operation-type tag placed in the top bits of the encoding."""

    XB_MASK = 0
    ROW_MASK = 1
    READ = 2
    WRITE = 3
    LOGIC_H = 4
    LOGIC_V = 5
    MOVE = 6


@dataclass(frozen=True)
class CrossbarMaskOp:
    """Set the crossbar activation bits to the range ``{start..stop..step}``.

    Every crossbar stores a single volatile activation bit which gates all
    following non-mask operations.
    """

    start: int
    stop: int
    step: int = 1


@dataclass(frozen=True)
class RowMaskOp:
    """Set the per-crossbar row mask registers to ``{start..stop..step}``.

    The row mask is expanded into a binary enable vector of length ``h``
    during read/write and horizontal-logic operations.
    """

    start: int
    stop: int
    step: int = 1


@dataclass(frozen=True)
class ReadOp:
    """Read one N-bit strided word at intra-row ``index``.

    The target crossbar and row must have been selected (down to a single
    row of a single crossbar) by preceding mask operations. The response is
    the N-bit word whose bit *i* comes from partition *i* at intra-partition
    column ``index`` (Figure 6).
    """

    index: int


@dataclass(frozen=True)
class WriteOp:
    """Write the N-bit ``value`` at intra-row ``index``.

    Unlike reads, the mask may select multiple rows and crossbars, writing
    the same word to all of them in parallel (used for constants).
    """

    index: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 64):
            raise ValueError("write value must fit in 64 bits")


@dataclass(frozen=True)
class LogicHOp:
    """A horizontal stateful-logic operation with a partition pattern.

    ``in_a``, ``in_b`` and ``out`` are *intra-partition* column indices,
    identical across partitions (restriction 1 of Section III-D3). The
    partition pattern encodes the gates: gate ``k`` (for ``k = 0, 1, ...``)
    has inputs in partitions ``p_a + k*p_step`` / ``p_b + k*p_step`` and
    output in partition ``p_out + k*p_step``, up to and including the gate
    whose output partition equals ``p_end`` (restriction 2). Transistor
    selects are deduced from the per-partition opcodes (restriction 3), see
    :mod:`repro.arch.halfgates`.

    Stateful-logic semantics: the output memristor can only be pulled from
    logical 1 to logical 0, so the executed update is
    ``out &= gate(inputs)``; the driver is responsible for issuing the
    preceding ``INIT1`` and those cycles are counted.
    """

    gate: GateType
    in_a: int
    in_b: int
    out: int
    p_a: int
    p_b: int
    p_out: int
    p_end: int
    p_step: int = 1

    def __post_init__(self) -> None:
        if self.p_a > self.p_b:
            raise ValueError("encoding requires p_a <= p_b; swap NOR inputs")
        if self.p_step <= 0:
            raise ValueError("p_step must be positive")
        if (self.p_end - self.p_out) % self.p_step:
            raise ValueError("p_step must divide p_end - p_out")
        if self.p_end < self.p_out:
            raise ValueError("p_end must be >= p_out")

    @property
    def gate_count(self) -> int:
        """Number of concurrent gates encoded by the pattern."""
        return (self.p_end - self.p_out) // self.p_step + 1


@dataclass(frozen=True)
class LogicVOp:
    """A vertical stateful-logic operation (Section III-E).

    Transfers data between two rows of the same crossbar: the gate is applied
    in every partition's column at intra-partition index ``index`` in
    parallel (N columns at once), from ``in_row`` to ``out_row``. Only
    ``{INIT0, INIT1, NOT}`` are supported vertically. For ``INIT`` gates,
    ``in_row`` is ignored.
    """

    gate: GateType
    in_row: int
    out_row: int
    index: int

    def __post_init__(self) -> None:
        if self.gate == GateType.NOR:
            raise ValueError("vertical operations do not support NOR")


@dataclass(frozen=True)
class MoveOp:
    """A distributed inter-crossbar move over the H-tree (Section III-F).

    The crossbar mask (set beforehand) identifies the *source* crossbars
    ``{XB_start..XB_end..XB_step}``; each source crossbar ``XB`` transfers
    the N-bit word at (``src_row``, ``src_index``) to crossbar
    ``XB + dist`` at (``dst_row``, ``dst_index``). ``dist`` may be negative
    (the paper stores ``XB_dest >= 0`` instead; the signed field here is
    equivalent and validated identically).
    """

    dist: int
    src_row: int
    dst_row: int
    src_index: int
    dst_index: int


MicroOp = Union[
    CrossbarMaskOp, RowMaskOp, ReadOp, WriteOp, LogicHOp, LogicVOp, MoveOp
]

# Field widths (bits) for the concrete binary layout. The tag occupies the
# top 3 bits of the 64-bit word; payload fields are packed LSB-first in the
# order listed per operation below. They are the geometry limits too:
# ``PIMConfig`` refuses a chip these fields cannot address.
_XB_FIELD = 18  # up to 256k crossbars
_ROW_FIELD = 12  # up to 4096 rows
_IDX_FIELD = 7  # up to 128 registers (intra-partition indices)
_PART_FIELD = 6  # up to 64 partitions
_GATE_FIELD = 2


def write_value_bits(word_size: int) -> int:
    """Width of the WRITE value field: the word size, capped by what the 61
    payload bits leave beside the index (a ``word_size=64`` chip writes
    values below ``2**54``; validation and the simulator refuse wider)."""
    return min(word_size, 61 - _IDX_FIELD)


def _write_layout(word_size: int) -> "tuple[tuple[str, int], ...]":
    return (("index", _IDX_FIELD), ("value", write_value_bits(word_size)))


#: Payload layout per kind: the op class plus (field name, width) pairs,
#: LSB-first (the WRITE value field follows the runtime ``word_size``:
#: :func:`_write_layout`).
_LAYOUT = {
    _Kind.XB_MASK: (
        CrossbarMaskOp,
        (("start", _XB_FIELD), ("stop", _XB_FIELD), ("step", _XB_FIELD)),
    ),
    _Kind.ROW_MASK: (
        RowMaskOp,
        (("start", _ROW_FIELD), ("stop", _ROW_FIELD), ("step", _ROW_FIELD)),
    ),
    _Kind.READ: (ReadOp, (("index", _IDX_FIELD),)),
    _Kind.WRITE: (WriteOp, None),
    _Kind.LOGIC_H: (
        LogicHOp,
        (("gate", _GATE_FIELD), ("in_a", _IDX_FIELD), ("in_b", _IDX_FIELD),
         ("out", _IDX_FIELD), ("p_a", _PART_FIELD), ("p_b", _PART_FIELD),
         ("p_out", _PART_FIELD), ("p_end", _PART_FIELD),
         ("p_step", _PART_FIELD)),
    ),
    _Kind.LOGIC_V: (
        LogicVOp,
        (("gate", _GATE_FIELD), ("in_row", _ROW_FIELD),
         ("out_row", _ROW_FIELD), ("index", _IDX_FIELD)),
    ),
    _Kind.MOVE: (
        MoveOp,
        (("dist", _XB_FIELD), ("sign", 1), ("src_row", _ROW_FIELD),
         ("dst_row", _ROW_FIELD), ("src_index", _IDX_FIELD),
         ("dst_index", _IDX_FIELD)),
    ),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _LAYOUT.items()}


def encode(op: MicroOp, word_size: int = 32) -> int:
    """Encode a micro-operation into its 64-bit binary representation.

    ``word_size`` bounds the write-value field (N bits). Fields are packed
    LSB-first in :data:`_LAYOUT` order under the 3-bit kind tag.
    """
    kind = _KIND_OF.get(type(op))
    if kind is None:
        raise TypeError(f"not a micro-operation: {op!r}")
    if kind == _Kind.WRITE and op.value >= (1 << word_size):
        raise ValueError("write value exceeds word size")
    word, shift = int(kind) << 61, 0
    for name, width in _LAYOUT[kind][1] or _write_layout(word_size):
        if name == "sign":  # the distance is stored as sign-magnitude
            value = int(op.dist < 0)
        else:
            value = abs(op.dist) if name == "dist" else int(getattr(op, name))
        if not 0 <= value < (1 << width):
            raise ValueError(f"field value {value} does not fit in {width} bits")
        word |= value << shift
        shift += width
    return word


#: Ops per :func:`encode_many` block: bounds its int64 field matrices to ~1 MB.
_ENCODE_BLOCK = 16384


def _matrix(fields, count: int, width: int):
    """``count`` ops' integer fields, op after op, as an int64 matrix."""
    import numpy as np

    try:
        return np.fromiter(fields, np.int64, count * width).reshape(count, width)
    except OverflowError as error:
        raise ValueError(f"field value does not fit: {error}")


def _pack(kind: _Kind, matrix, word_size: int = 32):
    """One kind's field matrix (a column per non-sign layout field) as
    operation words, each column range-checked against its width."""
    import numpy as np

    cls, layout = _LAYOUT[kind]
    layout = layout or _write_layout(word_size)
    names = [name for name, _ in layout if name != "sign"]
    packed = np.full(len(matrix), int(kind) << 61, dtype=np.uint64)
    shift = 0
    for name, width in layout:
        if name == "sign":
            column = matrix[:, names.index("dist")] < 0
        else:
            column = matrix[:, names.index(name)]
            if name == "dist":
                column = np.abs(column)
            if (column < 0).any() or (column >> width).any():
                raise ValueError(
                    f"a {cls.__name__}.{name} does not fit in {width} bits"
                )
        packed |= column.astype(np.uint64) << np.uint64(shift)
        shift += width
    return packed


def encode_rows(rows):
    """The operation words of horizontal gates given as *rows*: 9-tuples
    of a :class:`LogicHOp`'s fields in :data:`_LAYOUT` order, the only form
    a gate has on the driver's compile path. No op object is built: the
    constructor's invariants (:func:`_check_logic_h`) and
    :func:`encode_many`'s range checks run as column operations and raise
    the same ``ValueError``s — ``encode_rows(rows)`` is
    ``encode_many([LogicHOp(*row) for row in rows])``."""
    from itertools import chain

    layout = _LAYOUT[_Kind.LOGIC_H][1]
    matrix = _matrix(chain.from_iterable(rows), len(rows), len(layout))
    _check_logic_h(dict(zip((name for name, _ in layout), matrix.T)))
    return _pack(_Kind.LOGIC_H, matrix)


def encode_many(ops, word_size: int = 32):
    """Bulk :func:`encode`: the ``np.uint64`` operation words of many ops.

    Semantically identical to ``[encode(op) for op in ops]`` (same words,
    ``ValueError`` for a field that does not fit) but several times
    faster: per kind, the ops' fields are pulled into one integer matrix,
    and range checks and packing run as NumPy column operations. A
    horizontal gate may also be given as its row (:func:`encode_rows`).
    The persistent cache's store path and the DMA encoding of stream plans.
    """
    import numpy as np
    from itertools import chain
    from operator import attrgetter

    ops = tuple(ops)
    if len(ops) > _ENCODE_BLOCK:
        blocks = (ops[i : i + _ENCODE_BLOCK] for i in range(0, len(ops), _ENCODE_BLOCK))
        return np.concatenate([encode_many(block, word_size) for block in blocks])
    words = np.empty(len(ops), dtype=np.uint64)
    positions: "dict[type, list[int]]" = {}
    for position, cls in enumerate(map(type, ops)):
        positions.setdefault(cls, []).append(position)
    where = positions.pop(tuple, None)
    if where is not None:
        words[where] = encode_rows([ops[i] for i in where])
    for kind, (cls, layout) in _LAYOUT.items():
        where = positions.pop(cls, None)
        if where is None:
            continue
        layout = layout or _write_layout(word_size)
        names = [name for name, _ in layout if name != "sign"]
        group = ops if len(where) == len(ops) else [ops[i] for i in where]
        fields = map(attrgetter(*names), group)
        matrix = _matrix(
            chain.from_iterable(fields) if len(names) > 1 else fields,
            len(group), len(names),
        )
        words[where] = _pack(kind, matrix, word_size)
    if positions:
        stray = next(iter(positions.values()))[0]
        raise TypeError(f"not a micro-operation: {ops[stray]!r}")
    return words


def _check_logic_h(raw: dict) -> None:
    """:class:`LogicHOp`'s ``__post_init__`` invariants, over field columns."""
    if (raw["p_a"] > raw["p_b"]).any():
        raise ValueError("encoding requires p_a <= p_b")
    if (raw["p_step"] <= 0).any():
        raise ValueError("p_step must be positive")
    if (raw["p_end"] < raw["p_out"]).any():
        raise ValueError("p_end must be >= p_out")
    if ((raw["p_end"] - raw["p_out"]) % raw["p_step"]).any():
        raise ValueError("p_step must divide p_end - p_out")


def _field_columns(words, kind: _Kind, word_size: int = 32) -> dict:
    """The payload fields of ``words`` (``np.uint64``, all of one ``kind``)
    as ``{name: column}``, in layout order.

    The one reader of :data:`_LAYOUT`, with the ops' ``__post_init__``
    invariants batched (:func:`_check_logic_h`). Fields below 8 bits come
    back as ``int8`` (differences of partition indices stay exact, and a
    60k-op program's nine gate columns are half a megabyte).
    """
    import numpy as np

    payload = words & np.uint64((1 << 61) - 1)
    raw, shift = {}, 0
    for name, width in _LAYOUT[kind][1] or _write_layout(word_size):
        column = payload >> np.uint64(shift)
        column &= np.uint64((1 << width) - 1)
        raw[name] = column.astype(np.int8) if width < 8 else column
        shift += width
    if kind == _Kind.LOGIC_H:
        _check_logic_h(raw)
    elif kind == _Kind.LOGIC_V:
        if (raw["gate"] == int(GateType.NOR)).any():
            raise ValueError("vertical operations do not support NOR")
    return raw


def is_logic_h(words):
    """Boolean column: which operation words are horizontal gates."""
    import numpy as np

    return (words >> np.uint64(61)) == np.uint64(_Kind.LOGIC_H)


def logic_h_columns(words) -> dict:
    """``{field: int8 column}`` of horizontal-gate words, every
    :class:`LogicHOp` constructor invariant checked — what a replay plan
    is built from instead of op objects."""
    return _field_columns(words, _Kind.LOGIC_H)


def _distinct(values):
    """``(sorted distinct values, each value's rank among them)`` — what
    ``np.unique(values, return_inverse=True)`` returns, by hand (it pulls
    in ``numpy.ma``, a one-time import charged to the first warm start).
    Only ranks are returned: no order is promised between equal values."""
    import numpy as np

    order = np.argsort(values)
    ranked = values[order]
    fresh = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    index = np.empty(len(values), dtype=np.int64)
    index[order] = np.cumsum(fresh) - 1
    return ranked[fresh], index


#: Where the five partition fields (``p_a`` ... ``p_step``, 6 bits each) sit in
#: a gate's 32-bit *pattern key*, above its 2 gate bits.
PATTERN_SHIFTS = range(_GATE_FIELD, 32, _PART_FIELD)


def gate_table(words) -> tuple:
    """The horizontal gates among ``words`` as integer columns: ``(fields,
    keys, index)`` — their :func:`logic_h_columns`, the distinct pattern keys
    and each gate's position among those: what depends on the pattern alone
    (out-mask, gate count) is computed once per key and gathered per gate."""
    import numpy as np

    fields = logic_h_columns(words[is_logic_h(words)])
    key = fields["gate"].astype(np.uint32)
    names = ("p_a", "p_b", "p_out", "p_end", "p_step")
    for shift, name in zip(PATTERN_SHIFTS, names):
        key |= fields[name].astype(np.uint32) << np.uint32(shift)
    keys, index = _distinct(key)
    return fields, keys, index.astype(np.int32)


def decode_many(words, word_size: int = 32) -> "tuple[MicroOp, ...]":
    """Bulk :func:`decode`: one vectorized pass over many operation words.

    Semantically identical to ``tuple(decode(w) for w in words)`` but an
    order of magnitude faster on large programs: field extraction and the
    ``__post_init__`` invariant checks run as NumPy array operations over
    the whole batch (:func:`_field_columns`), objects are built by direct
    ``__dict__`` fill (the per-field ``object.__setattr__`` dance of
    frozen dataclasses is the dominant scalar cost), and duplicate words
    share one decoded object (micro-ops are frozen, so sharing is safe).
    """
    import numpy as np

    try:
        if isinstance(words, np.ndarray) and words.dtype == np.uint64:
            arr = words
        else:
            arr = np.asarray(list(words), dtype=np.uint64)
    except (OverflowError, TypeError, ValueError) as error:
        raise ValueError(f"operation words must fit in 64 bits: {error}")
    if arr.ndim != 1:
        raise ValueError("decode_many expects a flat sequence of words")
    if len(arr) == 0:
        return ()
    unique, inverse = _distinct(arr)
    kinds = (unique >> np.uint64(61)).astype(np.int64)
    gate_table = {int(gate): gate for gate in GateType}
    decoded: "list[MicroOp | None]" = [None] * len(unique)

    for kind_value in sorted(set(kinds.tolist())):
        kind = _Kind(kind_value)  # raises on an unknown tag
        positions = np.nonzero(kinds == kind_value)[0]
        raw = _field_columns(unique[positions], kind, word_size)
        names = list(raw)
        columns = [column.tolist() for column in raw.values()]
        if "gate" in raw:
            columns[names.index("gate")] = [
                gate_table[value] for value in columns[names.index("gate")]
            ]
        if kind == _Kind.MOVE:
            sign_at = names.index("sign")
            dist_at = names.index("dist")
            columns[dist_at] = [
                -dist if sign else dist
                for dist, sign in zip(columns[dist_at], columns[sign_at])
            ]
            del columns[sign_at], names[sign_at]

        cls = _LAYOUT[kind][0]
        new = cls.__new__
        for position, values in zip(positions.tolist(), zip(*columns)):
            op = new(cls)
            op.__dict__.update(zip(names, values))
            decoded[position] = op

    return tuple(map(decoded.__getitem__, inverse.tolist()))


def decode(word: int, word_size: int = 32) -> MicroOp:
    """Decode a 64-bit operation word back into a micro-operation."""
    return decode_many([word], word_size)[0]
