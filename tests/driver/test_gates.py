"""Tests for the gate-level builder: primitives, scratch pool, init rules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import PIMConfig
from repro.arch.micro_ops import GateType
from repro.driver.gates import GateBuilder, GateError, ScratchOverflow, _arith_runs

from tests.driver.harness import GateHarness


@pytest.fixture
def h():
    return GateHarness()


class TestPrimitives:
    @pytest.mark.parametrize("a,b,want", [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    def test_nor(self, h, a, b, want):
        ca, cb = h.input_bits(a, 1)[0], h.input_bits(b, 1)[0]
        assert h.get_cell(h.gb.nor(ca, cb)) == want

    @pytest.mark.parametrize("a,want", [(0, 1), (1, 0)])
    def test_not(self, h, a, want):
        assert h.get_cell(h.gb.not_(h.input_bits(a, 1)[0])) == want

    def test_nor_same_cell_is_not(self, h):
        cell = h.input_bits(1, 1)[0]
        assert h.get_cell(h.gb.nor(cell, cell)) == 0

    def test_output_aliasing_rejected(self, h):
        a = h.input_bits(1, 1)[0]
        b = h.input_bits(0, 1)[0]
        with pytest.raises(GateError):
            h.gb.nor_into(a, b, a)

    def test_copy(self, h):
        for value in (0, 1):
            cell = h.input_bits(value, 1)[0]
            assert h.get_cell(h.gb.copy(cell)) == value


class TestDerivedGates:
    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    def test_two_input_gates(self, h, a, b):
        ca, cb = h.input_bits(a, 1)[0], h.input_bits(b, 1)[0]
        assert h.get_cell(h.gb.or_(ca, cb)) == (a | b)
        assert h.get_cell(h.gb.and_(ca, cb)) == (a & b)
        assert h.get_cell(h.gb.xor(ca, cb)) == (a ^ b)
        assert h.get_cell(h.gb.xnor(ca, cb)) == 1 - (a ^ b)

    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    def test_mux(self, h, c, a, b):
        cc = h.input_bits(c, 1)[0]
        ca = h.input_bits(a, 1)[0]
        cb = h.input_bits(b, 1)[0]
        assert h.get_cell(h.gb.mux(cc, ca, cb)) == (a if c else b)

    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("cin", [0, 1])
    @pytest.mark.parametrize("into", [False, True])
    def test_full_adder(self, h, a, b, cin, into):
        ca, cb = h.input_bits(a, 1)[0], h.input_bits(b, 1)[0]
        cc = h.input_bits(cin, 1)[0]
        out = h.gb.alloc() if into else None  # a pre-initialized sum cell
        s, cout = h.gb.full_adder(ca, cb, cc, out)
        total = a + b + cin
        assert s == out or not into
        assert h.get_cell(s) == total & 1
        assert h.get_cell(cout) == total >> 1


class TestScratchPool:
    def test_alloc_initializes_to_one(self, h):
        cell = h.gb.alloc()
        assert h.get_cell(cell) == 1

    def test_free_and_realloc_reinitializes(self, h):
        cell = h.gb.alloc()
        h.set_cell(cell, 0)
        h.gb.free(cell)
        again = h.gb.alloc()
        assert h.get_cell(again) == 1

    def test_double_free_guarded(self, h):
        cell = h.gb.alloc()
        h.gb.free(cell)
        with pytest.raises(GateError):
            h.gb.free(cell)

    def test_read_after_free_guarded(self, h):
        cell = h.gb.alloc()
        other = h.gb.alloc()
        h.gb.free(cell)
        with pytest.raises(GateError):
            h.gb.nor(cell, other)

    def test_register_cells_never_pooled(self, h):
        cells = h.gb.register_cells(0)
        h.gb.free_bits(cells)  # no-op, no error
        assert len(cells) == 32

    def test_const_cells_protected(self, h):
        zero = h.gb.const(0)
        one = h.gb.const(1)
        h.gb.free(zero)
        h.gb.free(one)
        assert h.get_cell(zero) == 0
        assert h.get_cell(one) == 1

    def test_scratch_overflow(self, h):
        capacity = h.gb.free_cell_count
        for _ in range(capacity):
            h.gb.alloc()
        with pytest.raises(ScratchOverflow):
            h.gb.alloc()

    def test_bulk_init_amortization(self, h):
        """Allocating a fresh column costs one micro-op, not 32."""
        before = h.cycles
        h.gb.alloc_bits(32)
        # one column INIT1 (or few) rather than 32 single-cell inits
        assert h.cycles - before <= 2

    def test_reserve_column_takes_whole_register(self, h):
        reg = h.gb.reserve_column()
        free_before = h.gb.free_cell_count
        h.gb.release_column(reg)
        assert h.gb.free_cell_count == free_before + 32

    def test_release_unreserved_rejected(self, h):
        with pytest.raises(GateError):
            h.gb.release_column(5)


class TestRegisterHelpers:
    def test_write_register(self, h):
        bits = h.input_bits(0xCAFEBABE, 32)
        h.gb.write_register(bits, 3)
        assert h.get_register(3) == 0xCAFEBABE

    def test_write_register_alias_staging(self, h):
        """Sources living in the destination register are staged safely."""
        h.set_register(2, 0x0000FFFF)
        cells = h.gb.register_cells(2)
        rotated = cells[16:] + cells[:16]
        h.gb.write_register(rotated, 2)
        assert h.get_register(2) == 0xFFFF0000

    def test_not_column(self, h):
        h.set_register(0, 0x12345678)
        h.gb.init_column(1, 1)
        h.gb.not_column(0, 1)
        assert h.get_register(1) == (~0x12345678) & 0xFFFFFFFF

    def test_not_column_alias_rejected(self, h):
        with pytest.raises(GateError):
            h.gb.not_column(0, 0)

    def test_wrong_width_rejected(self, h):
        with pytest.raises(GateError):
            h.gb.write_register(h.gb.alloc_bits(8), 0)


class _SetModel:
    """The scratch allocator stated over sets of partitions — the form the
    builder had before its columns became two bit masks each. Kept here
    as the reference: same cells, same rows, ``ScratchOverflow`` at the
    same call."""

    def __init__(self, regs, parts):
        self.regs, self.parts, self.rows = list(regs), parts, []
        self.free = {reg: set(range(parts)) for reg in regs}
        self.dirty = {reg: set(range(parts)) for reg in regs}
        self.reserved, self.consts, self.protected = [], {}, set()

    def _take(self, reg, part):
        self.free[reg].discard(part)
        return (reg, part)

    def alloc(self):
        for reg in self.regs:
            clean = self.free[reg] - self.dirty[reg]
            if clean:
                return self._take(reg, min(clean))
        for reg in self.regs:
            if len(self.free[reg]) == self.parts and self.dirty[reg]:
                self.rows.append((GateType.INIT1, 0, 0, reg, 0, 0, 0, self.parts - 1, 1))
                self.dirty[reg].clear()
                return self._take(reg, 0)
        best = max(self.regs, key=lambda reg: len(self.free[reg] & self.dirty[reg]))
        reclaimable = sorted(self.free[best] & self.dirty[best])
        if not reclaimable:
            raise ScratchOverflow
        for start, stop, step in _arith_runs(reclaimable):
            self.rows.append((GateType.INIT1, 0, 0, best, 0, 0, start, stop, step))
        self.dirty[best].difference_update(reclaimable)
        return self._take(best, reclaimable[0])

    def free_cell(self, cell):
        reg, part = cell
        if reg in self.free and cell not in self.protected:
            self.free[reg].add(part)
            self.dirty[reg].add(part)

    def reserve_column(self):
        for reg in self.regs:
            if len(self.free[reg]) == self.parts:
                self.free[reg].clear()
                self.reserved.append(reg)
                return reg
        raise ScratchOverflow

    def release_column(self, reg):
        self.reserved.remove(reg)
        self.free[reg] = set(range(self.parts))
        self.dirty[reg] = set(range(self.parts))

    def const(self, bit):
        if bit not in self.consts:
            cell = self.alloc()
            if bit == 0:
                self.rows.append((GateType.INIT0, 0, 0, cell[0], 0, 0, cell[1], cell[1], 1))
            self.consts[bit] = cell
            self.protected.add(cell)
        return self.consts[bit]


class TestAllocatorAgainstTheSetModel:
    """Random alloc / free / alloc_bits / reserve / release / const
    sequences: the bit-mask builder and the set model agree call by call."""

    STEP = st.tuples(
        st.sampled_from(
            ["alloc", "alloc_bits", "alloc_bits", "free", "free_some", "free_some",
             "reserve", "release", "const"]
        ),
        st.integers(0, 15), st.integers(0, 63),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        wide=st.booleans(), scratch=st.integers(10, 24),
        steps=st.lists(STEP, min_size=1, max_size=60),
    )
    def test_same_cells_same_rows_same_overflow(self, wide, scratch, steps):
        parts = 64 if wide else 32
        config = PIMConfig(
            crossbars=1, rows=1, columns=32 * parts, partitions=parts,
            word_size=parts, scratch_registers=scratch,
        )
        builder, rows = GateBuilder.recording(config)
        model = _SetModel(config.scratch_register_indices(), parts)
        live, columns = [], []

        def both(real, reference):
            """One call on each side: same result, or the same overflow."""
            try:
                expected = reference()
            except ScratchOverflow:
                with pytest.raises(ScratchOverflow):
                    real()
                return None
            result = real()
            assert result == expected
            return result

        for action, share, number in steps:
            if action == "alloc":
                cell = both(builder.alloc, model.alloc)
                live += [cell] if cell is not None else []
            elif action == "alloc_bits":
                # Up to a little more than everything that is free: one
                # step can drain the pool, or overflow mid-vector.
                count = builder.free_cell_count * share // 12 + number % 8
                cells = both(
                    lambda: builder.alloc_bits(count),
                    lambda: [model.alloc() for _ in range(count)],
                )
                if cells is None:
                    break  # both sides stopped mid-vector, at the same cell
                live += cells
            elif action in ("free", "free_some") and live:
                chosen = live[number % len(live) :: 1 + share % 5]
                for cell in chosen[:1] if action == "free" else chosen:
                    live.remove(cell)
                    builder.free(cell)
                    model.free_cell(cell)
            elif action == "reserve":
                reg = both(builder.reserve_column, model.reserve_column)
                columns += [reg] if reg is not None else []
            elif action == "release" and columns:
                reg = columns.pop(number % len(columns))
                builder.release_column(reg)
                model.release_column(reg)
            elif action == "const":
                both(lambda: builder.const(number & 1), lambda: model.const(number & 1))
            assert rows == model.rows
            assert builder.free_cell_count == sum(map(len, model.free.values()))
        assert rows == model.rows
