"""Gate-level builder: the driver's interface to stateful logic.

A *cell* is one memristor addressed as ``(register, partition)`` within the
current row — every gate emitted here executes element-parallel across all
rows activated by the surrounding mask operations, which is exactly the
bit-serial element-parallel model of Section II-B.

Stateful logic can only pull an output memristor from logical 1 to logical
0, so every gate output must be initialized first. The builder accounts for
these ``INIT1`` cycles honestly while amortizing them: scratch cells are
handed out from whole *columns* (one register across all partitions) that
are bulk-initialized with a single micro-operation whenever the entire
column is reusable. A column's state is two integers (bit masks of its
clean and its stale free partitions), and a gate leaves the builder as a
*row* of nine integers (:data:`Row`) — never as an op object: a recorded
list of rows is packed straight into a body program's operation words.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.arch.config import PIMConfig
from repro.arch.micro_ops import GateType

#: A memristor address within a row: (register index, partition index).
Cell = Tuple[int, int]

#: A horizontal gate as the builder emits it: the nine fields of a
#: :class:`~repro.arch.micro_ops.LogicHOp` in its layout order, ``(gate,
#: in_a, in_b, out, p_a, p_b, p_out, p_end, p_step)``. No op object is
#: built here; :func:`~repro.arch.micro_ops.encode_rows` packs rows.
Row = Tuple[int, int, int, int, int, int, int, int, int]

_INIT0, _INIT1, _NOT, _NOR = GateType


class ScratchOverflow(Exception):
    """Raised when an instruction needs more driver scratch cells than exist."""


def _arith_runs(values: List[int]) -> List[Tuple[int, int, int]]:
    """Split a sorted integer list into (start, stop, step) arithmetic runs."""
    runs = []
    index = 0
    n = len(values)
    while index < n:
        start = values[index]
        if index + 1 >= n:
            runs.append((start, start, 1))
            break
        step = values[index + 1] - start
        stop_idx = index + 1
        while stop_idx + 1 < n and values[stop_idx + 1] - values[stop_idx] == step:
            stop_idx += 1
        runs.append((start, values[stop_idx], step))
        index = stop_idx + 1
    return runs


class GateError(Exception):
    """Raised on invalid gate usage (aliasing, read-after-free, ...)."""


class GateBuilder:
    """Emits stateful-logic micro-operations for one macro-instruction.

    Args:
        config: architecture parameters; temporaries live in its
            reserved scratch registers.
        emit: callback receiving each generated gate, as a :data:`Row`,
            in order.
        guard: when True, track cell lifetimes and raise :class:`GateError`
            on use-after-free (slower; enabled in tests).
    """

    def __init__(
        self,
        config: PIMConfig,
        emit: Callable[[Row], None],
        guard: bool = False,
    ):
        self.config = config
        self.emit = emit
        self.guard = guard
        self._scratch_regs = list(config.scratch_register_indices())
        if not self._scratch_regs:
            raise ValueError("the builder needs at least one scratch register")
        # Per-column state, two integers with one bit per partition: the
        # free cells that are clean (hold 1, gate-ready) and those that are
        # stale (need INIT1 before reuse as a gate output). Everything
        # starts stale. No column before ``_first`` holds a clean cell.
        self._full = (1 << config.partitions) - 1
        self._clean = dict.fromkeys(self._scratch_regs, 0)
        self._stale = dict.fromkeys(self._scratch_regs, self._full)
        self._first = 0
        self._reserved_columns: List[int] = []
        self._freed_guard: set = set()  # tracked under ``guard`` only
        # Shared constant cells, created lazily (never freed).
        self._const_cells: dict = {}
        self._protected: set = set()

    @classmethod
    def recording(
        cls, config: PIMConfig, guard: bool = False
    ) -> "Tuple[GateBuilder, List[Row]]":
        """A builder that records into a fresh row list: ``(builder, rows)``;
        :func:`~repro.arch.micro_ops.encode_rows` of the list is a body
        :class:`~repro.driver.program.MicroProgram`'s words."""
        rows: List[Row] = []
        return cls(config, rows.append, guard), rows

    # ------------------------------------------------------------------
    # Scratch management
    # ------------------------------------------------------------------
    @property
    def free_cell_count(self) -> int:
        """Currently available scratch cells (for tests and sizing checks)."""
        return sum(
            (self._clean[reg] | self._stale[reg]).bit_count()
            for reg in self._scratch_regs
        )

    def alloc(self) -> Cell:
        """Claim one scratch cell, initialized to logical 1 (gate-ready)."""
        clean, stale, regs = self._clean, self._stale, self._scratch_regs
        # Prefer a clean free cell (no init needed): the lowest one of the
        # first column that has any. Cells become clean only below, in the
        # column ``_first`` then names, so the scan starts there.
        for index in range(self._first, len(regs)):
            reg = regs[index]
            bits = clean[reg]
            if bits:
                self._first = index
                low = bits & -bits
                clean[reg] = bits ^ low
                cell = (reg, low.bit_length() - 1)
                if self.guard:
                    self._freed_guard.discard(cell)
                return cell
        # Next, bulk-initialize a fully-free column with one micro-op.
        for index, reg in enumerate(regs):
            if stale[reg] == self._full:
                self.init_column(reg, 1)
                clean[reg], stale[reg], self._first = self._full, 0, index
                return self.alloc()
        # Otherwise, batch-clean the column holding the most reclaimable
        # cells: its stale set is re-initialized with strided INIT1 runs,
        # amortizing init cycles over many future allocs.
        best = max(regs, key=lambda reg: stale[reg].bit_count())
        reclaimable = stale[best]
        if not reclaimable:
            raise ScratchOverflow(
                f"out of scratch cells ({len(regs)} columns x "
                f"{self.config.partitions} partitions all live)"
            )
        parts = [p for p in range(self.config.partitions) if reclaimable >> p & 1]
        for start, stop, step in _arith_runs(parts):
            self.emit((_INIT1, 0, 0, best, 0, 0, start, stop, step))
        clean[best], stale[best], self._first = reclaimable, 0, regs.index(best)
        return self.alloc()

    def alloc_bits(self, count: int) -> List[Cell]:
        """Claim ``count`` scratch cells (LSB-first bit vector)."""
        return [self.alloc() for _ in range(count)]

    def free(self, cell: Cell) -> None:
        """Release a scratch cell (its value becomes undefined).

        Freeing a register-file cell (tensor data) or a shared constant
        cell is a no-op, so callers may free whole bit vectors that mix
        scratch with aliased constants.
        """
        reg, part = cell
        if reg not in self._stale or cell in self._protected:
            return
        if self.guard:
            if (self._clean[reg] | self._stale[reg]) >> part & 1:
                raise GateError(f"double free of cell {cell}")
            self._freed_guard.add(cell)
        self._stale[reg] |= 1 << part

    def free_bits(self, cells: List[Cell]) -> None:
        """Release a vector of scratch cells."""
        for cell in cells:
            self.free(cell)

    def reserve_column(self) -> int:
        """Claim an entire scratch register for partition-parallel routines.

        Returns the register index; all its cells leave the cell pool. The
        column is *not* initialized (bit-parallel routines init explicitly).
        """
        for reg in self._scratch_regs:
            if (self._clean[reg] | self._stale[reg]) == self._full:
                self._clean[reg] = self._stale[reg] = 0
                self._reserved_columns.append(reg)
                return reg
        raise ScratchOverflow("no fully-free scratch column available")

    def release_column(self, reg: int) -> None:
        """Return a reserved scratch register to the cell pool."""
        if reg not in self._reserved_columns:
            raise GateError(f"register {reg} was not reserved")
        self._reserved_columns.remove(reg)
        self._clean[reg], self._stale[reg] = 0, self._full

    def const(self, bit: int) -> Cell:
        """A shared constant cell holding ``bit`` (read-only, never freed)."""
        bit = 1 if bit else 0
        if bit not in self._const_cells:
            cell = self.alloc()
            if bit == 0:
                self.init_cell(cell, 0)
            self._const_cells[bit] = cell
            self._protected.add(cell)
        return self._const_cells[bit]

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def init_column(self, reg: int, value: int) -> None:
        """Bulk-initialize one register across all partitions (1 micro-op)."""
        last = self.config.partitions - 1
        self.emit((_INIT1 if value else _INIT0, 0, 0, reg, 0, 0, 0, last, 1))

    def init_cell(self, cell: Cell, value: int) -> None:
        """Initialize a single cell (1 micro-op)."""
        reg, part = cell
        self.emit((_INIT1 if value else _INIT0, 0, 0, reg, 0, 0, part, part, 1))

    def _check_read(self, *cells: Cell) -> None:
        for cell in cells:
            if cell in self._freed_guard:
                raise GateError(f"read of freed cell {cell}")

    # ------------------------------------------------------------------
    # Primitive gates (functional outputs allocate scratch)
    # ------------------------------------------------------------------
    def nor_into(self, a: Cell, b: Cell, out: Cell) -> None:
        """``out &= NOR(a, b)`` — out must be freshly initialized to 1."""
        if self.guard:
            self._check_read(a, b)
        if out == a or out == b:
            raise GateError("gate output must differ from its inputs")
        if a == b:
            self.not_into(a, out)
            return
        (reg_a, p_a), (reg_b, p_b) = a, b
        if p_a > p_b:
            reg_a, p_a, reg_b, p_b = reg_b, p_b, reg_a, p_a
        reg, part = out
        self.emit((_NOR, reg_a, reg_b, reg, p_a, p_b, part, part, 1))

    def not_into(self, a: Cell, out: Cell) -> None:
        """``out &= NOT(a)`` — out must be freshly initialized to 1."""
        if self.guard:
            self._check_read(a)
        if out == a:
            raise GateError("gate output must differ from its input")
        (reg_a, p_a), (reg, part) = a, out
        self.emit((_NOT, reg_a, reg_a, reg, p_a, p_a, part, part, 1))

    def nor(self, a: Cell, b: Cell) -> Cell:
        """NOR of two cells into a fresh scratch cell."""
        out = self.alloc()
        self.nor_into(a, b, out)
        return out

    def not_(self, a: Cell) -> Cell:
        """NOT of a cell into a fresh scratch cell."""
        out = self.alloc()
        self.not_into(a, out)
        return out

    # ------------------------------------------------------------------
    # Derived gates
    # ------------------------------------------------------------------
    def or_(self, a: Cell, b: Cell) -> Cell:
        """OR — NOR followed by NOT (2 gates)."""
        t = self.nor(a, b)
        out = self.not_(t)
        self.free(t)
        return out

    def and_(self, a: Cell, b: Cell) -> Cell:
        """AND — NOR of the complements (3 gates)."""
        na, nb = self.not_(a), self.not_(b)
        out = self.nor(na, nb)
        self.free_bits([na, nb])
        return out

    def xnor(self, a: Cell, b: Cell) -> Cell:
        """XNOR — the classic 4-NOR network."""
        n1 = self.nor(a, b)
        n2 = self.nor(a, n1)
        n3 = self.nor(b, n1)
        out = self.nor(n2, n3)
        self.free_bits([n1, n2, n3])
        return out

    def xor(self, a: Cell, b: Cell) -> Cell:
        """XOR — XNOR plus an inverter (5 gates)."""
        t = self.xnor(a, b)
        out = self.not_(t)
        self.free(t)
        return out

    def mux(self, cond: Cell, if_true: Cell, if_false: Cell) -> Cell:
        """``cond ? if_true : if_false`` — NOR(NOR(a, ~c), NOR(b, c))."""
        nc = self.not_(cond)
        t1 = self.nor(if_true, nc)
        t2 = self.nor(if_false, cond)
        out = self.nor(t1, t2)
        self.free_bits([nc, t1, t2])
        return out

    def copy(self, a: Cell) -> Cell:
        """Copy a cell's value into a fresh scratch cell (2 NOT gates)."""
        t = self.not_(a)
        out = self.not_(t)
        self.free(t)
        return out

    def copy_into(self, a: Cell, out: Cell) -> None:
        """Copy a cell's value into a freshly-initialized target cell."""
        t = self.not_(a)
        self.not_into(t, out)
        self.free(t)

    def full_adder(
        self, a: Cell, b: Cell, cin: Cell, out: Optional[Cell] = None
    ) -> Tuple[Cell, Cell]:
        """The 9-NOR full adder of AritPIM; returns ``(sum, carry_out)``.

        The sum lands in ``out`` when given (freshly initialized to 1),
        else in a fresh scratch cell.
        """
        n1 = self.nor(a, b)
        n2 = self.nor(a, n1)
        n3 = self.nor(b, n1)
        n4 = self.nor(n2, n3)  # XNOR(a, b)
        n5 = self.nor(n4, cin)
        n6 = self.nor(n4, n5)
        n7 = self.nor(cin, n5)
        if out is None:
            out = self.alloc()
        self.nor_into(n6, n7, out)  # XNOR(XNOR(a, b), cin) = sum
        cout = self.nor(n1, n5)
        self.free_bits([n1, n2, n3, n4, n5, n6, n7])
        return out, cout

    # ------------------------------------------------------------------
    # Destination-register helpers
    # ------------------------------------------------------------------
    def register_cells(self, reg: int) -> List[Cell]:
        """The LSB-first cell vector of a data register (read-only view)."""
        return [(reg, part) for part in range(self.config.partitions)]

    def write_register(self, cells: List[Cell], dest_reg: int) -> None:
        """Materialize a computed bit vector into a destination register.

        Bulk-initializes the destination column, then copies each bit with
        two NOT gates. Alias-safe: source cells living in the destination
        register are staged through scratch copies first.
        """
        if len(cells) != self.config.partitions:
            raise GateError(
                f"need {self.config.partitions} bits, got {len(cells)}"
            )
        staged = []
        sources = []
        for cell in cells:
            if cell[0] == dest_reg:
                copy = self.copy(cell)
                staged.append(copy)
                sources.append(copy)
            else:
                sources.append(cell)
        self.init_column(dest_reg, 1)
        for part, cell in enumerate(sources):
            self.copy_into(cell, (dest_reg, part))
        self.free_bits(staged)

    def not_column(self, src_reg: int, dst_reg: int) -> None:
        """Partition-parallel NOT of a whole register (1 micro-op).

        The N concurrent gates each stay within their own partition, so the
        sections are trivially disjoint.
        """
        if src_reg == dst_reg:
            raise GateError("parallel NOT output must differ from its input")
        last = self.config.partitions - 1
        self.emit((_NOT, src_reg, src_reg, dst_reg, 0, 0, 0, last, 1))
