"""The fast functional backend: NumPy semantics, simulator cycle accounting.

Where the bit-accurate backend executes every stateful-logic
micro-operation individually, this backend executes each
*macro-instruction* as one vectorized NumPy operation on the same packed
``(crossbars, registers, rows)`` word image — functionally equivalent
results (two's-complement int32, IEEE binary32 with the documented
flush-to-zero convention) at a fraction of the host cost.

The chip cycle model is **not** approximated away: every stream is
still priced through the real :class:`~repro.driver.driver.Driver` (once
per distinct stream) with exactly the simulator's accounting rules, so a
profiled block reports the *same* PIM cycles on both backends; only the
wall-clock (and the bit-exactness guarantee of the memory image under
fault injection) differs. That pricing is
:class:`~repro.backend.base.BilledBackend`'s, the stream tier and the
fault window its driver's; this module is the functional model only.
An eager ``execute`` is a one-instruction stream, so the one apply path
is a program's replay plan of closures over the word image
(:meth:`NumpyBackend._plan_steps`).

Known deviations from the bit-accurate model, all outside the tested
value domain (``docs/architecture.md`` §11): NaN payloads, the
division-by-zero result convention, and subnormal handling in the unary
float ops follow NumPy where the gate-level suite defines its own bits.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.backend.base import BilledBackend, BilledProgram
from repro.driver.stream import MacroStream
from repro.faults.checksum import program_regions
from repro.isa.instructions import (
    Instruction,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
)
from repro.sim.simulator import SimulationError, checked_move_cycles
from repro.sim.stats import SimStats

_WORD_MASK = np.uint64(0xFFFFFFFF)
_EXP_MASK = np.uint32(0x7F800000)
_SIGN_MASK = np.uint32(0x80000000)


@dataclass(frozen=True, eq=False)
class FunctionalProgram(BilledProgram):
    """A compiled macro-instruction stream for the NumPy backend.

    The functional twin of :class:`~repro.driver.program.MicroProgram`:
    ``instructions`` replay as vectorized NumPy updates, while the
    carried ``stats_delta`` charges the exact cycles the simulator
    backend would.
    """

    instructions: Tuple[Instruction, ...] = ()


class NumpyBackend(BilledBackend):
    """Functional macro-instruction execution with simulator cycle counts.

    Accepts the same keyword arguments as the driver (``parallelism``
    changes which lowering — and therefore which cycle counts — are
    charged; ``cache_size`` bounds the lowering cache; ``guard`` checks
    the pricing lowering's gate lifetimes).
    """

    name = "numpy"

    def __init__(self, config: PIMConfig, **driver_kwargs):
        super().__init__(config, **driver_kwargs)
        if config.word_size != 32:
            raise ValueError("the numpy backend models 32-bit words only")
        self._words = np.zeros(
            (config.crossbars, config.registers, config.rows), dtype=np.uint32
        )
        # Replay plans for compiled programs (pre-resolved per-instruction
        # closures), dropped automatically when a program is collected.
        self._plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Validated (warp_mask, dist) -> source-warp index array, shared by
        # every planned move with the same pattern.
        self._move_cache: Dict[Tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def execute(self, instr: Instruction) -> Optional[int]:
        return self._run_stream((instr,), "stream")

    def compile(
        self,
        instructions: Sequence[Instruction],
        name: str = "stream",
        optimize: bool = True,
    ) -> FunctionalProgram:
        """Compile a stream: priced by the driver's lowering (verbatim:
        the stream program), replayed from its macro-instructions."""
        return self._compile(instructions, name, optimize)

    def _assemble(self, instrs, name, delta, source_ops):
        return FunctionalProgram(
            name, self._fingerprint, delta, len(instrs), source_ops, instrs
        )

    def _pool_part(self, instructions, name):
        """Unpriced: the pool has billed the stream, so nothing is lowered."""
        return self._assemble(MacroStream.wrap(instructions), name, SimStats(), 0)

    def run_program(
        self, program: FunctionalProgram, verify: Optional[str] = None
    ) -> Optional[int]:
        """Replay a compiled stream from its pre-resolved plan.

        On first sight of a program this builds a *replay plan* — one
        closure per macro-instruction (one per group of moves, see
        :meth:`_plan_steps`) with regions, index arrays, and operation
        constants already resolved — exactly the strategy of the
        simulator's ``execute_program`` fast path. Replay then pays
        only the vectorized memory updates plus one batched stats merge.

        ``verify="checksum"`` checksums the program's written regions
        (derived from the macro instructions) across the post-replay
        fault window, mirroring the driver's protocol.
        """
        self._admit(program, verify)
        plan = self._plans.get(program)
        if plan is None:
            plan = self._plan_steps(program.instructions)
            self._plans[program] = plan
        response: Optional[int] = None
        with np.errstate(all="ignore"):
            for step in plan:
                result = step()
                if result is not None:
                    response = result
        regions = program_regions(program, self.config) if verify else None
        self._settle(program.stats_delta, verify, regions, program.name)
        return response

    def run_stream(
        self, instructions: Sequence[Instruction], name: str = "stream"
    ) -> Optional[int]:
        """Emit a whole stream through one cached ``FunctionalProgram``."""
        return self._run_stream(instructions, name)

    def _plan_steps(
        self, instructions: Sequence[Instruction]
    ) -> List[Callable[[], Optional[int]]]:
        """The replay closures of a stream, consecutive moves merged.

        A run of moves from one register to a *different* one, whose
        destination cells are pairwise distinct, reads nothing it
        writes and writes no cell twice, so executing it in order
        equals one gather of every source word followed by one scatter
        (:meth:`_gather_step`). A move within one register, or onto a
        cell the group already writes, closes the group; single moves
        and everything else keep their own step. Every member's H-tree
        pattern is validated here, at plan build, as a single move's is.
        """
        rows = self.config.rows
        steps: List[Callable[[], Optional[int]]] = []
        group: List[MoveInstr] = []
        cells: set = set()

        def flush() -> None:
            if len(group) > 1:
                steps.append(self._gather_step(group))
            elif group:
                steps.append(self._plan_instr(group[0]))
            group.clear()
            cells.clear()

        for instr in instructions:
            if isinstance(instr, MoveInstr) and instr.src_reg != instr.dst_reg:
                dests = {
                    (warp + instr.warp_dist) * rows + instr.dst_thread
                    for warp in self._move_sources(instr).tolist()
                }
                if group and (
                    (group[0].src_reg, group[0].dst_reg)
                    != (instr.src_reg, instr.dst_reg)
                    or not cells.isdisjoint(dests)
                ):
                    flush()
                group.append(instr)
                cells |= dests
                continue
            flush()
            steps.append(self._plan_instr(instr))
        flush()
        return steps

    def _gather_step(self, moves: List[MoveInstr]) -> Callable[[], None]:
        """One fancy-indexed copy for a group :meth:`_plan_steps` formed."""
        words = self._words
        src_reg, dst_reg = moves[0].src_reg, moves[0].dst_reg
        sources = [self._move_sources(move) for move in moves]
        counts = [len(warps) for warps in sources]
        src_warps = np.concatenate(sources)
        dst_warps = np.concatenate(
            [warps + move.warp_dist for warps, move in zip(sources, moves)]
        )
        src_rows = np.repeat([move.src_thread for move in moves], counts)
        dst_rows = np.repeat([move.dst_thread for move in moves], counts)

        def gather_step():
            words[dst_warps, dst_reg, dst_rows] = words[src_warps, src_reg, src_rows]

        return gather_step

    def _plan_instr(self, instr: Instruction) -> Callable[[], Optional[int]]:
        """Pre-resolve one macro-instruction into a replay closure."""
        words = self._words
        if isinstance(instr, RInstr):
            out = self._region(instr.dest, instr.warp_mask, instr.row_mask)
            srcs = [
                self._region(reg, instr.warp_mask, instr.row_mask)
                for reg in instr.sources()
            ]
            semantics = _float_op if instr.dtype.is_float else _int_op
            op = instr.op

            def r_step(out=out, srcs=srcs, op=op, semantics=semantics):
                out[...] = semantics(op, srcs)

            return r_step
        if isinstance(instr, WriteInstr):
            region = self._region(instr.reg, instr.warp_mask, instr.row_mask)
            value = np.uint32(instr.value)

            def w_step(region=region, value=value):
                region[...] = value

            return w_step
        if isinstance(instr, ReadInstr):
            warp, reg, thread = instr.warp, instr.reg, instr.thread

            def read_step():
                return int(words[warp, reg, thread])

            return read_step
        if isinstance(instr, MoveInstr):
            sources = self._move_sources(instr)
            if len(sources) == 1:  # plain ints take NumPy's scalar get/set
                sources = int(sources[0])
            dests = sources + instr.warp_dist
            src_reg, dst_reg = instr.src_reg, instr.dst_reg
            src_row, dst_row = instr.src_thread, instr.dst_thread

            def move_step():
                words[dests, dst_reg, dst_row] = words[sources, src_reg, src_row]

            return move_step
        raise SimulationError(f"not an instruction: {instr!r}")

    def _region(
        self,
        reg: int,
        warp_mask: Optional[RangeMask],
        row_mask: Optional[RangeMask],
    ) -> np.ndarray:
        wm = warp_mask or RangeMask.all(self.config.crossbars)
        rm = row_mask or RangeMask.all(self.config.rows)
        return self._words[
            wm.start : wm.stop + 1 : wm.step, reg, rm.start : rm.stop + 1 : rm.step
        ]

    def _move_sources(self, instr: MoveInstr) -> np.ndarray:
        """A move's source-warp indices, its H-tree pattern validated.

        Memoized per ``(warp_mask, dist)``; shared, read-only, by every
        replay step built from the same pattern.
        """
        warps = instr.warp_mask or RangeMask.all(self.config.crossbars)
        key = (warps, instr.warp_dist)
        sources = self._move_cache.get(key)
        if sources is None:
            if instr.warp_dist:
                checked_move_cycles(warps, instr.warp_dist, self.config.crossbars)
            sources = np.fromiter(warps.indices(), dtype=np.int64)
            if len(self._move_cache) < 65536:
                self._move_cache[key] = sources
        return sources


# ----------------------------------------------------------------------
# Raw-word operation semantics (mirroring the gate-level suite)
# ----------------------------------------------------------------------
def _signed(raw: np.ndarray) -> np.ndarray:
    """Raw words as signed int64 values (two's complement decode)."""
    wide = raw.astype(np.int64)
    return np.where(wide >= 1 << 31, wide - (1 << 32), wide)


def _wrap(values: np.ndarray) -> np.ndarray:
    """Truncate int64 results back to raw 32-bit words."""
    return (values.astype(np.int64) & np.int64(0xFFFFFFFF)).astype(np.uint32)


def _int_op(op: ROp, srcs: List[np.ndarray]) -> np.ndarray:
    a = srcs[0]
    b = srcs[1] if len(srcs) > 1 else None
    if op is ROp.ADD:
        return _wrap(a.astype(np.int64) + b.astype(np.int64))
    if op is ROp.SUB:
        return _wrap(a.astype(np.int64) - b.astype(np.int64))
    if op is ROp.MUL:
        return _wrap(a.astype(np.int64) * b.astype(np.int64))
    if op in (ROp.DIV, ROp.MOD):
        return _int_divmod(op, a, b)
    if op is ROp.NEG:
        return _wrap(-a.astype(np.int64))
    if op is ROp.ABS:
        return _wrap(np.abs(_signed(a)))
    if op is ROp.SIGN:
        return _wrap(np.sign(_signed(a)))
    if op is ROp.ZERO:
        return (a == 0).astype(np.uint32)
    if op in _COMPARES:
        return _COMPARES[op](_signed(a), _signed(b)).astype(np.uint32)
    return _raw_op(op, srcs)


def _int_divmod(op: ROp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated division/remainder as the restoring-divider computes it.

    Magnitudes run through an unsigned datapath; ``b == 0`` yields the
    all-ones quotient magnitude and ``|a|`` remainder the hardware
    produces, and the result is sign-corrected (quotient by XOR of signs,
    remainder by the dividend's sign).
    """
    sa, sb = _signed(a), _signed(b)
    mag_a = np.abs(sa).astype(np.uint64)
    mag_b = np.abs(sb).astype(np.uint64)
    safe_b = np.where(mag_b == 0, 1, mag_b)
    q_mag = np.where(mag_b == 0, _WORD_MASK, mag_a // safe_b).astype(np.int64)
    r_mag = np.where(mag_b == 0, mag_a, mag_a % safe_b).astype(np.int64)
    if op is ROp.DIV:
        negative = (sa < 0) ^ (sb < 0)
        return _wrap(np.where(negative, -q_mag, q_mag))
    return _wrap(np.where(sa < 0, -r_mag, r_mag))


_COMPARES = {
    ROp.LT: np.less,
    ROp.LE: np.less_equal,
    ROp.GT: np.greater,
    ROp.GE: np.greater_equal,
    ROp.EQ: np.equal,
    ROp.NE: np.not_equal,
}


def _ftz(raw: np.ndarray) -> np.ndarray:
    """Flush subnormal words to signed zero (the documented FTZ model)."""
    return np.where(raw & _EXP_MASK == 0, raw & _SIGN_MASK, raw)


def _as_float(raw: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(_ftz(raw)).view(np.float32)


def _from_float(values: np.ndarray) -> np.ndarray:
    raw = np.ascontiguousarray(values.astype(np.float32)).view(np.uint32)
    return _ftz(raw)


def _float_op(op: ROp, srcs: List[np.ndarray]) -> np.ndarray:
    a = srcs[0]
    b = srcs[1] if len(srcs) > 1 else None
    if op is ROp.ADD:
        return _from_float(_as_float(a) + _as_float(b))
    if op is ROp.SUB:
        return _from_float(_as_float(a) - _as_float(b))
    if op is ROp.MUL:
        return _from_float(_as_float(a) * _as_float(b))
    if op is ROp.DIV:
        return _from_float(_as_float(a) / _as_float(b))
    if op is ROp.NEG:
        return a ^ _SIGN_MASK
    if op is ROp.ABS:
        return a & ~_SIGN_MASK
    if op is ROp.SIGN:
        nonzero = a & _EXP_MASK != 0
        one = np.uint32(0x3F800000)
        return np.where(nonzero, one | (a & _SIGN_MASK), np.uint32(0))
    if op is ROp.ZERO:
        return (a & _EXP_MASK == 0).astype(np.uint32)
    if op in _COMPARES:
        return _COMPARES[op](_as_float(a), _as_float(b)).astype(np.uint32)
    return _raw_op(op, srcs)


def _raw_op(op: ROp, srcs: List[np.ndarray]) -> np.ndarray:
    """Dtype-independent raw-word operations (bitwise, mux, copy)."""
    a = srcs[0]
    if op is ROp.COPY:
        return a.copy()
    if op is ROp.BIT_NOT:
        return ~a
    if op is ROp.BIT_AND:
        return a & srcs[1]
    if op is ROp.BIT_OR:
        return a | srcs[1]
    if op is ROp.BIT_XOR:
        return a ^ srcs[1]
    if op is ROp.MUX:
        # Bit 0 of the condition register selects, as in the gate lowering.
        return np.where(a & 1 == 1, srcs[1], srcs[2])
    raise SimulationError(f"unsupported functional op {op}")
