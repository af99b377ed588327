"""The fast functional backend: NumPy semantics, simulator cycle accounting.

Where the bit-accurate backend executes every stateful-logic
micro-operation individually, this backend executes each
*macro-instruction* as one vectorized NumPy operation on the same packed
``(crossbars, registers, rows)`` word image — functionally equivalent
results (two's-complement int32, IEEE binary32 with the documented
flush-to-zero convention) at a fraction of the host cost.

The chip cycle model is **not** approximated away: every instruction is
still priced through the real :class:`~repro.driver.driver.Driver` (once
per distinct instruction; see :class:`~repro.backend.base.BilledBackend`)
and charged to :class:`~repro.sim.stats.SimStats` with exactly the
simulator's accounting rules — per-kind counters, INIT/mask overhead,
gate counts scaled by the active rows, optional H-tree move costs. A
profiled block therefore reports the *same* PIM cycles on both backends;
only the wall-clock (and the bit-exactness guarantee of the memory
image under fault injection) differs.

Known deviations from the bit-accurate model, all outside the tested
value domain (see DESIGN.md's FTZ notes): NaN payloads, the
division-by-zero result convention, and subnormal handling in the unary
float ops follow NumPy where the gate-level suite defines its own bits.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.htree import validate_move_pattern
from repro.arch.masks import RangeMask
from repro.backend.base import BilledBackend
from repro.driver.program import config_fingerprint
from repro.driver.stream import MacroStream
from repro.faults.checksum import ChecksumError, region_checksums
from repro.isa.instructions import (
    Instruction,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
)
from repro.sim.simulator import SimulationError
from repro.sim.stats import SimStats

_WORD_MASK = np.uint64(0xFFFFFFFF)
_EXP_MASK = np.uint32(0x7F800000)
_SIGN_MASK = np.uint32(0x80000000)


@dataclass(frozen=True, eq=False)
class FunctionalProgram:
    """A compiled macro-instruction stream for the NumPy backend.

    The functional twin of :class:`~repro.driver.program.MicroProgram`:
    ``instructions`` replay as vectorized NumPy updates, while
    ``stats_delta`` holds the micro-op accounting of the (optionally
    peephole-optimized) lowered stream, precomputed once at compile time
    so replay charges the exact cycles the simulator backend would.
    """

    instructions: Tuple[Instruction, ...]
    name: str
    config_fingerprint: Tuple[int, int, int, int, int]
    stats_delta: SimStats
    macros: int
    #: Micro-ops of the lowered stream before the peephole passes ran —
    #: the pre- vs post-optimization instruction count this backend
    #: reports (same name and meaning as ``MicroProgram.source_ops``).
    source_ops: int = 0

    def __len__(self) -> int:
        return self.stats_delta.micro_ops


class NumpyBackend(BilledBackend):
    """Functional macro-instruction execution with simulator cycle counts.

    Accepts the same keyword arguments as the driver (``parallelism``
    changes which lowering — and therefore which cycle counts — are
    charged; ``cache_size`` bounds the lowering cache) plus the
    simulator's ``move_cost`` model. ``guard`` is accepted for interface
    parity and ignored (there is no gate level to guard).
    """

    name = "numpy"

    def __init__(
        self,
        config: PIMConfig,
        move_cost: str = "unit",
        guard: bool = False,
        **driver_kwargs,
    ):
        super().__init__(config, move_cost, **driver_kwargs)
        if config.word_size != 32:
            raise ValueError("the numpy backend models 32-bit words only")
        self._words = np.zeros(
            (config.crossbars, config.registers, config.rows), dtype=np.uint32
        )
        # Replay plans for compiled programs (pre-resolved per-instruction
        # closures), dropped automatically when a program is collected.
        self._plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Validated (warp_mask, dist) -> source-warp index array, shared by
        # every move (eager or planned) with the same pattern.
        self._move_cache: Dict[Tuple, np.ndarray] = {}
        # Installed fault overlay (None = fault-free), ticked once per
        # dispatch unit exactly like the driver's — see repro.faults.
        self._fault_overlay = None
        self._verify_checks = 0
        self._verify_detected = 0

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        return self._words

    def execute(self, instr: Instruction) -> Optional[int]:
        delta = self._eager_delta(instr)
        result = self._apply(instr)
        self._stats.merge(delta)
        if self._fault_overlay is not None:
            self._fault_overlay.tick()
        return result

    def compile(
        self,
        instructions: Sequence[Instruction],
        name: str = "stream",
        optimize: bool = True,
    ) -> FunctionalProgram:
        """Compile a stream: lower once (through the real driver, with the
        peephole passes when ``optimize``) purely to fix the cycle bill,
        and keep the macro-instructions for functional replay."""
        instrs = tuple(instructions)
        micro = self.lowering.compile(list(instrs), name=name, optimize=optimize)
        delta = micro.bill(self.config).billed(self.move_cost)
        return FunctionalProgram(
            instrs, name, config_fingerprint(self.config), delta, len(instrs),
            source_ops=micro.source_ops,
        )

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
        self._stats.merge(program.stats_delta)
        if verify is not None:
            self._verify_replay(program)
        elif self._fault_overlay is not None:
            self._fault_overlay.tick()
        return response

    def _verify_replay(self, program: FunctionalProgram) -> None:
        """The driver's checksum protocol at macro-region granularity."""
        regions = self._program_regions(program)
        self._verify_checks += 1
        before = region_checksums(self._words, regions)
        if self._fault_overlay is not None:
            self._fault_overlay.tick()
        after = region_checksums(self._words, regions)
        if after != before:
            self._verify_detected += 1
            bad = tuple(
                region
                for region, b, a in zip(regions, before, after)
                if b != a
            )
            raise ChecksumError(program.name, bad)

    def _program_regions(self, program: FunctionalProgram):
        """Written regions of the macro stream, memoized on the program.

        The functional model writes only the architectural destinations
        (no scratch staging), so regions come straight from the macro
        instructions rather than a micro-op walk.
        """
        cached = program.__dict__.get("_verify_regions")
        if cached is not None:
            return cached
        cfg = self.config
        seen = set()
        regions = []

        def add(reg, warp_mask, rows):
            wm = warp_mask or RangeMask.all(cfg.crossbars)
            region = (reg, (wm.start, wm.stop, wm.step), rows)
            if region not in seen:
                seen.add(region)
                regions.append(region)

        def row_range(row_mask):
            rm = row_mask or RangeMask.all(cfg.rows)
            return (rm.start, rm.stop, rm.step)

        for instr in program.instructions:
            if isinstance(instr, RInstr):
                add(instr.dest, instr.warp_mask, row_range(instr.row_mask))
            elif isinstance(instr, WriteInstr):
                add(instr.reg, instr.warp_mask, row_range(instr.row_mask))
            elif isinstance(instr, MoveInstr):
                wm = instr.warp_mask or RangeMask.all(cfg.crossbars)
                shifted = (
                    wm.start + instr.warp_dist,
                    wm.stop + instr.warp_dist,
                    wm.step,
                )
                add_region = (
                    instr.dst_reg,
                    shifted,
                    (instr.dst_thread, instr.dst_thread, 1),
                )
                if add_region not in seen:
                    seen.add(add_region)
                    regions.append(add_region)
        cached = tuple(regions)
        program.__dict__["_verify_regions"] = cached
        return cached

    def install_faults(self, plan):
        """Bind a fault plan's cell faults to the functional word image."""
        overlay = plan.overlay_for(self._words, self.config)
        self._fault_overlay = overlay
        return overlay

    def fault_counters(self) -> Dict[str, int]:
        counters = {}
        if self._fault_overlay is not None:
            counters.update(self._fault_overlay.counters)
        if self._verify_checks:
            counters["verify_checks"] = self._verify_checks
        if self._verify_detected:
            counters["verify_detected"] = self._verify_detected
        return counters

    def run_stream(
        self, instructions: Sequence[Instruction], name: str = "stream"
    ) -> Optional[int]:
        """Emit a whole stream through one cached ``FunctionalProgram``.

        Billed as the sum of the per-instruction deltas :meth:`execute`
        charges (see :meth:`Backend.stream_stats`): no lowered
        ``MicroProgram`` is built or kept (in memory or in ``cache_dir``)
        for a stream that only ever replays as NumPy updates.
        """
        instrs = MacroStream.wrap(instructions)
        if not instrs:
            return None
        key = (instrs, name)
        program = self._stream_programs.get(key)
        if program is None:
            delta = SimStats()
            for instr in instrs:
                delta.merge(self._instr_delta(instr))
            program = FunctionalProgram(
                instrs, name, config_fingerprint(self.config), delta,
                len(instrs), source_ops=delta.micro_ops,
            )
            if len(self._stream_programs) < 4096:
                self._stream_programs[key] = program
        self._emit_counters["stream"] += 1
        return self.run_program(program)

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
            src_reg, dst_reg = instr.src_reg, instr.dst_reg
            src_row, dst_row = instr.src_thread, instr.dst_thread
            if len(sources) == 1:
                sw = int(sources[0])
                dw = sw + instr.warp_dist

                def single_move():
                    words[dw, dst_reg, dst_row] = words[sw, src_reg, src_row]

                return single_move
            dests = sources + instr.warp_dist

            def move_step(sources=sources, dests=dests):
                words[dests, dst_reg, dst_row] = words[sources, src_reg, src_row]

            return move_step
        raise SimulationError(f"not an instruction: {instr!r}")

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def _apply(self, instr: Instruction) -> Optional[int]:
        if isinstance(instr, RInstr):
            self._apply_rtype(instr)
            return None
        if isinstance(instr, WriteInstr):
            self._region(instr.reg, instr.warp_mask, instr.row_mask)[...] = (
                np.uint32(instr.value)
            )
            return None
        if isinstance(instr, ReadInstr):
            return int(self._words[instr.warp, instr.reg, instr.thread])
        if isinstance(instr, MoveInstr):
            self._apply_move(instr)
            return None
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

        Memoized per ``(warp_mask, dist)``; shared, read-only, by eager
        moves and every replay step built from the same pattern.
        """
        warps = instr.warp_mask or RangeMask.all(self.config.crossbars)
        key = (warps, instr.warp_dist)
        sources = self._move_cache.get(key)
        if sources is None:
            if instr.warp_dist:
                try:
                    validate_move_pattern(
                        warps, instr.warp_dist, self.config.crossbars
                    )
                except ValueError as exc:
                    raise SimulationError(str(exc)) from exc
            sources = np.fromiter(warps.indices(), dtype=np.int64)
            if len(self._move_cache) < 65536:
                self._move_cache[key] = sources
        return sources

    def _apply_move(self, instr: MoveInstr) -> None:
        sources = self._move_sources(instr)
        self._words[sources + instr.warp_dist, instr.dst_reg, instr.dst_thread] = (
            self._words[sources, instr.src_reg, instr.src_thread]
        )

    def _apply_rtype(self, instr: RInstr) -> None:
        out = self._region(instr.dest, instr.warp_mask, instr.row_mask)
        srcs = [
            self._region(reg, instr.warp_mask, instr.row_mask)
            for reg in instr.sources()
        ]
        with np.errstate(all="ignore"):
            if instr.dtype.is_float:
                result = _float_op(instr.op, srcs)
            else:
                result = _int_op(instr.op, srcs)
        out[...] = result


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
