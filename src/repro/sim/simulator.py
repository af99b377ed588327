"""Cycle-by-cycle execution of micro-operations on the packed memory image.

The simulator interacts with the rest of the stack only through
:meth:`Simulator.execute` (plus read responses), satisfying the paper's
cycle-accurate-simulation standard: operations are modeled one at a time
with the same semantics a memristive chip would apply, including the
stateful-logic constraint that an output memristor can only be pulled from
logical 1 to logical 0 (so outputs must be ``INIT1``-ed first, and those
cycles are counted).
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from time import perf_counter
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.arch.config import PIMConfig, config_fingerprint
from repro.arch.htree import move_cycles, validate_move_pattern
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicHOp,
    LogicVOp,
    MicroOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    WriteOp,
    write_value_bits,
)
from repro.sim import replay
from repro.sim.memory import CrossbarMemory
from repro.sim.replay import _pattern_mask  # noqa: F401  (re-export)
from repro.sim.stats import SimStats


class SimulationError(Exception):
    """Raised when a micro-operation is invalid for the current state."""


class GateTally(NamedTuple):
    """A stretch of horizontal gates as :func:`accounting_walk` bills it in
    bulk: ops per :class:`GateType`, then the gates their patterns encode
    per masked row — column sums over operation words (``MicroProgram.bill``)."""

    init0: int
    init1: int
    not_: int
    nor: int
    gates: int

    @classmethod
    def of_bill(cls, bill: SimStats, config: PIMConfig) -> "GateTally":
        """A bill of horizontal gates only (an R-type body's, walked under
        masks that select every row) as one tally."""
        counts = bill.op_counts
        return cls(*(counts.get(key, 0) for key in _GATE_KEYS_H.values()),
                   bill.gates_executed // config.total_rows)


_GATE_KEYS_H = {gate: f"logic_h_{gate.name.lower()}" for gate in GateType}
_GATE_KEYS_V = {gate: f"logic_v_{gate.name.lower()}" for gate in GateType}


def _check_row(config: PIMConfig, row: int) -> None:
    if not 0 <= row < config.rows:
        raise SimulationError(f"row {row} out of range")


@lru_cache(maxsize=1024)
def checked_move_cycles(xb: RangeMask, dist: int, crossbars: int) -> int:
    """The H-tree latency of a move pattern the chip accepts; a pattern
    it refuses raises :class:`SimulationError` (only accepted patterns
    are remembered). A plan-less move is checked twice, by the driver's
    walk and by the chip, so every pattern repeats."""
    try:
        validate_move_pattern(xb, dist, crossbars)
    except ValueError as exc:
        raise SimulationError(str(exc)) from exc
    return max(1, move_cycles(xb, dist, crossbars))


def accounting_walk(
    ops: Iterable[MicroOp],
    config: PIMConfig,
    xb: Optional[RangeMask] = None,
    row: Optional[RangeMask] = None,
) -> SimStats:
    """Charge a micro-op stream with the chip's accounting rules, statically.

    The single source of truth for how streams are billed without
    running them: mask state is tracked as the chip would track it
    (``xb`` / ``row`` default to a fresh chip's all-selected masks),
    horizontal gates scale with the active rows, and an op the chip
    would refuse (mask range, row range, H-tree pattern, read shape)
    raises :class:`SimulationError` like live execution. A stretch of
    gates may come as one :class:`GateTally` in place of its ops. A
    compiled program is billed once
    (:meth:`repro.driver.program.MicroProgram.bill`).
    """
    delta = SimStats()
    xb = xb or RangeMask.all(config.crossbars)
    row = row or RangeMask.all(config.rows)
    # Horizontal gates are nearly every op of a stream: they are tallied
    # in locals and folded into ``delta`` once after the loop, and
    # ``lanes`` (masked crossbars x rows) is recomputed at mask changes.
    lanes = len(xb) * len(row)
    h_counts = dict.fromkeys(GateType, 0)
    h_gates = 0
    for op in ops:
        if isinstance(op, LogicHOp):
            h_gates += lanes * _pattern_mask(
                op.gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step,
                config.partitions,
            )[1]
            h_counts[op.gate] += 1
        elif isinstance(op, GateTally):
            for gate, count in zip(GateType, op):
                h_counts[gate] += count
            h_gates += lanes * op.gates
        elif isinstance(op, CrossbarMaskOp):
            if op.stop >= config.crossbars:
                raise SimulationError("crossbar mask out of range")
            xb = RangeMask(op.start, op.stop, op.step)
            lanes = len(xb) * len(row)
            delta.record("mask_crossbar")
        elif isinstance(op, RowMaskOp):
            if op.stop >= config.rows:
                raise SimulationError("row mask out of range")
            row = RangeMask(op.start, op.stop, op.step)
            lanes = len(xb) * len(row)
            delta.record("mask_row")
        elif isinstance(op, LogicVOp):
            _check_row(config, op.out_row)
            if op.gate == GateType.NOT:
                _check_row(config, op.in_row)
            delta.record(
                _GATE_KEYS_V[op.gate], gates=config.partitions * len(xb)
            )
        elif isinstance(op, MoveOp):
            _check_row(config, op.src_row)
            _check_row(config, op.dst_row)
            delta.htree_hop_cycles += checked_move_cycles(
                xb, op.dist, config.crossbars) - 1
            delta.record("move")
        elif isinstance(op, ReadOp):
            if len(xb) != 1 or len(row) != 1:
                raise SimulationError(
                    "read requires masks selecting a single row of a single crossbar"
                )
            delta.record("read")
        elif isinstance(op, WriteOp):
            delta.record("write")
        else:
            raise SimulationError(f"unknown micro-operation {op!r}")
    delta.merge(SimStats(
        {_GATE_KEYS_H[gate]: n for gate, n in h_counts.items() if n},
        gates_executed=h_gates,
    ))
    return delta


class ReplayPlan(NamedTuple):
    """What the simulator memoizes per program on first sight: plain data.

    Attributes:
        steps: the vectorized replay records, in program order
            (:func:`repro.sim.replay.materialise`): a
            :class:`~repro.sim.replay.CopyRun` per stretch of
            word-granular steps, a :class:`~repro.sim.replay.GateRun` or
            :class:`~repro.sim.replay.PlaneRun` per other gate super-step,
            a :class:`~repro.sim.replay.ReadStep` per read — or ``None``
            when the program replays through the reference.
        static_stats: the per-replay stats delta — the bill the program
            carries — merged once per vectorized replay. ``None`` (and
            then no ``steps`` either) when the program is not self-masked
            or an op of it must raise.
        build_ms: host milliseconds this process paid for it (a
            ``"loaded"`` plan: the entry's load plus making its records).
        source: ``"derived"`` from the words, or ``"loaded"`` from an entry.
        masks: the crossbar and row masks a replay leaves set (``None``:
            the program sets none of that kind).
    """

    steps: Optional[tuple]
    static_stats: Optional[SimStats]
    build_ms: float = 0.0
    source: str = "derived"
    masks: tuple = (None, None)


class Simulator:
    """A bit-accurate digital PIM chip model.

    Every micro-operation is one cycle; a move's H-tree latency beyond
    its cycle (one per traversed segment of the longest pair) is
    itemized in ``stats.htree_hop_cycles``.

    Args:
        config: the architecture parameters.

    Compiled programs replay through :meth:`execute_program`, which picks
    between exactly two routes from what it can observe of the program;
    there is no engine setting.
    """

    def __init__(self, config: PIMConfig):
        self.config = config
        self.memory = CrossbarMemory(config)
        self.stats = SimStats()
        #: Program replays served per route (``pim.Profiler`` reports
        #: deltas): fused ``"vectorized"`` plans, or the op-by-op
        #: ``"reference"`` loop over :meth:`execute`.
        self.replay_counters = {"vectorized": 0, "reference": 0}
        self._xb_mask = RangeMask.all(config.crossbars)
        self._row_mask = RangeMask.all(config.rows)
        # One :class:`ReplayPlan` per compiled program, built once and
        # dropped automatically when the program is garbage-collected.
        self._plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: Bit-plane run bodies by gate words, shared by those plans and
        #: dropped with the last of them.
        self._plane_bodies: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def execute(self, op: MicroOp) -> Optional[int]:
        """Execute one micro-operation; returns the word for reads."""
        if isinstance(op, CrossbarMaskOp):
            return self._exec_xb_mask(op)
        if isinstance(op, RowMaskOp):
            return self._exec_row_mask(op)
        if isinstance(op, ReadOp):
            return self._exec_read(op)
        if isinstance(op, WriteOp):
            return self._exec_write(op)
        if isinstance(op, LogicHOp):
            return self._exec_logic_h(op)
        if isinstance(op, LogicVOp):
            return self._exec_logic_v(op)
        if isinstance(op, MoveOp):
            return self._exec_move(op)
        raise SimulationError(f"unknown micro-operation {op!r}")

    def execute_all(self, ops: Iterable[MicroOp]) -> None:
        """Execute a batch of micro-operations (no read responses)."""
        for op in ops:
            self.execute(op)

    def execute_program(self, program) -> Optional[int]:
        """Replay a compiled :class:`~repro.driver.program.MicroProgram`.

        Two outcomes, chosen per program on first sight and memoized:

        - *self-masked* programs (every gate, move and read runs under
          masks the program itself set — true of everything the driver
          emits), of either word format and any region width, replay
          through a vectorized :class:`ReplayPlan` and one static stats
          merge;
        - anything else (hand-built programs relying on caller-set
          masks, a static walk that finds an op that must raise) is a
          plain loop over :meth:`execute`, the op-by-op reference.

        Either way memory, profiling counters and raised errors are
        exactly those of op-by-op execution. Returns the response word
        of the last :class:`ReadOp` (``None`` if there are no reads).
        """
        plan = self._plan(program)
        response: Optional[int] = None
        if plan.steps is None:
            self.replay_counters["reference"] += 1
            for op in program.ops:
                result = self.execute(op)
                if result is not None:
                    response = result
            return response
        self.replay_counters["vectorized"] += 1
        memory = self.memory
        for step in plan.steps:  # every record holds the masks it runs under
            result = step(memory)
            if result is not None:
                response = result
        xb, row = plan.masks
        self._xb_mask = self._xb_mask if xb is None else xb
        self._row_mask = self._row_mask if row is None else row
        self.stats.merge(plan.static_stats)
        return response

    # ------------------------------------------------------------------
    # Replay-plan construction
    # ------------------------------------------------------------------
    def replay_plan(self, program) -> Optional[ReplayPlan]:
        """The program's vectorized plan, or ``None`` (reference replay).

        Built on first sight of the program and memoized on it.
        """
        plan = self._plan(program)
        return None if plan.steps is None else plan

    def _plan(self, program) -> ReplayPlan:
        try:
            return self._plans[program]
        except KeyError:  # the snapshot holds the bodies it knows alive
            return self._compile_plan(program, dict(self._plane_bodies.items()))[0]

    def plan_columns(self, program, columns=None, spent_ms: float = 0.0):
        """Memoize ``program``'s plan, derived whole or made from stored
        ``columns`` (``spent_ms`` paid for them), and return its columns:
        what a persistent entry stores beside the words (``None``: no plan)."""
        return self._compile_plan(program, {}, columns, spent_ms)[1]

    def _compile_plan(self, program, known, columns=None, spent_ms: float = 0.0):
        if program.config_fingerprint != config_fingerprint(self.config):
            raise SimulationError(
                f"program {program.name!r} was compiled for fingerprint "
                f"{program.config_fingerprint}, this chip is "
                f"{config_fingerprint(self.config)}"
            )
        start = perf_counter()
        source = "derived" if columns is None else "loaded"
        steps = static_stats = None
        masks = (None, None)
        if program.self_masked:
            try:
                static_stats = program.bill(self.config)
            except SimulationError:
                pass  # an op must raise: the reference loop raises it, at the op
        if static_stats is not None:
            if columns is None:
                columns = replay.plan_columns(program, self.config, known)
            steps, masks = replay.materialise(
                columns, program, self.config, self.memory, self._plane_bodies
            )
        build_ms = spent_ms + 1e3 * (perf_counter() - start)
        plan = self._plans[program] = ReplayPlan(
            steps, static_stats, build_ms, source, masks)
        return plan, None if steps is None else columns

    @property
    def crossbar_mask(self) -> RangeMask:
        """The currently selected crossbars."""
        return self._xb_mask

    @property
    def row_mask(self) -> RangeMask:
        """The currently selected rows."""
        return self._row_mask

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.config.registers:
            raise SimulationError(f"intra-row index {index} out of range")

    def _reg_region(self, reg: int) -> np.ndarray:
        """Masked (crossbars, rows) view of one register's words."""
        return self.memory.region(self._xb_mask, reg, self._row_mask)

    def _shift(self, words: np.ndarray, amount: int) -> np.ndarray:
        """Shift packed words by a (possibly negative) partition offset."""
        dtype = self.memory.dtype
        if amount >= 0:
            return (words << dtype.type(amount)) & self.memory.word_mask
        return words >> dtype.type(-amount)

    # ------------------------------------------------------------------
    # Operation implementations
    # ------------------------------------------------------------------
    def _exec_xb_mask(self, op: CrossbarMaskOp) -> None:
        if op.stop >= self.config.crossbars:
            raise SimulationError("crossbar mask out of range")
        self._xb_mask = RangeMask(op.start, op.stop, op.step)
        self.stats.record("mask_crossbar")

    def _exec_row_mask(self, op: RowMaskOp) -> None:
        if op.stop >= self.config.rows:
            raise SimulationError("row mask out of range")
        self._row_mask = RangeMask(op.start, op.stop, op.step)
        self.stats.record("mask_row")

    def _exec_read(self, op: ReadOp) -> int:
        self._check_index(op.index)
        if len(self._xb_mask) != 1 or len(self._row_mask) != 1:
            raise SimulationError(
                "read requires masks selecting a single row of a single crossbar"
            )
        self.stats.record("read")
        return self.memory.get_word(
            self._xb_mask.start, self._row_mask.start, op.index
        )

    def _exec_write(self, op: WriteOp) -> None:
        self._check_index(op.index)
        if op.value >> write_value_bits(self.config.word_size):
            raise SimulationError("write value exceeds word size")
        self._reg_region(op.index)[...] = self.memory.dtype.type(op.value)
        self.stats.record("write")

    def _exec_logic_h(self, op: LogicHOp) -> None:
        cfg = self.config
        for index in (op.in_a, op.in_b, op.out):
            self._check_index(index)
        out_mask_int, gate_count = _pattern_mask(
            op.gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step,
            cfg.partitions,
        )
        dtype = self.memory.dtype
        out_mask = dtype.type(out_mask_int)

        out_region = self._reg_region(op.out)
        if op.gate == GateType.INIT1:
            out_region |= out_mask
        elif op.gate == GateType.INIT0:
            out_region &= ~out_mask
        elif op.gate == GateType.NOT:
            pull = self._shift(self._reg_region(op.in_a), op.p_out - op.p_a)
            out_region &= ~(pull & out_mask)
        else:  # NOR
            a = self._shift(self._reg_region(op.in_a), op.p_out - op.p_a)
            b = self._shift(self._reg_region(op.in_b), op.p_out - op.p_b)
            out_region &= ~((a | b) & out_mask)

        active = len(self._xb_mask) * len(self._row_mask)
        self.stats.record(_GATE_KEYS_H[op.gate], gates=gate_count * active)

    def _exec_logic_v(self, op: LogicVOp) -> None:
        self._check_index(op.index)
        _check_row(self.config, op.out_row)
        if op.gate == GateType.NOT:
            _check_row(self.config, op.in_row)
        xm = self._xb_mask
        column = self.memory.words[xm.start : xm.stop + 1 : xm.step, op.index, :]
        if op.gate == GateType.INIT1:
            column[:, op.out_row] = self.memory.word_mask
        elif op.gate == GateType.INIT0:
            column[:, op.out_row] = 0
        else:  # NOT
            column[:, op.out_row] &= ~column[:, op.in_row]
        self.stats.record(
            _GATE_KEYS_V[op.gate],
            gates=self.config.partitions * len(self._xb_mask),
        )

    def _exec_move(self, op: MoveOp) -> None:
        cfg = self.config
        self._check_index(op.src_index)
        self._check_index(op.dst_index)
        _check_row(self.config, op.src_row)
        _check_row(self.config, op.dst_row)
        latency = checked_move_cycles(self._xb_mask, op.dist, cfg.crossbars)
        # Index arrays, not the plan's slice views (``replay.materialise``):
        # the reference stays an independent statement of the move.
        sources = np.fromiter(self._xb_mask.indices(), dtype=np.int64)
        self.memory.words[sources + op.dist, op.dst_index, op.dst_row] = (
            self.memory.words[sources, op.src_index, op.src_row]
        )
        self.stats.htree_hop_cycles += latency - 1
        self.stats.record("move")
