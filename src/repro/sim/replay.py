"""Vectorized replay: micro-op super-steps as bulk updates.

This is the execution-layer payoff of the compile/replay pipeline.
Op-by-op execution costs several NumPy dispatches per horizontal gate on
a tiny ``(crossbars, rows)`` view, so the host — not the modeled chip —
dominates wall-clock. Following the paper's own simulator trick
(Figure 6 / section V: pack partition bits into strided words so
partition-parallel logic becomes bitwise word arithmetic), replay plans
extend the packing one level further:

- a validated program is sliced into *super-steps*
  (:attr:`~repro.driver.program.MicroProgram.super_steps`): maximal runs
  of ``LogicHOp``\\ s between mask/read/write/vertical/move boundaries,
  each run under statically-known masks;
- at plan-compile time every run is lowered to a short straight-line
  *lane program*: each touched register's masked region is packed into
  one guard-laned arbitrary-precision integer
  (:meth:`~repro.sim.memory.CrossbarMemory.pack_lanes`), gate-pattern
  bitmasks are replicated across the lanes once, and each gate becomes a
  handful of whole-region bitwise operations with the destination updated
  by AND-accumulation — exactly the ``out &= gate(inputs)`` 1→0
  stateful-logic semantics, applied to every masked crossbar and row in
  one arithmetic operation;
- at replay time a run packs its registers, interprets the lane program,
  and writes the (provably in-range) results back through the same
  strided views op-by-op execution updates.

The result is bit-identical to op-by-op execution at every operation
boundary — runs contain no observable point (no reads, no mask changes)
— and cycle accounting is untouched: plans exist only for *self-masked*
programs, whose per-replay :class:`~repro.sim.stats.SimStats` delta is
established statically and merged once per replay. Everything the
driver emits is self-masked by construction — every spliced instruction
re-establishes its masks first — so eager macros, streams and compiled
graphs all replay this way.

One rule (``Simulator.execute_program``): **plan → vectorized replay;
otherwise a loop over ``Simulator.execute``**, the op-by-op reference.
A program has no plan when it is not self-masked (a hand-built program
running under caller-set masks), when an op of it must raise, when the
word format is wider than the packed ``uint32`` lanes
(``word_size > 32``), or when its gate runs are so wide that lane
programs lose to op-by-op NumPy (:func:`lanes_pay_off`). There is no
engine setting.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.arch.halfgates import expand_pattern
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import GateType, LogicHOp
from repro.sim.memory import CrossbarMemory


def lanes_supported(memory: CrossbarMemory) -> bool:
    """Whether the memory's word format fits 64-bit guard lanes.

    True for ``word_size <= 32`` (the packed ``uint32`` format): a word
    and its largest partition shift stay inside 64 bits. Wider words
    replay op-by-op.
    """
    return memory.dtype == np.dtype(np.uint32)


#: Mean lanes per gate (masked crossbars x rows, weighted by run length)
#: up to which a lane program beats op-by-op NumPy. Measured on the fp-add
#: body from 4x16 to 64x1024: a gate costs ~0.3 us + ~7 ns/lane as a
#: guard-laned big integer against ~9 us + ~1.6 ns/lane as five NumPy
#: calls on a ``uint32`` view (half the bytes, no pack/unpack) — 1.9x
#: ahead at 1024 lanes, 1.6x behind at 4096, 4.3x behind at 65536.
MAX_MEAN_LANES = 2048


def lanes_pay_off(program) -> bool:
    """Whether the program's gate runs are narrow enough to vectorize.

    Per-op dispatch is a fixed cost per gate while lane arithmetic grows
    with the masked region, so the choice follows the region size the
    program itself fixes: see :data:`MAX_MEAN_LANES`.
    """
    gates = lanes = 0
    for segment in program.super_steps:
        if segment.kind == "gates":
            width = len(RangeMask(*segment.xb)) * len(RangeMask(*segment.row))
            gates += len(segment)
            lanes += len(segment) * width
    return lanes <= MAX_MEAN_LANES * gates


@lru_cache(maxsize=65536)
def _pattern_mask(
    gate: GateType,
    p_a: int,
    p_b: int,
    p_out: int,
    p_end: int,
    p_step: int,
    partitions: int,
) -> Tuple[int, int]:
    """(output-partition bitmask, gate count) of a validated pattern.

    Pattern validation (section disjointness, partition ranges) happens in
    :func:`expand_pattern`; patterns repeat constantly across a program, so
    the result is cached on the pattern fields.
    """
    op = LogicHOp(gate, 0, 0, 0, p_a=p_a, p_b=p_b, p_out=p_out,
                  p_end=p_end, p_step=p_step)
    gates = expand_pattern(op, partitions)
    mask = 0
    for _, out_p in gates:
        mask |= 1 << out_p
    return mask, len(gates)


# Lane-program opcodes (see GateRun): constants chosen for dispatch order
# in the hot interpreter loop (NOR first — it dominates real programs).
_NOR, _NOT, _INIT1, _INIT0 = 0, 1, 2, 3


class GateRun:
    """One ``"gates"`` super-step compiled to a lane program.

    Built once per replay plan; calling the instance executes the whole
    run — typically thousands of micro-ops — as pack / interpret /
    unpack over the packed memory image.
    """

    __slots__ = ("memory", "xb", "row", "regs", "written", "steps")

    def __init__(
        self,
        ops: Tuple[LogicHOp, ...],
        xb: RangeMask,
        row: RangeMask,
        memory: CrossbarMemory,
        partitions: int,
        rep_cache: Dict[Tuple[int, int], int],
    ):
        self.memory = memory
        self.xb = xb
        self.row = row
        lanes = len(xb) * len(row)
        word_mask = int(memory.word_mask)

        def rep(mask: int) -> int:
            """``mask`` replicated into every 64-bit lane (memoized)."""
            value = rep_cache.get((lanes, mask))
            if value is None:
                value = int.from_bytes(
                    np.full(lanes, mask, "<u8").tobytes(), "little"
                )
                rep_cache[(lanes, mask)] = value
            return value

        full = rep(word_mask)
        steps: List[Tuple] = []
        touched: Dict[int, bool] = {}  # reg -> written (order = first touch)
        for op in ops:
            out_mask, _ = _pattern_mask(
                op.gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step,
                partitions,
            )
            if op.gate == GateType.INIT1:
                steps.append((_INIT1, op.out, rep(out_mask)))
            elif op.gate == GateType.INIT0:
                steps.append((_INIT0, op.out, rep(word_mask ^ out_mask)))
            elif op.gate == GateType.NOT:
                touched.setdefault(op.in_a, False)
                steps.append(
                    (_NOT, op.out, op.in_a, op.p_out - op.p_a,
                     rep(out_mask), full)
                )
            else:  # NOR
                touched.setdefault(op.in_a, False)
                touched.setdefault(op.in_b, False)
                steps.append(
                    (_NOR, op.out, op.in_a, op.p_out - op.p_a,
                     op.in_b, op.p_out - op.p_b, rep(out_mask), full)
                )
            touched[op.out] = True
        self.steps = tuple(steps)
        self.regs = tuple(touched)
        self.written = tuple(r for r, dirty in touched.items() if dirty)

    def __call__(self) -> None:
        memory, xb, row = self.memory, self.xb, self.row
        state = {reg: memory.pack_lanes(xb, reg, row) for reg in self.regs}
        for step in self.steps:
            kind = step[0]
            if kind == _NOR:
                _, out, a, s_a, b, s_b, out_mask, full = step
                t_a = state[a]
                if s_a > 0:
                    t_a = (t_a << s_a) & full
                elif s_a < 0:
                    t_a = (t_a >> -s_a) & full
                t_b = state[b]
                if s_b > 0:
                    t_b = (t_b << s_b) & full
                elif s_b < 0:
                    t_b = (t_b >> -s_b) & full
                state[out] &= ~((t_a | t_b) & out_mask)
            elif kind == _NOT:
                _, out, a, s_a, out_mask, full = step
                t_a = state[a]
                if s_a > 0:
                    t_a = (t_a << s_a) & full
                elif s_a < 0:
                    t_a = (t_a >> -s_a) & full
                state[out] &= ~(t_a & out_mask)
            elif kind == _INIT1:
                state[step[1]] |= step[2]
            else:  # _INIT0
                state[step[1]] &= step[2]
        for reg in self.written:
            memory.unpack_lanes(xb, reg, row, state[reg])


#: Replicated lane masks are shared across plans and simulators: they
#: depend only on (lane count, mask bits), and programs reuse a small set
#: of gate patterns, so the cache stays small while saving the dominant
#: plan-build cost. Reset wholesale past the bound to stay a cache, not
#: a leak.
_REP_CACHE: Dict[Tuple[int, int], int] = {}
_REP_CACHE_LIMIT = 1 << 16


def build_vector_steps(program, simulator) -> List[Callable]:
    """Lower a self-masked program into vectorized replay steps.

    Gate runs (of any length) become :class:`GateRun` instances; every
    other op keeps the simulator's pre-resolved silent step. The caller
    guarantees the program is self-masked (its static stats delta
    exists — so every gate sits in a run) and :func:`lanes_supported`
    and :func:`lanes_pay_off` hold.
    """
    if len(_REP_CACHE) > _REP_CACHE_LIMIT:
        _REP_CACHE.clear()
    steps: List[Callable] = []
    for segment in program.super_steps:
        ops = program.ops[segment.start : segment.stop]
        if segment.kind == "gates":
            steps.append(
                GateRun(
                    ops,
                    RangeMask(*segment.xb),
                    RangeMask(*segment.row),
                    simulator.memory,
                    simulator.config.partitions,
                    rep_cache=_REP_CACHE,
                )
            )
        else:
            steps.extend(simulator._plan_step(op) for op in ops)
    return steps
