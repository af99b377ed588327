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
  one arbitrary-precision integer, a *lane* per word exactly as wide as
  the memory dtype (:meth:`~repro.sim.memory.CrossbarMemory.pack_lanes`
  — the region's own bytes), gate-pattern bitmasks are replicated
  across the lanes once, and each gate becomes a handful of
  whole-region bitwise operations on non-negative integers —
  ``v ^ (v & pull & out_mask)``, bit for bit the ``out &= gate(inputs)``
  1→0 stateful-logic update, applied to every masked crossbar and row
  in one arithmetic operation. Lanes need no guard space and shifts no
  re-masking: what a partition shift spills into the neighbouring lane
  can never be selected by the gate's own out-mask (the argument, and
  its check, are in :func:`_pattern_mask`);
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
graphs all replay this way, on ``uint32`` and ``uint64``
(``word_size > 32``) words alike.

One rule (``Simulator.execute_program``): **plan → vectorized replay;
otherwise a loop over ``Simulator.execute``**, the op-by-op reference.
A program has no plan when it is not self-masked (a hand-built program
running under caller-set masks), when an op of it must raise, or when
its gate runs are so wide that lane programs lose to op-by-op NumPy
(:func:`lanes_pay_off`). There is no engine setting.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from repro.arch.halfgates import pattern_outputs
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import GateType, LogicHOp
from repro.sim.memory import CrossbarMemory


#: Mean lanes per gate (masked crossbars x rows, weighted by run length)
#: up to which a lane program beats op-by-op NumPy. Measured on the fp-add
#: body (5617 micro-ops, eager ``x + y``) from 4x16 to 64x1024, us per
#: micro-op as a dense-lane big integer against five NumPy calls on the
#: strided view: 0.33 vs 7.6 at 64 lanes, 1.8 vs 10.0 at 1024, 3.6 vs
#: 11.2 at 2048, 9.0 vs 18.0 at 4096 (2.0x ahead), 13.3 vs 15.9 at 8192
#: (1.2x — inside run-to-run spread), 29 vs 31 at 16384, 138 vs 116 at
#: 65536 (0.84x). The bound is the widest point with a clear win.
MAX_MEAN_LANES = 4096


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

    Pattern validation (section disjointness, partition ranges) and the
    mask itself come from :func:`~repro.arch.halfgates.pattern_outputs`,
    the memoized ``expand_pattern`` stream validation shares; patterns
    repeat constantly across a program, so the lane check below is
    cached on the same fields.

    Also checks what lets :class:`GateRun` pack words into lanes with no
    guard space between them: *a shifted input never carries a foreign
    bit into a selected position*. Every gate of a pattern shares one
    shift per input, ``s = p_out - p_in``, and every out-partition is
    ``p_in + s`` with ``0 <= p_in < partitions <= W`` (``W`` the lane
    width, the dtype's bits). A left shift by ``s`` spills the previous
    lane's top bits into bits ``[0, s)``, but every out-partition is
    ``>= s``; a right shift by ``s`` brings the next lane's low bits
    into ``[W - s, W)``, but every out-partition is ``<= partitions - 1
    - s``. So ``shifted & out_mask`` is spill-free for any pattern
    ``expand_pattern`` accepts; the check below (against
    ``partitions``, the tighter bound) turns a violation of that
    argument into an error instead of silent cross-lane corruption.
    """
    mask, count = pattern_outputs(
        gate, p_a, p_b, p_out, p_end, p_step, partitions
    )
    inputs = {GateType.NOR: (p_a, p_b), GateType.NOT: (p_a,)}.get(gate, ())
    for shift in (p_out - p_in for p_in in inputs):
        spill = (mask & ((1 << shift) - 1) if shift > 0
                 else mask >> (partitions + shift))
        if spill:
            from repro.sim.simulator import SimulationError  # import cycle

            op = LogicHOp(gate, 0, 0, 0, p_a=p_a, p_b=p_b, p_out=p_out,
                          p_end=p_end, p_step=p_step)
            raise SimulationError(
                f"out-mask {mask:#x} of {op} meets the lane spill window "
                f"of partition shift {shift}"
            )
    return mask, count


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
        rep_cache: Dict[int, Dict[int, int]],
    ):
        self.memory = memory
        self.xb = xb
        self.row = row
        lanes = len(xb) * len(row)
        width = 8 * memory.dtype.itemsize
        # Bit 0 of every lane: ``mask * unit`` replicates a (< 2**width)
        # mask into all of them.
        unit = ((1 << width * lanes) - 1) // ((1 << width) - 1)
        word_mask = int(memory.word_mask)
        reps = rep_cache.setdefault(lanes, {})  # mask -> replicated mask
        steps: List[Tuple] = []
        touched: Dict[int, bool] = {}  # reg -> written (order = first touch)
        for op in ops:
            gate = op.gate
            mask, _ = _pattern_mask(
                gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step, partitions
            )
            if gate == GateType.INIT0:
                # An AND-mask, built from the word mask (not an all-ones
                # lane) so ``word_size`` < dtype bits stays exact.
                mask ^= word_mask
            out_mask = reps.get(mask)
            if out_mask is None:
                out_mask = reps[mask] = mask * unit
            if gate == GateType.NOR:
                touched.setdefault(op.in_a, False)
                touched.setdefault(op.in_b, False)
                steps.append((_NOR, op.out, op.in_a, op.p_out - op.p_a,
                              op.in_b, op.p_out - op.p_b, out_mask))
            elif gate == GateType.NOT:
                touched.setdefault(op.in_a, False)
                steps.append(
                    (_NOT, op.out, op.in_a, op.p_out - op.p_a, out_mask)
                )
            else:
                kind = _INIT1 if gate == GateType.INIT1 else _INIT0
                steps.append((kind, op.out, out_mask))
            touched[op.out] = True
        self.steps = tuple(steps)
        self.regs = tuple(touched)
        self.written = tuple(r for r, dirty in touched.items() if dirty)

    def __call__(self) -> None:
        memory, xb, row = self.memory, self.xb, self.row
        state = {reg: memory.pack_lanes(xb, reg, row) for reg in self.regs}
        # The 1->0 update ``out &= ~(pull & out_mask)`` is written
        # ``v ^ (v & pull & out_mask)``: the same bits from three
        # non-negative operations (no big-integer negation), and the AND
        # with ``v`` bounds a left-shifted ``pull`` to the region's bits.
        for step in self.steps:
            kind = step[0]
            if kind == _NOR:
                _, out, a, s_a, b, s_b, out_mask = step
                t_a = state[a]
                if s_a > 0:
                    t_a <<= s_a
                elif s_a < 0:
                    t_a >>= -s_a
                t_b = state[b]
                if s_b > 0:
                    t_b <<= s_b
                elif s_b < 0:
                    t_b >>= -s_b
                value = state[out]
                state[out] = value ^ (value & (t_a | t_b) & out_mask)
            elif kind == _NOT:
                _, out, a, s_a, out_mask = step
                t_a = state[a]
                if s_a > 0:
                    t_a <<= s_a
                elif s_a < 0:
                    t_a >>= -s_a
                value = state[out]
                state[out] = value ^ (value & t_a & out_mask)
            elif kind == _INIT1:
                state[step[1]] |= step[2]
            else:  # _INIT0
                state[step[1]] &= step[2]
        for reg in self.written:
            memory.unpack_lanes(xb, reg, row, state[reg])


def build_vector_steps(program, simulator) -> List[Callable]:
    """Lower a self-masked program into vectorized replay steps.

    Gate runs (of any length) become :class:`GateRun` instances; every
    other op keeps the simulator's pre-resolved silent step. The caller
    guarantees the program is self-masked (its static stats delta
    exists — so every gate sits in a run) and :func:`lanes_pay_off`
    holds.
    """
    # Replicated lane masks are shared by the runs of one plan (programs
    # reuse a small set of gate patterns); they depend on the lane width,
    # so never across simulators.
    rep_cache: Dict[int, Dict[int, int]] = {}  # lanes -> mask -> replicated
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
                    rep_cache=rep_cache,
                )
            )
        else:
            steps.extend(simulator._plan_step(op, segment.xb) for op in ops)
    return steps
