"""Bulk moves as planned streams (``repro.pim.tensor._move_plan``).

A bulk move used to be regrouped element by element on every call and
issued one ``MoveInstr`` at a time; it is now planned once, memoized,
and issued as one ``MacroStream``. This suite pins the new path to the
old one:

- the per-element grouping of the old loop is kept here as the
  reference (:func:`reference_moves`), and the planned stream must be
  exactly the instructions it issued, order included — a run the H-tree
  rejects replaced by its per-warp moves, never attempted;
- a device running the planned stream, eagerly or traced, must leave
  the same memory image, the same ``SimStats`` and the same trace as a
  ``cache_size=0`` device fed the reference sequence one instruction at
  a time, on the simulator, numpy and pooled backends;
- the functional backend's linear stream bill (sum of per-instruction
  deltas) must equal the strict walk of the concatenated lowering, and
  its gather/scatter replay step must fall back to per-move steps
  whenever order matters.

Seeds are pinned; CI's fuzz job rotates them through
``REPRO_FUZZ_SEEDS`` like the differential-fuzz suite.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import small_config
from repro.arch.htree import move_cycles, validate_move_pattern
from repro.arch.micro_ops import CrossbarMaskOp, MoveOp
from repro.arch.masks import RangeMask
from repro.backend import NumpyBackend
from repro.backend.base import BilledProgram, family
from repro.driver.stream import MacroStream
from repro.isa.instructions import MoveInstr
from repro.pim import tensor as tensor_mod
from repro.pim.malloc import Slot
from repro.pim.tensor import _bulk_move, _move_plan, _warp_runs
from repro.sim.simulator import SimulationError, accounting_walk
from repro.sim.stats import SimStats
from tests.driver.test_stream_emission import CFG as STREAM_CFG, random_stream
from tests.integration.test_differential_fuzz import (
    CROSSBARS as FUZZ_CROSSBARS,
    ROWS as FUZZ_ROWS,
    _fresh_inputs,
    _seeds,
    build_case,
    make_program,
)

SEEDS = _seeds()  # pinned, or REPRO_FUZZ_SEEDS

BACKENDS = {
    "simulator": {"backend": "simulator"},
    "numpy": {"backend": "numpy"},
    "pooled": {"backend": "pooled", "workers": 2, "worker_backend": "numpy"},
}


# ----------------------------------------------------------------------
# The reference: the parent commit's per-element grouping
# ----------------------------------------------------------------------
def reference_moves(rows, crossbars, src_reg, src_start, src_elements,
                    dst_reg, dst_start, dst_elements):
    """``_bulk_move`` as it was before plans: every instruction it
    attempted, each flagged with whether the H-tree accepts it (a
    rejected run is followed by its per-warp replacement)."""
    groups = {}
    for src_e, dst_e in zip(src_elements, dst_elements):
        src_warp = src_start + src_e // rows
        dst_warp = dst_start + dst_e // rows
        key = (src_e % rows, dst_e % rows, dst_warp - src_warp)
        groups.setdefault(key, []).append(src_warp)
    attempts: List[Tuple[MoveInstr, bool]] = []
    for (src_thread, dst_thread, dist), warps in groups.items():
        warps.sort()
        for mask in _warp_runs(warps, intra=(dist == 0)):
            def move(warp_mask):
                return MoveInstr(src_reg, dst_reg, src_thread, dst_thread,
                                 warp_mask, dist)
            try:
                if dist:
                    validate_move_pattern(mask, dist, crossbars)
                attempts.append((move(mask), True))
            except ValueError:
                attempts.append((move(mask), False))
                order = list(mask.indices())
                if dist > 0:
                    order.reverse()
                attempts.extend(
                    (move(RangeMask.single(warp)), True) for warp in order
                )
    return attempts


# ----------------------------------------------------------------------
# Random geometries
# ----------------------------------------------------------------------
def random_case(rng: random.Random, kind: str, crossbars=None):
    """``(rows, crossbars, src (reg, start, elements), dst (...))``."""
    rows = rng.choice([3, 5, 8, 12, 16])
    crossbars = crossbars or rng.choice([4, 16, 64])
    capacity = rows * crossbars
    src_reg, dst_reg = rng.randrange(6), rng.randrange(6)
    src_start = dst_start = 0
    if kind == "contiguous":  # a copy between two warp ranges
        n = rng.randrange(1, capacity // 2 + 1)
        offset = rng.randrange(capacity // 2 - n + 1)
        src, dst = range(offset, offset + n), range(n)
        dst_start = rng.randrange(crossbars // 2 + 1)
    elif kind == "strided":  # compacting a view such as z[::2]
        step = rng.randrange(2, 5)
        n = rng.randrange(1, capacity // step + 1)
        src, dst = range(0, n * step, step), range(n)
    elif kind == "xor":  # the bitonic sort's partner permutation
        n = 1 << rng.randrange(1, capacity.bit_length())
        n = min(n, 1 << (capacity.bit_length() - 1))
        j = 1 << rng.randrange(n.bit_length() - 1)
        src, dst = tuple(i ^ j for i in range(n)), range(n)
    elif kind == "shuffle":  # no structure at all
        n = rng.randrange(1, min(capacity, 96) + 1)
        src = list(range(n))
        rng.shuffle(src)
        src, dst = tuple(src), range(n)
    else:  # "overlap": runs whose sources are also destinations
        dist = rng.choice([-1, 1] if crossbars == 4 else [-2, -1, 1, 2])
        # Thread 0's run covers `span` consecutive warps: more than
        # |dist| of them, so some warp both sends and receives.
        span = rng.randrange(abs(dist) + 1, crossbars - abs(dist) + 1)
        n = span * rows - rng.randrange(rows)
        src, dst = range(n), range(n)
        src_start, dst_start = max(0, -dist), max(0, dist)
        if rng.random() < 0.5:
            dst_reg = src_reg  # in place: order is all that protects data
    return rows, crossbars, (src_reg, src_start, src), (dst_reg, dst_start, dst)


KINDS = ["contiguous", "strided", "xor", "shuffle", "overlap"]


def cases(seed: int, per_kind: int = 4, crossbars=None):
    rng = random.Random(seed)
    for kind in KINDS:
        for _ in range(per_kind):
            yield kind, random_case(rng, kind, crossbars)


def plan_of(case):
    rows, crossbars, (sr, ss, se), (dr, ds, de) = case
    return _move_plan(rows, crossbars, sr, ss, se, dr, ds, de)


def reference_of(case):
    rows, crossbars, (sr, ss, se), (dr, ds, de) = case
    return reference_moves(rows, crossbars, sr, ss, se, dr, ds, de)


# ----------------------------------------------------------------------
# (a) The plan is the reference sequence
# ----------------------------------------------------------------------
class TestPlanMatchesReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_the_plan_is_the_reference_sequence(self, seed):
        rejected_runs = 0
        for kind, case in cases(seed, per_kind=8):
            plan = plan_of(case)
            assert isinstance(plan, MacroStream), "one stream per bulk move"
            reference = reference_of(case)
            rejected_runs += sum(not accepted for _, accepted in reference)
            issued = [instr for instr, accepted in reference if accepted]
            assert list(plan) == issued, f"seed={seed} {kind} {case}"
        assert rejected_runs, "the corpus must exercise H-tree rejections"

    def test_a_rejected_run_is_replaced_in_place(self):
        # Warps 0..2 send to 1..3: sources and destinations overlap.
        plan = _move_plan(4, 4, 0, 0, range(12), 1, 1, range(12))
        assert isinstance(plan, MacroStream)
        assert RangeMask(0, 2, 1) not in {move.warp_mask for move in plan}
        # One move per warp, per thread, descending for a positive
        # distance: 2->3, 1->2, 0->1.
        assert len(plan) == 12
        assert [move.warp_mask.start for move in plan[:3]] == [2, 1, 0]

    def test_generators_and_ranges_share_a_plan(self):
        first = _move_plan(8, 4, 0, 0, tuple(i ^ 2 for i in range(16)),
                           1, 0, range(16))
        again = _move_plan(8, 4, 0, 0, tuple(i ^ 2 for i in range(16)),
                           1, 0, range(16))
        assert again is first  # memo hit: the streams keep their hash


# ----------------------------------------------------------------------
# (b) Planned streams versus one instruction at a time, per backend
# ----------------------------------------------------------------------
def _random_image(seed: int, config) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 1 << 32, size=(config.crossbars, config.registers, config.rows),
        dtype=np.uint64,
    ).astype(np.uint32)


def _device(backend: str, config, image, **kwargs):
    device = pim.PIMDevice(config, **BACKENDS[backend], **kwargs)
    device.backend.words[...] = image
    return device


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_planned_streams_match_the_per_instruction_device(backend, seed):
    saw_rejection = False
    crossbars = random.Random(seed).choice([4, 16])
    for kind, case in cases(seed, per_kind=2, crossbars=crossbars):
        rows, crossbars, (sr, ss, se), (dr, ds, de) = case
        context = f"seed={seed} {backend} {kind} {case}"
        config = small_config(crossbars=crossbars, rows=rows)
        image = _random_image(seed, config)

        attempts = reference_of(case)
        saw_rejection |= not all(accepted for _, accepted in attempts)
        issued = [instr for instr, accepted in attempts if accepted]
        src, dst = Slot(sr, ss, crossbars - ss), Slot(dr, ds, crossbars - ds)
        reference = _device(backend, config, image, cache_size=0)
        for _ in range(2):
            for instr in issued:
                reference.execute(instr)
        for traced in (False, True):
            planned = _device(backend, config, image)
            if traced:
                # Recorded, not executed: the block exit dispatches it.
                with pim.trace(planned, name="bulk-move") as session:
                    for _ in range(2):
                        _bulk_move(planned, src, se, dst, de)
                    assert np.array_equal(planned.backend.words, image)
                assert session.graph.instructions == issued * 2, context
            else:
                for _ in range(2):  # the second pass replays cached plans
                    _bulk_move(planned, src, se, dst, de)

            assert np.array_equal(
                planned.backend.words, reference.backend.words
            ), (context, traced)
            assert planned.backend.stats == reference.backend.stats, (
                context, traced)
    assert saw_rejection


def test_a_rejected_run_bills_exactly_its_per_warp_replacement():
    """Nothing of the run the H-tree rejects is attempted or billed: the
    bulk move costs its per-warp moves, two crossbar masks each."""
    for backend in sorted(BACKENDS):
        device = pim.PIMDevice(small_config(crossbars=4, rows=4),
                               **BACKENDS[backend])
        _bulk_move(device, Slot(0, 0, 3), range(12), Slot(1, 1, 3), range(12))
        plan = _move_plan(4, 4, 0, 0, range(12), 1, 1, range(12))
        assert all(len(move.warp_mask) == 1 for move in plan)
        counts = device.backend.stats.op_counts
        assert counts["move"] == len(plan), backend
        assert counts["mask_crossbar"] == 2 * len(plan), backend
        assert device.backend.stats == device.backend.stream_stats(plan), backend


def test_execute_stream_keeps_the_stream_handle(monkeypatch):
    device = pim.PIMDevice(small_config(crossbars=4, rows=4), backend="numpy")
    seen = []
    monkeypatch.setattr(
        device.backend, "run_stream",
        lambda instructions, name="stream": seen.append(instructions),
    )
    stream = MacroStream([MoveInstr(0, 1, 0, 1)])
    device.execute_stream(stream)
    device.execute_stream(list(stream))
    assert seen[0] is stream  # cached hash survives
    assert isinstance(seen[1], MacroStream) and seen[1] == stream


# ----------------------------------------------------------------------
# (c) Linear billing == strict walk of the concatenated lowering
# ----------------------------------------------------------------------
def _fuzz_streams(seed: int):
    """The seed's streams of the two fuzz corpora, with their configs."""
    yield STREAM_CFG, random_stream(seed)
    desc, int_inputs, float_inputs, _ = build_case(seed)
    program = make_program(desc)
    pim.init(crossbars=FUZZ_CROSSBARS, rows=FUZZ_ROWS)
    try:
        tensors = _fresh_inputs(int_inputs, float_inputs)
        func = pim.compile(lambda *args: program(*args), opt_level=0)
        func(*tensors)
        instrs = MacroStream(func.graph_for(*tensors).instructions)
    finally:
        pim.reset()
    yield small_config(crossbars=FUZZ_CROSSBARS, rows=FUZZ_ROWS), instrs


def _htree_hops(ops, config) -> int:
    """The H-tree latency beyond one cycle per move of a lowered stream,
    summed from ``arch.htree`` under the crossbar mask each move runs in."""
    xb, hops = RangeMask.all(config.crossbars), 0
    for op in ops:
        if isinstance(op, CrossbarMaskOp):
            xb = RangeMask(op.start, op.stop, op.step)
        elif isinstance(op, MoveOp):
            hops += max(1, move_cycles(xb, op.dist, config.crossbars)) - 1
    return hops


@pytest.mark.parametrize("seed", SEEDS)
def test_linear_bill_equals_strict_walk(seed):
    for config, stream in _fuzz_streams(seed):
        backend = NumpyBackend(config)
        ops = []
        for instr in stream:
            ops.extend(backend.lowering._lower_ops(instr))
        strict = accounting_walk(ops, config)
        backend.run_stream(stream)
        assert backend.stats == strict, f"seed={seed}"
        assert strict.htree_hop_cycles == _htree_hops(ops, config), f"seed={seed}"
        # ... which is also what the lowered-program route bills.
        assert backend.compile(stream, optimize=False).stats_delta == strict


def test_move_streams_stay_out_of_the_lowering_driver(tmp_path):
    """A bulk move's streams reach the lowering driver's stream tier only
    as bill-priced handles: nothing is lowered to micro-ops or persisted."""
    device = pim.PIMDevice(
        small_config(crossbars=4, rows=4), backend="numpy",
        cache_dir=str(tmp_path),
    )
    _bulk_move(device, Slot(0, 0, 3), range(12), Slot(1, 1, 3), range(12))
    driver = device.backend.lowering
    assert all(
        isinstance(program, BilledProgram)
        for program in driver.streams._entries.values()
    )
    assert family(device.backend.counters(), "persist").get("stores", 0) == 0
    assert family(device.backend.counters(), "emit")["stream"] >= 1


# ----------------------------------------------------------------------
# (d) The gather/scatter replay step and its fall-backs
# ----------------------------------------------------------------------
GS_CFG = small_config(crossbars=8, rows=4)


def _twin_backends(seed: int = 0):
    image = _random_image(seed, GS_CFG)
    pair = NumpyBackend(GS_CFG), NumpyBackend(GS_CFG)
    for backend in pair:
        backend.words[...] = image
    return pair


def _assert_stream_matches_loop(stream, steps=None, seed: int = 0):
    fused, loop = _twin_backends(seed)
    for _ in range(2):
        fused.run_stream(stream)
        for instr in stream:
            loop.execute(instr)
    assert np.array_equal(fused.words, loop.words)
    assert fused.stats == loop.stats
    if steps is not None:
        assert len(fused._plan_steps(stream)) == steps


class TestGatherScatterStep:
    def test_distinct_destinations_fuse_into_one_step(self):
        stream = MacroStream([
            MoveInstr(0, 1, 0, 3, RangeMask(0, 7, 1)),            # intra-warp
            MoveInstr(0, 1, 1, 2, RangeMask(0, 3, 1), 4),         # inter-warp
            MoveInstr(0, 1, 2, 2, RangeMask.single(5), -5),
        ])
        _assert_stream_matches_loop(stream, steps=1)

    def test_duplicate_destination_closes_the_group(self):
        # Both moves write (warp 2, thread 1) of register 1: last one wins.
        stream = MacroStream([
            MoveInstr(0, 1, 0, 1, RangeMask(0, 3, 1)),
            MoveInstr(0, 1, 3, 1, RangeMask(2, 5, 1)),
        ])
        _assert_stream_matches_loop(stream, steps=2)

    def test_same_register_moves_stay_sequential(self):
        # A chain within one register: each move reads what the last wrote.
        stream = MacroStream([
            MoveInstr(2, 2, 0, 1, RangeMask(0, 7, 1)),
            MoveInstr(2, 2, 1, 2, RangeMask(0, 7, 1)),
            MoveInstr(2, 2, 2, 3, RangeMask(0, 7, 1)),
        ])
        _assert_stream_matches_loop(stream, steps=3)

    def test_register_pair_change_closes_the_group(self):
        stream = MacroStream([
            MoveInstr(0, 1, 0, 1, RangeMask(0, 7, 1)),
            MoveInstr(0, 1, 1, 2, RangeMask(0, 7, 1)),
            MoveInstr(1, 3, 1, 0, RangeMask(0, 7, 1)),  # reads the group's output
            MoveInstr(1, 3, 2, 3, RangeMask(0, 7, 1)),
        ])
        _assert_stream_matches_loop(stream, steps=2)

    def test_every_member_is_validated_before_plan_build(self):
        """``Driver.check_stream`` refuses the stream whole before a plan
        is built: an illegal member of a gather group is never planned,
        run or billed."""
        backend = NumpyBackend(GS_CFG)
        legal = MoveInstr(0, 1, 0, 0, RangeMask(0, 1, 1), 4)
        overlapping = MoveInstr(0, 1, 1, 1, RangeMask(0, 3, 1), 1)
        backend.words[...] = 7
        for attempt in (backend.run_stream, backend.compile):
            with pytest.raises(SimulationError, match="both source and destination"):
                attempt([legal, overlapping])
        assert not backend._plans and not backend._move_cache
        assert (backend.words == 7).all() and backend.stats == SimStats()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_move_streams_match_the_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            moves = []
            for _ in range(rng.randrange(2, 12)):
                dist = rng.choice([0, 0, 1, -1, 2, 4])
                start = rng.randrange(max(0, -dist), GS_CFG.crossbars - max(0, dist))
                stop = start if dist else rng.randrange(start, GS_CFG.crossbars)
                moves.append(MoveInstr(
                    rng.randrange(3), rng.randrange(3),
                    rng.randrange(GS_CFG.rows), rng.randrange(GS_CFG.rows),
                    RangeMask(start, stop, 1), dist,
                ))
            _assert_stream_matches_loop(MacroStream(moves), seed=seed)


# ----------------------------------------------------------------------
# (e) The plan cache: keyed on the geometry, bounded
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_devices_with_different_rows_never_share_a_plan(self):
        _move_plan.cache_clear()
        words = {}
        for rows in (4, 8):
            device = pim.PIMDevice(small_config(crossbars=4, rows=rows),
                                   backend="numpy")
            source = np.arange(16, dtype=np.uint32) + 100
            device.backend.words[:, 0, :].flat[:16] = source
            _bulk_move(device, Slot(0, 0, 4), range(1, 16, 2),
                       Slot(1, 0, 4), range(8))
            words[rows] = device.backend.words[:, 1, :].flat[:8].copy()
            assert np.array_equal(words[rows], source[1::2]), rows
        info = _move_plan.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        plans = [
            _move_plan(rows, 4, 0, 0, range(1, 16, 2), 1, 0, range(8))
            for rows in (4, 8)
        ]
        assert plans[0] != plans[1]

    def test_the_cache_is_bounded(self):
        bound = tensor_mod.MOVE_PLAN_CACHE_SIZE
        assert _move_plan.cache_info().maxsize == bound
        _move_plan.cache_clear()
        for start in range(bound + 50):
            _move_plan(4, 4, 0, 0, range(start, start + 2), 1, 0, range(2))
        assert _move_plan.cache_info().currsize == bound
