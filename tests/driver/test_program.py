"""Tests for the compiled-program subsystem (program IR, compiler, replay).

Covers the correctness obligations of the compile/replay pipeline:

- the LRU :class:`ProgramCache` and its hit/miss accounting;
- cache invalidation across configuration changes (fingerprint keys and
  the simulator's replay-time fingerprint check);
- compiled-vs-uncompiled result equivalence across all dtypes, bit for
  bit, including identical cycle accounting on the implicit cache path;
- the peephole passes (mask coalescing, redundant-INIT1 elimination)
  preserving simulator state bit-for-bit while shrinking the stream;
- the bill a program carries: walked once, equal to what executing it
  charges, per-instruction bills that sum to a stream's, and the
  word-array form a program can be built from without decoding.
"""

import numpy as np
import pytest

from repro.arch.config import small_config
from repro.arch.masks import RangeMask
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
    encode_many,
)
from repro.driver.compiler import (
    CompileError,
    coalesce_masks,
    columns_of_words,
    compile_ops,
    eliminate_redundant_init1,
)
from repro.driver.driver import Driver
from repro.driver.program import MicroProgram, ProgramCache, config_fingerprint
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import MoveInstr, ReadInstr, RInstr, ROp, WriteInstr
from repro.sim.simulator import SimulationError, Simulator, accounting_walk
from repro.sim.stats import SimStats

from tests.conftest import rand_float32, rand_int32


CFG = small_config(crossbars=4, rows=8)


def fresh_pair(config=CFG, **kwargs):
    sim = Simulator(config)
    return sim, Driver(sim, **kwargs)


def load(driver, reg, raw_words):
    for index, word in enumerate(raw_words):
        warp, thread = divmod(index, driver.config.rows)
        driver.execute(
            WriteInstr(reg, int(word), RangeMask.single(warp),
                       RangeMask.single(thread))
        )


class TestProgramCache:
    def test_hit_miss_counters(self):
        cache = ProgramCache(maxsize=4)
        program = MicroProgram.from_ops([ReadOp(0)], "p", CFG)
        assert cache.get("k") is None
        cache.put("k", program)
        assert cache.get("k") is program
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = ProgramCache(maxsize=2)
        programs = {
            name: MicroProgram.from_ops([ReadOp(0)], name, CFG)
            for name in "abc"
        }
        cache.put("a", programs["a"])
        cache.put("b", programs["b"])
        assert cache.get("a") is programs["a"]  # refreshes "a"
        cache.put("c", programs["c"])  # evicts "b" (least recent)
        assert "b" not in cache
        assert cache.get("a") is programs["a"]
        assert cache.get("c") is programs["c"]

    def test_disabled_cache_stores_nothing(self):
        cache = ProgramCache(maxsize=0)
        cache.put("k", MicroProgram.from_ops([], "p", CFG))
        assert len(cache) == 0 and not cache.enabled

    def test_fingerprints_distinguish_configs(self):
        small = small_config(crossbars=4, rows=8)
        large = small_config(crossbars=4, rows=16)
        assert config_fingerprint(small) != config_fingerprint(large)
        cache = ProgramCache()
        cache.put(("add", config_fingerprint(small)),
                  MicroProgram.from_ops([], "p", small))
        assert cache.get(("add", config_fingerprint(large))) is None


class _CountingStore:
    """A disk-tier stand-in that records which keys were probed."""

    def __init__(self):
        self.probed, self.stored = [], []

    def load(self, key):
        self.probed.append(key)
        return None

    def store(self, key, program):
        self.stored.append(key)


class TestDurableProbes:
    def test_only_keys_that_can_have_been_stored_are_probed(self):
        store = _CountingStore()
        cache = ProgramCache(maxsize=4, store=store)
        assert cache.get("body") is None
        assert cache.get("plan", durable=False) is None
        assert store.probed == ["body"] and cache.misses == 2
        program = MicroProgram.from_ops([], "p", CFG)
        cache.put("plan", program, durable=False)  # memory only
        cache.put("body", program)
        assert store.stored == ["body"]
        assert cache.get("plan", durable=False) is program

    def test_stream_plans_never_reach_the_disk_tier(self, tmp_path):
        sim, driver = fresh_pair(cache_dir=str(tmp_path))
        add = RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)
        for _ in range(3):
            driver.execute_stream([add, add])
            driver.execute(add)
        counters = driver.persist.counters()
        # One body, compiled once: one real miss, one store. The two
        # plan keys (the pair, the single macro) were never probed.
        assert counters == {"loads": 0, "misses": 1, "invalid": 0, "stores": 1}


class TestProgramBill:
    STREAM = [
        WriteInstr(0, 9, None, None),
        RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1,
               warp_mask=RangeMask(0, 2, 2), row_mask=RangeMask(1, 7, 3)),
        MoveInstr(2, 3, 1, 5, RangeMask(0, 0, 1), 3),
        MoveInstr(2, 3, 1, 5, RangeMask(1, 1, 1), 0),
        RInstr(ROp.MUL, float32, dest=4, src_a=2, src_b=3),
        ReadInstr(3, 5, 3),
    ]

    @pytest.mark.parametrize("optimize", [False, True])
    def test_carried_bill_is_what_execution_charges(self, optimize):
        """The plan and the op-by-op reference charge the carried bill,
        H-tree hops itemized beside one cycle per micro-op."""
        sim = Simulator(CFG)
        driver = Driver(sim)
        program = driver.compile(self.STREAM, optimize=optimize)
        bill = program.bill(CFG)
        assert bill == accounting_walk(program.ops, CFG)
        driver.run_program(program)
        assert sim.stats == bill
        assert sim.replay_counters["vectorized"] == 1
        reference = Simulator(CFG)
        for op in program.ops:
            reference.execute(op)
        assert reference.stats == bill
        assert bill.cycles == bill.micro_ops and bill.htree_hop_cycles > 0

    def test_bill_is_walked_once(self, monkeypatch):
        from repro.sim import simulator

        walks = []
        walk = simulator.accounting_walk
        monkeypatch.setattr(
            simulator, "accounting_walk",
            lambda ops, *a, **k: walks.append(len(ops)) or walk(ops, *a, **k),
        )
        sim, driver = fresh_pair()
        program = driver.compile(self.STREAM)
        assert walks == []  # nobody asked yet
        first = program.bill(CFG)
        driver.run_program(program)
        driver.run_program(program)
        # Computed once and kept — from the words: the one walk saw the
        # non-gate ops and a tally per stretch of gates, never the gates.
        assert program.bill(CFG) is first and len(walks) == 1
        stretches = sum(step.op is None for step in program.super_steps)
        assert walks[0] == len(program.super_steps) < len(program) // 100
        assert 0 < stretches < walks[0] and program._ops is None
        assert first == walk(program.ops, CFG)

    def test_instruction_bills_sum_to_the_stream_bill(self):
        """``stream_bill`` is one walk: a one-instruction stream bills what
        the walk of its reference lowering does, those bills sum to the
        whole stream's, and that is the carried bill of its verbatim
        compile on the simulator."""
        _, driver = fresh_pair()
        total = SimStats()
        for instr in self.STREAM:
            bill = driver.stream_bill([instr])
            alone = driver.compile([instr], optimize=False, emit="macro")
            assert bill == accounting_walk(alone.ops, CFG), instr
            total.merge(bill)
        assert driver.stream_bill(self.STREAM) == total
        fused = driver.compile(self.STREAM, optimize=False)
        assert total == fused.bill(CFG) and total.htree_hop_cycles > 0

    def test_stream_bill_raises_what_the_chip_raises(self):
        """Refused whole by ``check_stream`` first, wherever the bad
        instruction sits: range checks raise ``CompileError``, the chip's
        walk its H-tree ``SimulationError``."""
        _, driver = fresh_pair()
        good = list(self.STREAM)
        for bad, error, match in (
            (RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1,
                    warp_mask=RangeMask(0, 7, 1)),
             CompileError, "crossbar mask out of range"),
            (MoveInstr(0, 1, 0, 0, RangeMask(0, 1, 1), 1),
             SimulationError, "source and destination"),
            (MoveInstr(0, 1, 0, 99, RangeMask(0, 0, 1), 0),
             CompileError, "row 99 out of range"),
        ):
            for stream in ([bad], good + [bad], [bad] + good):
                with pytest.raises(error, match=match):
                    driver.stream_bill(stream)

    def test_a_pattern_refused_mid_run_bills_like_the_walk(self):
        """A words-born program is billed in bulk, one ``_pattern_mask`` call
        per distinct pattern. Make a pattern that first occurs deep inside
        a gate run invalid: the bill raises the op-by-op walk's error."""
        from repro.arch.micro_ops import decode_many
        from repro.sim import replay

        _, driver = fresh_pair()
        words = driver.compile(self.STREAM, optimize=False).encoded(CFG.word_size)
        ops = decode_many(words, CFG.word_size)
        shifted = [
            (op.gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step)
            for op in ops
            if isinstance(op, LogicHOp) and op.gate == GateType.NOT
            and op.p_out > op.p_a
        ]
        target = shifted[len(shifted) // 2]  # first seen somewhere mid-stream
        first = next(
            at for at, op in enumerate(ops) if isinstance(op, LogicHOp)
            and (op.gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step) == target
        )
        assert isinstance(ops[first - 1], LogicHOp)  # inside a gate run
        real = replay.pattern_outputs

        def broken(*pattern):
            return (1, 1) if pattern[:6] == target else real(*pattern)

        replay.pattern_outputs = broken
        replay._pattern_mask.cache_clear()
        try:
            with pytest.raises(SimulationError, match="spill") as walked:
                accounting_walk(ops, CFG)
            twin = MicroProgram(words.copy(), "twin", config_fingerprint(CFG))
            with pytest.raises(SimulationError, match="spill") as billed:
                twin.bill(CFG)
        finally:
            replay.pattern_outputs = real
            replay._pattern_mask.cache_clear()
        assert str(billed.value) == str(walked.value)
        assert twin.bill(CFG) == accounting_walk(ops, CFG)  # healed

    def test_self_masked_is_structural(self):
        gate = LogicHOp(GateType.INIT1, 0, 0, 3, 0, 0, 0, 31, 1)
        xb, row = CrossbarMaskOp(0, 0, 1), RowMaskOp(0, 0, 1)
        cases = [
            ([xb, row, gate, ReadOp(3)], True),
            ([gate], False),                      # an R-type body
            ([xb, gate], False),                  # row mask never set
            ([row, ReadOp(3)], False),
            ([xb, LogicVOp(GateType.INIT1, 0, 1, 3)], True),   # needs xb only
            ([row, LogicVOp(GateType.INIT1, 0, 1, 3)], False),
            ([row, MoveOp(1, 0, 0, 1, 2)], False),
            ([WriteOp(1, 5)], True),              # writes take any masks
        ]
        for ops, expected in cases:
            assert MicroProgram.from_ops(ops, "p", CFG).self_masked is expected

    def test_body_bill_never_reaches_the_chip(self):
        """A body's bill holds under a fresh chip's masks only; replayed
        under caller-set masks it is billed live, by the reference."""
        sim, driver = fresh_pair()
        body = driver._rtype_program(
            RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)
        )
        assert not body.self_masked
        sim.execute(CrossbarMaskOp(1, 1, 1))
        sim.execute(RowMaskOp(2, 2, 1))
        before = sim.stats.copy()
        sim.execute_program(body)
        delta = sim.stats.diff(before)
        full = body.bill(CFG)
        assert delta.cycles == full.cycles
        assert delta.gates_executed * CFG.total_rows == full.gates_executed
        assert sim.replay_counters == {"vectorized": 0, "reference": 1}


class TestWordPrograms:
    def test_encode_many_matches_encode(self, monkeypatch):
        ops = [
            CrossbarMaskOp(0, 3, 2), RowMaskOp(1, 7, 3), ReadOp(5),
            WriteOp(3, 0xFFFFFFFF), MoveOp(-3, 1, 2, 3, 4), MoveOp(2, 7, 0, 1, 9),
            LogicHOp(GateType.NOR, 1, 2, 3, 0, 1, 2, 30, 2),
            LogicVOp(GateType.NOT, 3, 4, 5),
        ] * 3
        words = encode_many(ops, CFG.word_size)
        assert words.dtype == np.uint64
        assert words.tolist() == [encode(op, CFG.word_size) for op in ops]
        assert encode_many([], CFG.word_size).tolist() == []
        # Long programs are encoded block by block (bounded temporaries).
        monkeypatch.setattr("repro.arch.micro_ops._ENCODE_BLOCK", 5)
        assert encode_many(ops, CFG.word_size).tolist() == words.tolist()
        for bad in (WriteOp(1, 1 << 32), ReadOp(200), RowMaskOp(0, 1 << 12, 1)):
            with pytest.raises(ValueError):
                encode(bad, CFG.word_size)
            with pytest.raises(ValueError):
                encode_many([ReadOp(1), bad], CFG.word_size)
        with pytest.raises(TypeError):
            encode_many([ReadOp(1), "nope"], CFG.word_size)

    def test_program_from_words_equals_program_from_ops(self):
        _, driver = fresh_pair()
        program = driver.compile(TestProgramBill.STREAM)
        words = program.encoded(CFG.word_size)
        twin = MicroProgram(
            words.copy(), program.name, program.config_fingerprint,
            program.reads, program.macros, program.source_ops,
        )
        assert len(twin) == len(program) and twin._ops is None
        assert twin.encoded(CFG.word_size) is twin.encoded(CFG.word_size)
        assert twin.ops == program.ops
        assert twin.super_steps == program.super_steps
        assert twin.bill(CFG) == program.bill(CFG)


class TestCompileValidation:
    def test_rejects_out_of_range_register(self):
        with pytest.raises(CompileError, match="out of range"):
            compile_ops([ReadOp(CFG.registers)], CFG)

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(CompileError, match="crossbar mask"):
            compile_ops([CrossbarMaskOp(0, CFG.crossbars, 1)], CFG)

    def test_rejects_oversized_write(self):
        with pytest.raises(CompileError, match="word size"):
            compile_ops([WriteOp(0, 1 << CFG.word_size)], CFG)

    def test_counts_reads(self):
        program = compile_ops(
            [CrossbarMaskOp(0, 0, 1), RowMaskOp(0, 0, 1), ReadOp(1), ReadOp(2)],
            CFG,
        )
        assert program.reads == 2

    def test_encoded_words_roundtrip(self):
        ops = [CrossbarMaskOp(1, 3, 2), RowMaskOp(0, 7, 1), WriteOp(2, 0xABCD)]
        program = compile_ops(ops, CFG, optimize=False)
        decoded = [decode(int(w), CFG.word_size) for w in
                   program.encoded(CFG.word_size)]
        assert decoded == ops


def _after(peephole, ops):
    """The ops a pass (stated over integer columns) keeps of a stream."""
    keep = np.ones(len(ops), dtype=bool)
    peephole(columns_of_words(encode_many(ops), CFG.word_size), keep)
    return [op for op, kept in zip(ops, keep) if kept]


class TestPeepholeMasks:
    def test_identical_masks_coalesced(self):
        ops = [
            CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1), WriteOp(0, 1),
            CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1), WriteOp(1, 2),
        ]
        out = _after(coalesce_masks, ops)
        assert out == [
            CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1),
            WriteOp(0, 1), WriteOp(1, 2),
        ]

    def test_superseded_mask_dropped(self):
        ops = [RowMaskOp(0, 0, 1), RowMaskOp(1, 1, 1), WriteOp(0, 1)]
        assert _after(coalesce_masks, ops) == [RowMaskOp(1, 1, 1), WriteOp(0, 1)]

    def test_first_mask_always_kept(self):
        # The mask state at replay time is unknown, so the leading mask of
        # each kind must survive even if it looks "redundant" in isolation.
        ops = [CrossbarMaskOp(0, 3, 1), WriteOp(0, 1)]
        assert _after(coalesce_masks, ops) == ops

    def test_trailing_masks_kept(self):
        # Mask state persists beyond the program; trailing sets are visible.
        ops = [WriteOp(0, 1), RowMaskOp(2, 2, 1)]
        assert _after(coalesce_masks, ops) == ops


class TestPeepholeInit1:
    def init1(self, reg, lo, hi):
        return LogicHOp(GateType.INIT1, in_a=0, in_b=0, out=reg,
                        p_a=0, p_b=0, p_out=lo, p_end=hi, p_step=1)

    def test_repeated_init1_eliminated(self):
        ops = [self.init1(6, 0, 31), self.init1(6, 0, 31)]
        assert _after(eliminate_redundant_init1, ops) == [self.init1(6, 0, 31)]

    def test_subset_init1_eliminated(self):
        ops = [self.init1(6, 0, 31), self.init1(6, 3, 5)]
        assert _after(eliminate_redundant_init1, ops) == [self.init1(6, 0, 31)]

    def test_pulldown_blocks_elimination(self):
        pull = LogicHOp(GateType.NOT, in_a=0, in_b=0, out=6,
                        p_a=0, p_b=0, p_out=4, p_end=4, p_step=1)
        ops = [self.init1(6, 0, 31), pull, self.init1(6, 4, 4)]
        assert _after(eliminate_redundant_init1, ops) == ops

    def test_mask_change_resets_tracking(self):
        ops = [self.init1(6, 0, 31), RowMaskOp(0, 3, 1), self.init1(6, 0, 31)]
        assert _after(eliminate_redundant_init1, ops) == ops

    def test_write_resets_tracking(self):
        ops = [self.init1(6, 0, 31), WriteOp(6, 0), self.init1(6, 0, 31)]
        assert _after(eliminate_redundant_init1, ops) == ops


class TestReplayEquivalence:
    """Compiled replay must be bit-identical to op-by-op execution."""

    CASES = [
        (ROp.ADD, int32), (ROp.MUL, int32), (ROp.DIV, int32),
        (ROp.LT, int32), (ROp.BIT_XOR, int32), (ROp.ABS, int32),
        (ROp.ADD, float32), (ROp.MUL, float32), (ROp.DIV, float32),
        (ROp.LE, float32), (ROp.NEG, float32),
    ]

    @pytest.mark.parametrize(
        "op,dtype", CASES, ids=[f"{o.value}.{d.name}" for o, d in CASES]
    )
    def test_cached_replay_matches_uncached(self, op, dtype, rng):
        size = CFG.crossbars * CFG.rows
        if dtype is int32:
            a = rand_int32(rng, size)
            b = rand_int32(rng, size)
            b[b == 0] = 1  # keep division defined
        else:
            a, b = rand_float32(rng, size), rand_float32(rng, size)
        sim_plain, drv_plain = fresh_pair(cache_size=0)
        sim_cached, drv_cached = fresh_pair()
        assert hasattr(sim_cached, "execute_program")
        for driver in (drv_plain, drv_cached):
            load(driver, 0, a.view(np.uint32))
            load(driver, 1, b.view(np.uint32))
            instr = RInstr(op, dtype, dest=2, src_a=0,
                           src_b=1 if instr_arity(op) >= 2 else None)
            driver.execute(instr)
            driver.execute(instr)  # second run exercises cache replay
        assert drv_cached.cache_hits >= 1 and drv_plain.cache_hits == 0
        assert np.array_equal(sim_plain.memory.words, sim_cached.memory.words)
        assert sim_plain.stats.cycles == sim_cached.stats.cycles
        assert sim_plain.stats.op_counts == sim_cached.stats.op_counts

    def test_replay_counts_into_reassigned_stats(self):
        # Plans must resolve sim.stats at call time: resetting the public
        # attribute between replays must not orphan the counters.
        sim, driver = fresh_pair()
        program = driver.compile(
            [RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)],
            optimize=False,
        )
        driver.run_program(program)  # builds and memoizes the plan
        first_cycles = sim.stats.cycles
        sim.stats = SimStats()
        driver.run_program(program)
        assert sim.stats.cycles == first_cycles

    def test_read_through_replay_path(self):
        sim, driver = fresh_pair()
        program = driver.compile(
            [
                WriteInstr(0, 41, RangeMask.all(4), RangeMask.all(8)),
                WriteInstr(1, 1, RangeMask.all(4), RangeMask.all(8)),
                RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
                ReadInstr(2, 5, 2),
            ],
            optimize=True,
        )
        assert driver.run_program(program) == 42
        assert driver.run_program(program) == 42  # plan is memoized


def instr_arity(op):
    from repro.isa.instructions import ARITY

    return ARITY[op]


class TestOptimizerConfigInCacheKey:
    """Fused-stream cache keys must include the optimizer configuration.

    Regression: ``Driver.compile`` caches compiled streams in the
    ``ProgramCache``; without the ``optimize`` flag in the key, switching
    the optimization level mid-session would replay a stale program
    compiled under different flags.
    """

    def stream(self):
        full_w, full_r = RangeMask.all(4), RangeMask.all(8)
        return [
            WriteInstr(0, 17, full_w, full_r),
            WriteInstr(1, 5, full_w, full_r),
            RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
            RInstr(ROp.MUL, int32, dest=3, src_a=2, src_b=1),
        ]

    def test_optimize_flag_distinguishes_cache_entries(self):
        _, driver = fresh_pair()
        optimized = driver.compile(self.stream(), optimize=True)
        verbatim = driver.compile(self.stream(), optimize=False)
        assert optimized is not verbatim
        assert len(verbatim) > len(optimized)  # peephole really ran
        # Recompiling under each flag hits the matching cached program.
        assert driver.compile(self.stream(), optimize=True) is optimized
        assert driver.compile(self.stream(), optimize=False) is verbatim

    def test_replay_after_switch_is_not_stale(self):
        sim_opt, drv_opt = fresh_pair()
        drv_opt.run_program(drv_opt.compile(self.stream(), optimize=True))
        opt_cycles = sim_opt.stats.cycles

        sim_raw, drv_raw = fresh_pair()
        drv_raw.compile(self.stream(), optimize=True)  # warm the cache...
        program = drv_raw.compile(self.stream(), optimize=False)
        drv_raw.run_program(program)  # ...then replay the verbatim stream
        assert sim_raw.stats.cycles > opt_cycles
        assert np.array_equal(sim_raw.memory.words, sim_opt.memory.words)

    def test_different_instruction_streams_never_collide(self):
        _, driver = fresh_pair()
        a = driver.compile(self.stream(), optimize=True)
        b = driver.compile(self.stream()[:-1], optimize=True)
        assert a is not b and len(a) != len(b)

    def test_disabled_cache_still_compiles(self):
        _, driver = fresh_pair(cache_size=0)
        first = driver.compile(self.stream(), optimize=True)
        second = driver.compile(self.stream(), optimize=True)
        assert first is not second
        assert list(first.ops) == list(second.ops)

    def test_source_ops_record_pre_peephole_count(self):
        _, driver = fresh_pair()
        optimized = driver.compile(self.stream(), optimize=True)
        verbatim = driver.compile(self.stream(), optimize=False)
        assert optimized.source_ops == len(verbatim)
        assert verbatim.source_ops == len(verbatim)
        assert len(optimized) < optimized.source_ops


class TestConfigInvalidation:
    def test_driver_keys_include_fingerprint(self):
        _, drv_a = fresh_pair(small_config(crossbars=4, rows=8))
        _, drv_b = fresh_pair(small_config(crossbars=4, rows=16))
        instr = RInstr(ROp.ADD, int32, dest=0, src_a=1, src_b=2)
        assert drv_a._rtype_key(instr) != drv_b._rtype_key(instr)

    def test_simulator_rejects_foreign_program(self):
        cfg_a = small_config(crossbars=4, rows=8)
        cfg_b = small_config(crossbars=4, rows=16)
        _, drv_a = fresh_pair(cfg_a)
        program = drv_a.compile(
            [RInstr(ROp.ADD, int32, dest=0, src_a=1, src_b=2)]
        )
        with pytest.raises(SimulationError, match="fingerprint"):
            Simulator(cfg_b).execute_program(program)


class TestStreamTierCache:
    """The stream tier (fused programs + plans) keys on everything
    lowering depends on: emission mode, optimize flag, parallelism, and
    the config fingerprint — switching any of them mid-session must
    never replay a stale entry; recompiling under the same flags must.
    """

    def stream(self):
        full_w, full_r = RangeMask.all(4), RangeMask.all(8)
        return [
            WriteInstr(0, 9, full_w, full_r),
            WriteInstr(1, 4, full_w, full_r),
            RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
            RInstr(ROp.LT, int32, dest=3, src_a=1, src_b=2),
        ]

    def test_lowering_distinguishes_cache_entries(self):
        _, driver = fresh_pair()
        spliced = driver.compile(self.stream(), emit="stream")
        legacy = driver.compile(self.stream(), emit="macro")
        assert spliced is not legacy  # separate entries per lowering
        assert list(spliced.ops) == list(legacy.ops)  # but identical output
        assert driver.compile(self.stream(), emit="stream") is spliced
        assert driver.compile(self.stream(), emit="macro") is legacy

    def test_stream_tier_separate_from_body_tier(self):
        _, driver = fresh_pair()
        body_hits = driver.programs.hits
        driver.compile(self.stream())
        driver.compile(self.stream())
        assert driver.streams.hits == 1
        # The recompile hit the stream tier only: the tiers count
        # separately, and Driver.cache_hits reports their sum.
        assert driver.programs.hits == body_hits
        assert driver.cache_hits == driver.programs.hits + driver.streams.hits

    def test_plan_cached_across_emissions(self):
        _, driver = fresh_pair()
        stream = self.stream()
        driver.execute_stream(stream)
        misses = driver.streams.misses
        hits = driver.streams.hits
        driver.execute_stream(stream)
        driver.execute_stream(stream)
        assert driver.streams.misses == misses
        assert driver.streams.hits == hits + 2

    def test_fingerprint_invalidates_plans(self):
        cfg_b = small_config(crossbars=4, rows=16)
        _, drv_a = fresh_pair()
        _, drv_b = fresh_pair(cfg_b)
        a = drv_a.compile(self.stream())
        b = drv_b.compile(self.stream())
        assert a.config_fingerprint != b.config_fingerprint
        with pytest.raises(SimulationError, match="fingerprint"):
            Simulator(cfg_b).execute_program(a)

    def test_parallelism_distinguishes_cache_entries(self):
        _, par = fresh_pair(parallelism="parallel")
        _, ser = fresh_pair(parallelism="serial")
        a = par.compile(self.stream(), optimize=False)
        b = ser.compile(self.stream(), optimize=False)
        # Bit-parallel vs bit-serial lowering of ADD really differs, so a
        # shared key would replay the wrong body.
        assert len(a) != len(b)

    def test_backend_cache_counters_sum_both_tiers(self):
        from repro.backend.simulator import SimulatorBackend

        backend = SimulatorBackend(CFG)
        stream = self.stream()
        backend.compile(stream)
        backend.compile(stream)  # stream-tier hit
        for instr in stream:
            backend.execute(instr)  # one-instruction plans (stream tier)
        driver = backend.driver
        assert backend.cache_hits == driver.cache_hits
        assert backend.cache_hits == driver.programs.hits + driver.streams.hits
        assert backend.cache_misses == (
            driver.programs.misses + driver.streams.misses
        )
        assert driver.streams.hits == 1


class TestOptimizedStreams:
    """Peephole-optimized programs: same final state, fewer cycles."""

    def stream(self):
        full_w, full_r = RangeMask.all(4), RangeMask.all(8)
        return [
            WriteInstr(0, 17, full_w, full_r),
            WriteInstr(1, 5, full_w, full_r),
            RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
            RInstr(ROp.MUL, int32, dest=3, src_a=2, src_b=1),
            MoveInstr(src_reg=3, dst_reg=4, src_thread=0, dst_thread=7,
                      warp_mask=RangeMask.single(1)),
            RInstr(ROp.SUB, int32, dest=5, src_a=3, src_b=0),
        ]

    def test_state_bit_identical_and_cycles_saved(self):
        sim_ref, drv_ref = fresh_pair(cache_size=0)
        for instr in self.stream():
            drv_ref.execute(instr)

        sim_opt, drv_opt = fresh_pair()
        program = drv_opt.compile(self.stream(), optimize=True)
        raw_len = sum(len(drv_ref.lower(i)) for i in self.stream())
        drv_opt.run_program(program)

        assert np.array_equal(sim_ref.memory.words, sim_opt.memory.words)
        assert len(program) < raw_len  # masks coalesced across instructions
        assert sim_opt.stats.cycles < sim_ref.stats.cycles

    def test_unoptimized_compile_preserves_stream(self):
        _, driver = fresh_pair(cache_size=0)
        stream = self.stream()
        program = driver.compile(stream, optimize=False)
        flat = [op for instr in stream for op in driver._lower_ops(instr)]
        assert list(program.ops) == flat

    def test_float_stream_optimized_replay(self, rng):
        size = CFG.crossbars * CFG.rows
        a = rand_float32(rng, size)
        b = rand_float32(rng, size)
        instrs = [
            RInstr(ROp.MUL, float32, dest=2, src_a=0, src_b=1),
            RInstr(ROp.ADD, float32, dest=3, src_a=2, src_b=0),
            RInstr(ROp.DIV, float32, dest=4, src_a=3, src_b=1),
        ]
        sim_ref, drv_ref = fresh_pair(cache_size=0)
        load(drv_ref, 0, a.view(np.uint32))
        load(drv_ref, 1, b.view(np.uint32))
        for instr in instrs:
            drv_ref.execute(instr)

        sim_opt, drv_opt = fresh_pair()
        load(drv_opt, 0, a.view(np.uint32))
        load(drv_opt, 1, b.view(np.uint32))
        drv_opt.run_program(drv_opt.compile(instrs, optimize=True))
        assert np.array_equal(sim_ref.memory.words, sim_opt.memory.words)
