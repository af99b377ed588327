"""Tests for the multi-crossbar device pool (:mod:`repro.pool`).

The pool's contract: executing through ``PooledBackend`` is
*indistinguishable* from a single device over the full geometry —
bit-identical memory images (including the scratch residue of move
lowering), identical cycle accounting, identical read results — while
the work is physically sharded across N worker backends that each own a
contiguous crossbar range of one shared word image.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.backend import NumpyBackend, make_backend
from repro.backend.base import BilledBackend, BilledProgram
from repro.backend.simulator import SimulatorBackend
from repro.driver.driver import Driver
from repro.driver.stream import MacroStream
from repro.isa.dtypes import int32
from repro.isa.instructions import (
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
)
from repro.faults import ShardError
from repro.pool import PooledBackend
from repro.pool.backend import shard_mask
from tests.driver.test_stream_emission import CFG as STREAM_CFG, random_stream
from tests.integration.test_differential_fuzz import _seeds


CFG = small_config(crossbars=8, rows=8)


class TestShardMask:
    def test_window_inside(self):
        mask = RangeMask(2, 5, 1)
        assert shard_mask(mask, 0, 7) == RangeMask(2, 5, 1)

    def test_rebase_to_local(self):
        mask = RangeMask(4, 7, 1)
        assert shard_mask(mask, 4, 7) == RangeMask(0, 3, 1)

    def test_split_across_shards(self):
        mask = RangeMask(2, 6, 1)
        assert shard_mask(mask, 0, 3) == RangeMask(2, 3, 1)
        assert shard_mask(mask, 4, 7) == RangeMask(0, 2, 1)

    def test_empty_window(self):
        assert shard_mask(RangeMask(0, 2, 1), 4, 7) is None
        assert shard_mask(RangeMask(5, 7, 1), 0, 3) is None

    def test_strided_alignment(self):
        # Stride 4 from 1: hits 1 and 5 -> one element per 4-wide shard.
        mask = RangeMask(1, 5, 4)
        assert shard_mask(mask, 0, 3) == RangeMask(1, 1, 4)
        assert shard_mask(mask, 4, 7) == RangeMask(1, 1, 4)

    def test_strided_missing_a_shard(self):
        # Stride 4 from 2: hits 2 and 6; window [3..5] catches neither...
        assert shard_mask(RangeMask(2, 2, 4), 4, 7) is None
        # ...but the owning windows rebase correctly.
        assert shard_mask(RangeMask(2, 6, 4), 4, 7) == RangeMask(2, 2, 4)


class TestConstruction:
    def test_worker_count_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            PooledBackend(CFG, workers=3)

    def test_worker_count_bounded_by_crossbars(self):
        with pytest.raises(ValueError, match="cannot shard"):
            PooledBackend(CFG, workers=16)

    def test_unknown_worker_backend(self):
        with pytest.raises(ValueError, match="unknown worker backend"):
            PooledBackend(CFG, workers=2, worker_backend="quantum")

    def test_make_backend_resolves_pooled(self):
        backend = make_backend("pooled", CFG, workers=2)
        assert isinstance(backend, PooledBackend)
        assert len(backend.workers) == 2
        assert backend.shard == 4

    def test_shared_word_image_views(self):
        pool = PooledBackend(CFG, workers=4)
        assert pool.words.shape == (8, CFG.registers, CFG.rows)
        for k in range(4):
            view = pool.workers[k].words
            assert view.base is pool.words or view.base is pool.words.base
            assert view.shape[0] == 2


def _program():
    """A stream exercising every routing class the pool distinguishes."""
    instrs = []
    for index in range(8 * 8):
        warp, thread = divmod(index, 8)
        instrs.append(WriteInstr(0, (index * 2654435761) & 0xFFFFFFFF,
                                 RangeMask.single(warp),
                                 RangeMask.single(thread)))
        instrs.append(WriteInstr(1, (index * 40503) & 0xFFFF,
                                 RangeMask.single(warp),
                                 RangeMask.single(thread)))
    # Shard-local compute on every warp, then a masked subset.
    instrs.append(RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1))
    instrs.append(RInstr(ROp.MUL, int32, dest=3, src_a=2, src_b=1,
                         warp_mask=RangeMask(1, 7, 2)))
    # Intra-warp move (stays inside one shard).
    instrs.append(MoveInstr(src_reg=2, dst_reg=4, src_thread=1, dst_thread=6,
                            warp_mask=RangeMask(0, 3, 1)))
    # Inter-warp move crossing the 2-worker shard boundary (a bridge).
    instrs.append(MoveInstr(src_reg=2, dst_reg=5, src_thread=2, dst_thread=2,
                            warp_mask=RangeMask(0, 3, 1), warp_dist=4))
    instrs.append(RInstr(ROp.SUB, int32, dest=6, src_a=5, src_b=1,
                         warp_mask=RangeMask(4, 7, 1)))
    return instrs


def _billed_only(driver):
    """Every stream-tier entry of ``driver`` is a bill-priced handle: no
    ``MicroProgram`` was lowered for a stream."""
    return all(
        isinstance(program, BilledProgram)
        for program in driver.streams._entries.values()
    )


def _run(backend, instrs):
    reads = []
    for instr in instrs:
        backend.execute(instr)
    for warp in (0, 3, 4, 7):
        for reg in (2, 3, 4, 5, 6):
            reads.append(backend.execute(ReadInstr(warp, 5, reg)))
    return reads


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_eager_parity_with_single_device(workers):
    single = SimulatorBackend(CFG)
    pool = PooledBackend(CFG, workers=workers)
    instrs = _program()
    assert _run(single, instrs) == _run(pool, instrs)
    assert np.array_equal(pool.words, single.words)
    assert pool.stats.cycles == single.stats.cycles
    assert pool.stats.op_counts == single.stats.op_counts


def test_bridge_reproduces_move_staging_residue():
    """Regression: the bridge must leave the *exact* memory image of the
    single device's inter-warp move lowering, including the staging
    registers on the destination warps (caught by fuzz seed 65537)."""
    single = SimulatorBackend(CFG)
    pool = PooledBackend(CFG, workers=2)
    instrs = [
        WriteInstr(0, 0xDEADBEEF, RangeMask.single(1), RangeMask.single(3)),
        MoveInstr(src_reg=0, dst_reg=2, src_thread=3, dst_thread=5,
                  warp_mask=RangeMask.single(1), warp_dist=4),
    ]
    for instr in instrs:
        single.execute(instr)
        pool.execute(instr)
    assert np.array_equal(pool.words, single.words)


def test_numpy_workers_match_simulator_results():
    """Functional workers: same reads and same accounting (the memory
    image legitimately differs — the numpy model skips scratch)."""
    single = SimulatorBackend(CFG)
    pool = PooledBackend(CFG, workers=4, worker_backend="numpy")
    instrs = _program()
    assert _run(single, instrs) == _run(pool, instrs)
    assert pool.stats.cycles == single.stats.cycles
    assert pool.stats.op_counts == single.stats.op_counts


class TestCompiledPath:
    def test_compile_replay_parity(self):
        single = SimulatorBackend(CFG)
        pool = PooledBackend(CFG, workers=2)
        instrs = _program() + [ReadInstr(5, 2, 5)]

        reference = single.compile(instrs, name="parity")
        pooled = pool.compile(instrs, name="parity")
        single_reads = [single.run_program(reference) for _ in range(3)]
        pooled_reads = [pool.run_program(pooled) for _ in range(3)]
        assert pooled_reads == single_reads
        assert np.array_equal(pool.words, single.words)
        assert pool.stats.cycles == single.stats.cycles

    def test_replays_are_not_lookups(self):
        """A replay of a program the caller holds touches no cache tier,
        on the pool's driver or its workers' — as on the simulator."""
        pool = PooledBackend(CFG, workers=2)
        program = pool.compile(_program(), name="hits")
        before = pool.cache_counters()
        pool.run_program(program)
        pool.run_program(program)
        assert pool.cache_counters() == before

    def test_response_site_returns_last_read(self):
        pool = PooledBackend(CFG, workers=4)
        instrs = [
            WriteInstr(0, 1234, RangeMask.single(6), RangeMask.single(1)),
            ReadInstr(0, 0, 0),   # an earlier read, different worker
            ReadInstr(6, 1, 0),   # the response: globally last read
        ]
        program = pool.compile(instrs, name="resp")
        assert pool.run_program(program) == 1234

    def test_stream_parity_and_caching(self):
        single = SimulatorBackend(CFG)
        pool = PooledBackend(CFG, workers=2)
        instrs = _program() + [ReadInstr(5, 2, 5)]
        assert pool.run_stream(instrs, name="s") == \
            single.run_stream(instrs, name="s")
        assert np.array_equal(pool.words, single.words)
        assert pool.stats.cycles == single.stats.cycles
        first = dict(pool.emit_counters())
        pool.run_stream(instrs, name="s")
        assert pool.emit_counters()["stream"] == first["stream"] + 1


    @pytest.mark.parametrize("worker_backend", ["numpy", "simulator"])
    def test_streams_are_priced_by_bills_not_lowered(
        self, worker_backend, tmp_path, monkeypatch
    ):
        """A stream with bridges and reads matches the single device and
        leaves no fused program behind: the pool's lowering driver and a
        numpy worker's hold only bill-priced handles, and ``cache_dir``
        only R-type bodies, whichever kind the workers are."""
        single = SimulatorBackend(CFG)
        instrs = _program() + [ReadInstr(5, 2, 5)]
        expected = [single.run_stream(instrs, name="s") for _ in range(2)]
        compiled = []  # the drivers of every R-type body built from here on
        build_rtype = Driver._build_rtype
        monkeypatch.setattr(
            Driver, "_build_rtype",
            lambda driver, gb, instr: compiled.append(driver)
            or build_rtype(driver, gb, instr),
        )
        pool = PooledBackend(CFG, workers=2, worker_backend=worker_backend,
                             cache_dir=str(tmp_path))
        assert [pool.run_stream(instrs, name="s") for _ in range(2)] == expected
        assert pool.stats == single.stats
        # Registers 0..6 are the program's; a numpy worker skips scratch.
        registers = slice(None) if worker_backend == "simulator" else slice(0, 7)
        assert np.array_equal(pool.words[:, registers], single.words[:, registers])

        billed = [pool] + [w for w in pool.workers if isinstance(w, BilledBackend)]
        assert all(_billed_only(backend.lowering) for backend in billed)
        # Every entry written to cache_dir is an R-type body: each body a
        # driver holds was stored by it or loaded from a twin, and every
        # probe that missed was a body compiled.
        drivers = [pool.lowering] + [w.lowering for w in pool.workers]
        counters = pool.persist_counters()
        bodies = sum(len(driver.programs) for driver in drivers)
        assert counters["stores"] > 0
        assert counters["stores"] + counters["loads"] == bodies
        assert counters["misses"] == len(compiled)


    @pytest.mark.parametrize("worker_backend", ["numpy", "simulator"])
    @pytest.mark.parametrize("seed", _seeds())
    def test_random_streams_match_the_single_device(self, seed, worker_backend):
        """The stream-conformance corpus (every instruction family, reads
        in the stream, all three move shapes) through ``run_stream``."""
        stream = random_stream(seed)
        single = SimulatorBackend(STREAM_CFG)
        pool = PooledBackend(STREAM_CFG, workers=2, worker_backend=worker_backend)
        for _ in range(2):
            assert pool.run_stream(stream) == single.run_stream(stream), seed
        assert pool.stats == single.stats, seed
        registers = (
            STREAM_CFG.registers if worker_backend == "simulator"
            else STREAM_CFG.user_registers
        )
        assert np.array_equal(
            pool.words[:, :registers], single.words[:, :registers]
        ), seed
        assert _billed_only(pool.lowering)


class TestCounters:
    def test_worker_stats_partition_the_work(self):
        """Both shards did real work (the program touches every warp).
        A worker's counters are its own, not the pool's books (the pool
        bills canonically), so they are read off the workers."""
        pool = PooledBackend(CFG, workers=2)
        for instr in _program():
            pool.execute(instr)
        assert all(worker.stats.cycles > 0 for worker in pool.workers)

    def test_persist_counters_empty_without_cache_dir(self):
        pool = PooledBackend(CFG, workers=2)
        assert pool.persist_counters() == {}

    def test_persist_counters_merge_across_workers(self, tmp_path):
        pool = PooledBackend(CFG, workers=2, cache_dir=str(tmp_path))
        pool.compile(_program(), name="persisted")
        counters = pool.persist_counters()
        assert counters.get("stores", 0) > 0

    def test_cache_evictions_surface(self):
        pool = PooledBackend(CFG, workers=2, cache_size=1)
        pool.execute(RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1))
        pool.execute(RInstr(ROp.MUL, int32, dest=3, src_a=0, src_b=1))
        pool.execute(RInstr(ROp.SUB, int32, dest=4, src_a=0, src_b=1))
        assert pool.cache_evictions > 0

    @pytest.mark.parametrize("worker_backend", ["numpy", "simulator"])
    def test_cache_counters_span_the_pool_and_its_workers(self, worker_backend):
        """Hits, misses and evictions are counted over one scope, the
        pool's driver plus its workers' (as ``persist_counters`` is), and
        the workers' tiers add to each of the three."""
        pool = PooledBackend(CFG, workers=2, worker_backend=worker_backend,
                             cache_size=1)
        add = RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)
        pool.execute(add)
        pool.execute(add)  # a stream-tier hit on the pool's driver
        pool.run_stream([add], name="other")  # body-tier hits on every driver
        pool.execute(RInstr(ROp.MUL, int32, dest=3, src_a=0, src_b=1))
        tiers = (pool.lowering.programs, pool.lowering.streams)
        own = [sum(getattr(tier, counter) for tier in tiers)
               for counter in ("hits", "misses", "evictions")]
        workers = [sum(column) for column in
                   zip(*(worker.cache_counters() for worker in pool.workers))]
        assert all(workers)
        assert pool.cache_counters() == tuple(map(sum, zip(own, workers)))

    def test_the_stream_tier_is_an_lru_not_a_cliff(self):
        """One stream more than the tier holds: the oldest is evicted and
        counted (once per tier that saw it), the newest is cached — before
        this was an LRU, stream 4097 and every later one was re-partitioned
        on each call — and every stream still matches a single device."""
        single = NumpyBackend(CFG)
        pool = PooledBackend(CFG, workers=2, worker_backend="numpy")
        add = RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=0)
        streams = [MacroStream([WriteInstr(0, value), add]) for value in range(4097)]
        for stream in streams:
            assert pool.run_stream(stream) == single.run_stream(stream)
        assert np.array_equal(pool.words, single.words)
        assert pool.stats == single.stats
        assert single.cache_evictions == 1
        assert pool.cache_evictions == 1 + len(pool.workers)
        tier = pool.lowering.streams
        assert len(tier) == 4096 and _billed_only(pool.lowering)
        hits, misses = tier.hits, tier.misses
        newest = pool._stream_program(streams[-1], "stream")
        assert pool._stream_program(streams[-1], "stream") is newest
        assert (tier.hits, tier.misses) == (hits + 2, misses)
        assert pool.cache_evictions == 1 + len(pool.workers)
        pool._stream_program(streams[0], "stream")  # the evicted oldest
        assert tier.misses == misses + 1

    @pytest.mark.parametrize("kind", ["numpy", "pooled-numpy", "pooled-simulator"])
    def test_cache_size_zero_keeps_no_stream(self, kind):
        """``cache_size=0`` turns a billed stream tier off as it does a
        driver's: each stream is priced afresh and none is kept, and the
        device stays bit- and cycle-identical to a cached one."""
        def make(**kwargs):
            if kind == "numpy":
                return NumpyBackend(CFG, **kwargs)
            return PooledBackend(CFG, workers=2,
                                 worker_backend=kind.split("-")[1], **kwargs)

        cached, uncached = make(), make(cache_size=0)
        instrs = MacroStream(_program() + [ReadInstr(5, 2, 5)])
        for _ in range(2):
            assert uncached.run_stream(instrs, name="s") == \
                cached.run_stream(instrs, name="s")
        assert np.array_equal(uncached.words, cached.words)
        assert uncached.stats == cached.stats
        assert uncached.emit_counters() == cached.emit_counters()
        assert uncached._stream_program(instrs, "s") is not \
            uncached._stream_program(instrs, "s")
        drivers = [uncached.lowering] + [
            worker.lowering for worker in getattr(uncached, "workers", ())
        ]
        assert all(len(driver.streams) == 0 for driver in drivers)


class TestShardFaults:
    """Crash containment: ShardError context, quarantine, failover."""

    def _golden(self):
        single = SimulatorBackend(CFG)
        reads = _run(single, _program())
        return reads, single.words.copy()

    def test_worker_exception_wrapped_with_shard_context(self):
        pool = PooledBackend(CFG, workers=4)

        def boom(arg):
            raise RuntimeError("kaput")

        pool.workers[2].execute = boom
        pool.workers[2].run_program = boom
        with pytest.raises(ShardError) as excinfo:
            _run(pool, _program())
        message = str(excinfo.value)
        assert "pool shard 2" in message
        assert "warps 4..5" in message
        assert "kaput" in message
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("worker_backend", ["numpy", "simulator"])
    def test_eager_crash_names_the_instruction(self, worker_backend):
        """An eager instruction runs as a one-instruction stream; a crash
        in it still names the instruction, not the stream's program."""
        pool = PooledBackend(CFG, workers=4, worker_backend=worker_backend)

        def boom(*args, **kwargs):
            raise RuntimeError("kaput")

        pool.workers[3].run_program = boom
        instr = RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1,
                       warp_mask=RangeMask(4, 7, 1))
        with pytest.raises(ShardError) as excinfo:
            pool.execute(instr)
        assert excinfo.value.shard == 3
        assert excinfo.value.context == str(instr)
        assert f"during {instr}" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_simulation_errors_are_not_wrapped(self):
        pool = PooledBackend(CFG, workers=2)
        from repro.sim.simulator import SimulationError

        with pytest.raises(SimulationError):
            # An illegal inter-warp H-tree pattern must surface as the
            # architectural rejection, not a shard crash.
            pool.execute(MoveInstr(src_reg=0, dst_reg=1, src_thread=0,
                                   dst_thread=0,
                                   warp_mask=RangeMask(0, 4, 1),
                                   warp_dist=3))

    def test_foreign_shard_program_is_refused_not_failed_over(self):
        from repro.faults import FaultPlan
        from repro.sim.simulator import SimulationError

        # Same full geometry, other shard layout: the pool admits the
        # program and the worker refuses its shard program. That is the
        # chip's deterministic refusal, not a crash to fail over from.
        program = PooledBackend(CFG, workers=2).compile(
            [RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)], optimize=False
        )
        pool = PooledBackend(CFG, workers=4)
        pool.install_faults(FaultPlan(CFG, seed=1, worker_failures=[(3, 99)]))
        with pytest.raises(SimulationError, match="fingerprint"):
            pool.run_program(program)
        assert pool.fault_counters().get("failovers", 0) == 0
        assert pool.quarantined_workers == []

    def test_injected_failure_fails_over_bit_identically(self):
        from repro.faults import FaultPlan

        golden_reads, golden_words = self._golden()
        pool = PooledBackend(CFG, workers=4)
        plan = FaultPlan(CFG, seed=2,
                         worker_failures=[(0, 3), (3, 10), (1, 0)])
        pool.install_faults(plan)
        reads = _run(pool, _program())
        assert reads == golden_reads
        np.testing.assert_array_equal(pool.words, golden_words)
        counters = pool.fault_counters()
        assert counters["worker_faults"] >= 1
        assert counters["failovers"] == counters["worker_faults"]
        assert counters["quarantined_shards"] == len(pool.quarantined_workers)

    def test_failover_on_compiled_replay(self):
        from repro.faults import FaultPlan

        golden_reads, golden_words = self._golden()
        pool = PooledBackend(CFG, workers=4)
        program = pool.compile(_program(), name="failover")
        plan = FaultPlan(CFG, seed=5, worker_failures=[(1, 0), (2, 1)])
        pool.install_faults(plan)
        # The replacement worker replays sub-programs compiled by the
        # worker it replaced — compiled programs are shard-portable.
        pool.run_program(program)
        np.testing.assert_array_equal(pool.words, golden_words)
        assert pool.fault_counters()["failovers"] >= 1

    def test_pool_checksum_verify_detects_corruption(self):
        from repro.faults import ChecksumError, FaultPlan

        pool = PooledBackend(CFG, workers=2)
        program = pool.compile(_program(), name="verified")
        pool.run_program(program, verify="checksum")  # clean
        plan = FaultPlan(CFG, seed=0, flips=[(1, 0, 0, 0, 0)])
        pool.install_faults(plan)
        with pytest.raises(ChecksumError):
            pool.run_program(program, verify="checksum")
        counters = pool.fault_counters()
        assert counters["verify_detected"] == 1
