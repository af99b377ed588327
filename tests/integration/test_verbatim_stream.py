"""One verbatim stream, one program, on every backend.

An ``optimize=False`` compile is the stream program ``run_stream``
dispatches (kept in memory only, never persisted); a pool shard's part of
a segment is, whatever the pool was compiled under, its simulator
worker's stream program or, on a numpy worker, an unpriced handle of its
localized instructions (the pool bills the stream whole); a stream is
refused whole, the same way, before anything of it runs (over an image
seeded from ``REPRO_FUZZ_SEEDS``, like the fuzz suites); and every
dispatch unit — planned, or lowered op by op — closes exactly one fault
window.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.backend import NumpyBackend, SimulatorBackend
from repro.backend.base import family
from repro.backend.numpy_backend import FunctionalProgram
from repro.driver.compiler import CompileError
from repro.driver.stream import MAX_PLAN_MACROS
from repro.faults import FaultPlan, resolve_fault_seed
from repro.isa.dtypes import int32
from repro.isa.instructions import MoveInstr, ReadInstr, RInstr, ROp, WriteInstr
from repro.pool import PooledBackend
from repro.sim.simulator import SimulationError
from repro.sim.stats import SimStats
from tests.integration.test_differential_fuzz import _seeds

CFG = small_config(crossbars=4, rows=8)

BACKENDS = {
    "simulator": lambda **kw: SimulatorBackend(CFG, **kw),
    "numpy": lambda **kw: NumpyBackend(CFG, **kw),
    "pooled-numpy": lambda **kw: PooledBackend(
        CFG, workers=2, worker_backend="numpy", **kw
    ),
    "pooled-simulator": lambda **kw: PooledBackend(
        CFG, workers=2, worker_backend="simulator", **kw
    ),
}


def _stream():
    """Writes, masked R-types, an intra-warp move, a bridge and a read."""
    return [
        WriteInstr(0, 0x1234),
        WriteInstr(1, 77, RangeMask(1, 3, 2)),
        RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
        RInstr(ROp.MUL, int32, dest=3, src_a=2, src_b=1,
               warp_mask=RangeMask(1, 3, 1)),
        MoveInstr(2, 4, 1, 6, RangeMask(0, 1, 1)),
        MoveInstr(3, 5, 2, 2, RangeMask(0, 1, 1), warp_dist=2),
        RInstr(ROp.SUB, int32, dest=6, src_a=5, src_b=1),
        ReadInstr(3, 2, 6),
    ]


@pytest.mark.parametrize("kind", BACKENDS)
def test_a_verbatim_compile_is_the_stream_program(kind):
    backend = BACKENDS[kind]()
    stream = _stream()
    program = backend.compile(stream, name="s", optimize=False)
    assert program is backend._stream_program(stream, "s")
    misses = backend.lowering.streams.misses
    backend.run_stream(stream, name="s")
    assert backend.lowering.streams.misses == misses


def _shard_parts(pool, stream, name):
    """``(worker, localized part, part name)`` of every shard part of a
    stream, cut at its bridges as the pool cuts it."""
    parts, pending, segment = [], {}, 0
    for instr in stream + [None]:
        if instr is None or (isinstance(instr, MoveInstr) and instr.warp_dist):
            if pending:
                parts += [(k, sub, f"{name}#s{segment}w{k}")
                          for k, sub in sorted(pending.items())]
                pending, segment = {}, segment + 1
            segment += instr is not None  # the bridge's own segment
            continue
        for k, local in pool._localize(instr):
            pending.setdefault(k, []).append(local)
    return parts


def _pool_parts(program):
    return [(k, sub) for segment in program.segments
            if segment.kind == "shard" for k, sub in segment.programs]


def test_simulator_shards_replay_their_stream_programs():
    pool = PooledBackend(CFG, workers=2, worker_backend="simulator")
    stream = _stream()
    for optimize in (True, False):
        program = pool.compile(stream, name=f"o{optimize:d}", optimize=optimize)
        parts = _shard_parts(pool, stream, program.name)
        assert [k for k, _ in _pool_parts(program)] == [k for k, _, _ in parts]
        for (k, sub_program), (_, sub, name) in zip(_pool_parts(program), parts):
            assert sub_program is pool.workers[k]._stream_program(sub, name)
    for worker in pool.workers:
        assert not any(key[0] == "stream" for key in worker.lowering.streams._entries)


def test_numpy_shards_replay_their_localized_instructions_unpriced():
    """A numpy worker's part is a replay handle, not a stream-tier entry:
    exactly the localized instructions, billed nothing, and nothing was
    lowered or cached on the worker to make it."""
    pool = PooledBackend(CFG, workers=2, worker_backend="numpy")
    stream = _stream()
    for optimize in (True, False):
        program = pool.compile(stream, name=f"o{optimize:d}", optimize=optimize)
        parts = _shard_parts(pool, stream, program.name)
        assert [k for k, _ in _pool_parts(program)] == [k for k, _, _ in parts]
        for (_, sub_program), (_, sub, name) in zip(_pool_parts(program), parts):
            assert type(sub_program) is FunctionalProgram
            assert sub_program.name == name
            assert sub_program.instructions == tuple(sub)
            assert sub_program.stats_delta == SimStats()
            assert (sub_program.macros, sub_program.source_ops) == (len(sub), 0)
    for worker in pool.workers:
        assert len(worker.lowering.streams) == len(worker.lowering.programs) == 0


@pytest.mark.parametrize("kind", ["simulator", "numpy", "pooled"])
def test_an_o0_session_persists_only_bodies(kind, tmp_path):
    device = pim.init(crossbars=4, rows=8, backend=kind, cache_dir=str(tmp_path))
    try:
        a = np.arange(-16, 16, dtype=np.int32)
        b = np.arange(1, 33, dtype=np.int32)
        fn = pim.compile(lambda x, y: x * y + x, opt_level=0)
        out = fn(pim.from_numpy(a), pim.from_numpy(b))
        np.testing.assert_array_equal(pim.to_numpy(out), a * b + a)
    finally:
        pim.reset()
    keys = []
    for entry in os.listdir(tmp_path):
        with open(os.path.join(tmp_path, entry), "rb") as handle:
            keys.append(json.loads(handle.readline())["key"])
    assert keys, "the R-type bodies are persisted"
    assert not [key for key in keys if key.startswith("('stream',")]


REFUSED = {
    "move": MoveInstr(0, 1, 0, 99, RangeMask(0, 0, 1), 0),
    "move-htree": MoveInstr(0, 1, 0, 0, RangeMask(0, 1, 1), 1),
    "rtype": RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1,
                    warp_mask=RangeMask(0, CFG.crossbars, 1)),
}


@pytest.mark.parametrize("bad", REFUSED)
@pytest.mark.parametrize("kind", BACKENDS)
def test_a_stream_is_refused_whole_before_anything_runs(kind, bad):
    backend = BACKENDS[kind]()
    backend.words[...] = np.random.default_rng(_seeds()[0]).integers(
        0, 1 << 32, size=backend.words.shape, dtype=np.uint64
    ).astype(backend.words.dtype)
    stream = [WriteInstr(0, 5), RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=0),
              REFUSED[bad]]
    # Range checks raise CompileError; an H-tree pattern, the chip's walk.
    error = SimulationError if bad == "move-htree" else CompileError
    words, stats = backend.words.copy(), backend.stats.copy()
    with pytest.raises(error):
        backend.run_stream(stream)
    with pytest.raises(error):
        backend.compile(stream, optimize=False)
    assert np.array_equal(backend.words, words)
    assert backend.stats == stats


@pytest.mark.parametrize("macros", [3, MAX_PLAN_MACROS + 1])
def test_one_fault_window_per_stream_on_every_route(macros):
    """Planned, plan-less (``cache_size=0``, or longer than
    ``MAX_PLAN_MACROS``), billed and pooled: a stream run twice ticks the
    overlay twice, so a flip scheduled at tick 3 never lands."""
    seed = resolve_fault_seed(0)
    rng = np.random.default_rng(seed)
    user = CFG.user_registers
    moves = []
    for _ in range(macros):
        src, dst = (int(r) for r in rng.choice(user, size=2, replace=False))
        moves.append(MoveInstr(src, dst, int(rng.integers(0, CFG.rows)),
                               int(rng.integers(0, CFG.rows))))
    data = rng.integers(0, 1 << 32, size=(CFG.crossbars, user, CFG.rows),
                        dtype=np.uint64).astype(np.uint32)
    flips = [
        (tick, int(rng.integers(0, CFG.crossbars)), int(rng.integers(0, user)),
         int(rng.integers(0, CFG.rows)), int(rng.integers(0, CFG.word_size)))
        for tick in (1, 2, 3)
    ]
    results = {}
    for kind, make in BACKENDS.items():
        for cache_size in (None, 0):
            backend = make(cache_size=cache_size)
            backend.words[:, :user] = data
            backend.install_faults(FaultPlan(CFG, seed=seed, flips=flips))
            for _ in range(2):
                backend.run_stream(moves)
            results[kind, cache_size] = (
                family(backend.counters(), "fault"),
                backend.words[:, :user].copy(), backend.stats,
            )
    counters, words, stats = results["simulator", None]
    assert counters["ticks"] == 2 and counters["flips"] == 2, seed
    for route, (route_counters, route_words, route_stats) in results.items():
        assert route_counters == counters, (seed, route)
        assert np.array_equal(route_words, words), (seed, route)
        assert route_stats == stats, (seed, route)
