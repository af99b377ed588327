"""Stream-conformance differential suite for whole-stream emission.

The stream emission compiler (:mod:`repro.driver.stream`) promises that
fusing a macro-instruction stream into one cached plan changes *nothing*
observable except host dispatch cost: memory state, ``SimStats``, read
responses, and the driver's macro/micro counters must be bit-identical
to op-by-op lowering (a ``cache_size=0`` driver, which can build no
plan), on every backend.  This suite checks that promise differentially:

- seeded random macro streams (R-type across dtypes, masked writes,
  moves of every shape, in-stream reads) are emitted as one plan, macro
  by macro through ``Driver.execute`` (one-instruction plans), and
  lowered op-by-op on fresh simulators, and compared bit for bit;
- the spliced stream compiler (``Driver.compile``) is checked op-for-op
  against the reference per-macro lowering (``emit="macro"``) at both
  ``optimize`` flags;
- the numpy backend's fused ``run_stream`` is compared against its own
  per-instruction loop (memory image and cycle bill);
- the chip contract itself — ``execute_program(p)`` is the loop over
  ``execute(op)`` — is checked on both chips (``Simulator`` and
  ``BufferSink``), and the two kinds of stream without a plan (a
  disabled cache, more than ``MAX_PLAN_MACROS`` macros) are shown to
  produce identical results through ``Driver._execute_lowered`` without
  touching the stream tier, while ``emit_counters`` attributes the
  emission level.

On failure the offending stream is dumped to ``fuzz_artifacts/``
(override with ``REPRO_FUZZ_ARTIFACT_DIR``), like the integration fuzz
suite does.
"""

import json
import os
import random

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.backend.base import family
from repro.driver.compiler import CompileError
from repro.driver.driver import DEFAULT_CACHE_SIZE, BufferSink, Driver
from repro.driver import stream as stream_mod
from repro.driver.program import MicroProgram
from repro.driver.stream import MacroStream
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import (
    ARITY,
    SUPPORT_MATRIX,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
)
from repro.sim.simulator import ReplayPlan, Simulator

CFG = small_config(crossbars=4, rows=8)

SEEDS = [11, 1729, 40961, 65537, 99991]

INT_OPS = [
    ROp.ADD, ROp.SUB, ROp.MUL, ROp.LT, ROp.EQ,
    ROp.BIT_AND, ROp.BIT_XOR, ROp.NEG, ROp.ABS,
]
FLOAT_OPS = [ROp.ADD, ROp.MUL, ROp.LT]


def _artifact_dir() -> str:
    return os.environ.get(
        "REPRO_FUZZ_ARTIFACT_DIR",
        os.path.join(os.path.dirname(__file__), "..", "..", "fuzz_artifacts"),
    )


def _dump_stream(seed: int, context: str, stream, error: BaseException) -> None:
    os.makedirs(_artifact_dir(), exist_ok=True)
    path = os.path.join(_artifact_dir(), f"stream_seed_{seed}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "seed": seed,
                "context": context,
                "error": repr(error),
                "stream": [repr(instr) for instr in stream],
            },
            handle,
            indent=2,
        )


def _random_mask(rng: random.Random, length: int) -> RangeMask:
    start = rng.randrange(length)
    return RangeMask(start, rng.randrange(start, length), 1)


def random_stream(seed: int, length: int = 14) -> MacroStream:
    """A seeded random macro stream touching every instruction family.

    Starts with masked writes (so later arithmetic chews on non-zero
    data) and sprinkles in-stream reads, moves of all three shapes, and
    R-type macros over both dtypes with random mask patterns.
    """
    rng = random.Random(seed)
    user = CFG.user_registers
    instrs = [
        WriteInstr(
            rng.randrange(user), rng.getrandbits(32),
            _random_mask(rng, CFG.crossbars), _random_mask(rng, CFG.rows),
        )
        for _ in range(3)
    ]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            dtype = int32 if rng.random() < 0.7 else float32
            op = rng.choice(INT_OPS if dtype is int32 else FLOAT_OPS)
            arity = ARITY[op]
            regs = [rng.randrange(user) for _ in range(1 + arity)]
            instrs.append(
                RInstr(
                    op, dtype, dest=regs[0], src_a=regs[1],
                    src_b=regs[2] if arity >= 2 else None,
                    src_c=regs[3] if arity >= 3 else None,
                    warp_mask=(
                        _random_mask(rng, CFG.crossbars)
                        if rng.random() < 0.4 else None
                    ),
                    row_mask=(
                        _random_mask(rng, CFG.rows)
                        if rng.random() < 0.4 else None
                    ),
                )
            )
        elif roll < 0.7:
            instrs.append(
                WriteInstr(rng.randrange(user), rng.getrandbits(32))
            )
        elif roll < 0.85:
            shape = rng.randrange(3)
            src, dst = rng.randrange(user), rng.randrange(user)
            if shape == 0:  # same-thread register copy
                thread = rng.randrange(CFG.rows)
                instrs.append(MoveInstr(src, dst, thread, thread))
            elif shape == 1:  # intra-warp thread move
                instrs.append(
                    MoveInstr(
                        src, dst,
                        rng.randrange(CFG.rows), rng.randrange(CFG.rows),
                        warp_mask=_random_mask(rng, CFG.crossbars),
                    )
                )
            else:  # inter-warp H-tree move
                warp = rng.randrange(CFG.crossbars - 1)
                instrs.append(
                    MoveInstr(
                        src, dst,
                        rng.randrange(CFG.rows), rng.randrange(CFG.rows),
                        warp_mask=RangeMask.single(warp),
                        warp_dist=rng.randrange(1, CFG.crossbars - warp),
                    )
                )
        else:
            instrs.append(
                ReadInstr(
                    rng.randrange(CFG.crossbars),
                    rng.randrange(CFG.rows),
                    rng.randrange(user),
                )
            )
    return MacroStream(instrs)


def per_macro_reference(stream, loops: int = 1):
    """The ground truth: a fresh simulator fed macro by macro, every
    macro lowered and forwarded op-by-op (``cache_size=0``: no plans)."""
    sim = Simulator(CFG)
    driver = Driver(sim, cache_size=0)
    response = None
    for _ in range(loops):
        for instr in stream:
            result = driver.execute(instr)
            if result is not None:
                response = result
    return sim, driver, response


def stream_emission(stream, loops: int = 1, **kwargs):
    """The path under test: ``execute_stream`` on a fresh simulator."""
    sim = Simulator(CFG)
    driver = Driver(sim, **kwargs)
    response = None
    for _ in range(loops):
        response = driver.execute_stream(stream)
    return sim, driver, response


def assert_conformant(seed, stream, context, reference, candidate):
    """Bit-identical memory, identical SimStats, counters, and response."""
    sim_ref, driver_ref, response_ref = reference
    sim_new, driver_new, response_new = candidate
    try:
        assert response_new == response_ref
        assert np.array_equal(sim_new.memory.words, sim_ref.memory.words)
        assert sim_new.stats == sim_ref.stats
        assert driver_new.macro_count == driver_ref.macro_count
        assert driver_new.micro_count == driver_ref.micro_count
    except AssertionError as exc:
        _dump_stream(seed, context, stream, exc)
        raise


class TestEmitModeResolution:
    """There is no emission knob: a stream is emitted as a plan when the
    driver can keep one (cache on, at most ``MAX_PLAN_MACROS`` macros) and
    lowered op-by-op otherwise."""

    def test_default_is_stream(self, monkeypatch):
        monkeypatch.setenv("REPRO_DRIVER_EMIT", "macro")  # leftover: ignored
        _, driver, _ = stream_emission(random_stream(SEEDS[1]))
        assert driver.emit_counters == {"stream": 1, "macro": 0}

    def test_env_selects_fallback(self):
        # ``cache_size=0`` selects the unplanned path: without a cache
        # there is nowhere to keep a plan.
        _, driver, _ = stream_emission(random_stream(SEEDS[1]), cache_size=0)
        assert driver.emit_counters == {"stream": 0, "macro": 1}

    def test_explicit_mode_beats_env(self, monkeypatch):
        # ``cache_size=`` is the one way to size the cache: a leftover
        # REPRO_CACHE_SIZE is ignored, set or not.
        monkeypatch.setenv("REPRO_CACHE_SIZE", "0")
        _, driver, _ = stream_emission(random_stream(SEEDS[1]))
        assert driver.emit_counters == {"stream": 1, "macro": 0}
        assert driver.streams.maxsize == DEFAULT_CACHE_SIZE
        _, driver, _ = stream_emission(random_stream(SEEDS[1]), cache_size=64)
        assert driver.streams.maxsize == 64

    def test_unknown_mode_names_source(self):
        with pytest.raises(ValueError, match="'eager'"):
            Driver(Simulator(CFG)).compile([], emit="eager")

    def test_modes_tuple_is_the_contract(self):
        # Both keys always present: bench/ and pim.Profiler read them.
        assert tuple(Driver(Simulator(CFG)).emit_counters) == ("stream", "macro")


class TestSplicedCompileParity:
    """The spliced stream compiler must reproduce the reference lowering."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("optimize", [False, True])
    def test_spliced_matches_legacy(self, seed, optimize):
        stream = random_stream(seed)
        driver = Driver(Simulator(CFG))
        spliced = driver.compile(stream, optimize=optimize, emit="stream")
        legacy = driver.compile(stream, optimize=optimize, emit="macro")
        try:
            # Spliced, optimized and billed as word columns, against the
            # reference lowered, optimized and walked as op objects.
            assert spliced._ops is None and legacy._ops is not None
            assert np.array_equal(
                spliced.encoded(CFG.word_size), legacy.encoded(CFG.word_size)
            )
            assert spliced.bill(CFG) == legacy.bill(CFG)
            assert spliced._ops is None
            assert list(spliced.ops) == list(legacy.ops)
            assert spliced.reads == legacy.reads
            assert spliced.macros == legacy.macros == len(stream)
            assert spliced.source_ops == legacy.source_ops
        except AssertionError as exc:
            _dump_stream(seed, f"compile optimize={optimize}", stream, exc)
            raise

    def test_spliced_checks_mask_ranges(self):
        # The spliced path skips full stream validation (bodies are valid
        # by construction) but must still reject the out-of-range masks
        # the legacy validation pass would have caught.
        bad_warp = RInstr(
            ROp.ADD, int32, dest=0, src_a=1, src_b=2,
            warp_mask=RangeMask(0, CFG.crossbars, 1),
        )
        bad_row = RInstr(
            ROp.ADD, int32, dest=0, src_a=1, src_b=2,
            row_mask=RangeMask(0, CFG.rows, 1),
        )
        for instr in (bad_warp, bad_row):
            for emit in ("stream", "macro"):
                driver = Driver(Simulator(CFG))
                with pytest.raises(CompileError):
                    driver.compile([instr], emit=emit)

    def test_compile_populates_stream_tier(self):
        driver = Driver(Simulator(CFG))
        stream = random_stream(SEEDS[0])
        first = driver.compile(stream)
        again = driver.compile(stream)
        assert again is first  # stream-tier cache hit, not a recompile
        assert driver.streams.hits == 1


class TestStreamExecutionConformance:
    """execute_stream versus op-by-op lowering, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_mode_matches_per_macro(self, seed):
        stream = random_stream(seed)
        candidate = stream_emission(stream, loops=3)
        assert_conformant(
            seed, stream, "stream emission",
            per_macro_reference(stream, loops=3), candidate,
        )
        assert candidate[1].emit_counters == {"stream": 3, "macro": 0}
        assert candidate[0].replay_counters == {"vectorized": 3, "reference": 0}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_macro_mode_matches_per_macro(self, seed):
        # Driver.execute: every R-type macro is its own one-instruction
        # plan; moves, reads and writes are lowered op-by-op.
        stream = random_stream(seed)
        sim = Simulator(CFG)
        driver = Driver(sim)
        response = None
        for _ in range(2):
            for instr in stream:
                result = driver.execute(instr)
                if result is not None:
                    response = result
        assert_conformant(
            seed, stream, "eager per-macro plans",
            per_macro_reference(stream, loops=2), (sim, driver, response),
        )
        rtypes = sum(isinstance(instr, RInstr) for instr in stream)
        assert driver.emit_counters == {
            "stream": 2 * rtypes, "macro": 2 * (len(stream) - rtypes),
        }
        assert sim.replay_counters == {"vectorized": 2 * rtypes, "reference": 0}

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_both_replay_engines(self, seed, engine):
        """One fused plan program through both ``execute_program`` outcomes."""
        stream = random_stream(seed)
        sim = Simulator(CFG)
        driver = Driver(sim)
        program = driver.compile(stream, optimize=False)  # a plan's program
        if engine == "reference":
            # what a non-self-masked verdict memoizes: no steps, no stats
            sim._plans[program] = ReplayPlan(None, None)
        response = driver.run_program(program)
        assert_conformant(
            seed, stream, f"replay route {engine}",
            per_macro_reference(stream), (sim, driver, response),
        )
        assert sim.replay_counters[engine] == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uncached_driver_matches(self, seed):
        # cache_size=0 cannot build plans; execute_stream must still be
        # bit-identical to the per-macro loop (and attributed to the
        # macro level).
        stream = random_stream(seed)
        candidate = stream_emission(stream, cache_size=0)
        assert_conformant(
            seed, stream, "cache disabled",
            per_macro_reference(stream), candidate,
        )
        driver = candidate[1]
        assert driver.emit_counters == {"stream": 0, "macro": 1}
        assert len(driver.streams) == 0
        assert (driver.streams.hits, driver.streams.misses) == (0, 0)

    def test_plain_tuple_and_list_share_the_plan(self):
        # MacroStream equality is tuple equality: re-emitting the same
        # instructions from a plain list must hit the cached plan.
        stream = random_stream(SEEDS[0])
        sim = Simulator(CFG)
        driver = Driver(sim)
        driver.execute_stream(stream)
        misses = driver.streams.misses
        driver.execute_stream(list(stream))
        driver.execute_stream(tuple(stream))
        assert driver.streams.misses == misses
        assert driver.emit_counters["stream"] == 3

    def test_read_response_is_last_read(self):
        write = WriteInstr(0, 0xDEAD_BEEF, RangeMask.single(1),
                           RangeMask.single(2))
        stream = [
            write,
            ReadInstr(0, 0, 0),           # reads a zeroed cell
            ReadInstr(1, 2, 0),           # the written word: must win
        ]
        for cache_size in (None, 0):
            _, _, response = stream_emission(stream, cache_size=cache_size)
            assert response == 0xDEAD_BEEF


class TestMacroIsOneInstructionStream:
    """``execute(instr)`` ≡ ``execute_stream([instr])`` ≡ op-by-op lowering,
    for every R-type op and dtype, under non-default warp *and* row masks
    that change between calls of the same instruction (a cached body must
    act on the masks of the call, never on those it was first spliced
    behind)."""

    MASKS = [
        (RangeMask(1, 3, 2), RangeMask(0, 6, 3)),
        (RangeMask(0, 2, 1), RangeMask(1, 7, 2)),
    ]
    DISPATCH = {
        "execute": ({}, lambda driver, instr: driver.execute(instr)),
        "stream": ({}, lambda driver, instr: driver.execute_stream([instr])),
        "lowered": ({"cache_size": 0},
                    lambda driver, instr: driver.execute(instr)),
    }

    @pytest.mark.parametrize(
        "op,dtype",
        [(op, dtype) for op, dtypes in SUPPORT_MATRIX.items() for dtype in dtypes],
        ids=lambda value: getattr(value, "name", None),
    )
    def test_all_three_agree(self, op, dtype):
        sources = {"src_a": 0, "src_b": 1, "src_c": 2}
        operands = dict(list(sources.items())[: ARITY[op]])
        first, second = (
            RInstr(op, dtype, dest=4, warp_mask=warps, row_mask=rows, **operands)
            for warps, rows in self.MASKS
        )
        calls = [first, second, first]  # same body, masks changed and back

        seeded = np.random.default_rng(23).integers(
            0, 1 << 32, size=Simulator(CFG).memory.words.shape, dtype=np.uint64
        )
        on_sim, on_sink = {}, {}
        for label, (kwargs, dispatch) in self.DISPATCH.items():
            sim = Simulator(CFG)
            sim.memory.words[...] = seeded.astype(sim.memory.dtype)
            driver = Driver(sim, **kwargs)
            responses = [dispatch(driver, instr) for instr in calls]
            on_sim[label] = (
                sim.memory.words.copy(), sim.stats.copy(), responses,
                driver.macro_count, driver.micro_count,
            )
            sink = BufferSink(CFG)
            emitter = Driver(sink, config=CFG, **kwargs)
            for instr in calls:
                dispatch(emitter, instr)
            on_sink[label] = (sink.count, sink.buffer[: sink.count].copy())

        ref_words, ref_stats, *ref_rest = on_sim["lowered"]
        ref_count, ref_buffer = on_sink["lowered"]
        for label in ("execute", "stream"):
            words, stats, *rest = on_sim[label]
            assert np.array_equal(words, ref_words), label
            assert stats == ref_stats, label
            assert rest == ref_rest, label
            count, buffer = on_sink[label]
            assert count == ref_count, label
            assert np.array_equal(buffer, ref_buffer), label
        # Threads neither mask pair selects kept their seeded destination.
        for warp, thread in ((0, 0), (3, 1)):
            assert ref_words[warp, 4, thread] == seeded[warp, 4, thread]


#: Operand aliasing shapes of an R-type body: (dest, src_a, src_b, src_c).
ALIASES = {
    "distinct": (4, 0, 1, 2), "dest=a": (0, 0, 1, 2),
    "dest=b": (1, 0, 1, 2), "a=b": (4, 0, 0, 2),
}


class TestBodiesAreBornAsWords:
    """A body is the packed rows of its gates: for every R-type op, dtype,
    operand aliasing and parallelism mode, ``encode_rows`` of what the
    builder recorded is ``encode_many`` of the op objects those rows
    spell — and it is the cached body program, which holds no object."""

    @pytest.mark.parametrize("parallelism", ["parallel", "serial"])
    @pytest.mark.parametrize(
        "op,dtype,alias",
        [(op, dtype, alias) for op, dtypes in SUPPORT_MATRIX.items()
         for dtype in dtypes for alias in ALIASES
         if ARITY[op] >= 2 or alias in ("distinct", "dest=a")],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_packed_rows_are_the_encoded_ops(self, op, dtype, alias, parallelism):
        from repro.arch.micro_ops import LogicHOp, encode_many, encode_rows
        from repro.driver.gates import GateBuilder

        dest, *sources = ALIASES[alias]
        operands = dict(zip(("src_a", "src_b", "src_c"), sources[: ARITY[op]]))
        instr = RInstr(op, dtype, dest=dest, **operands)
        driver = Driver(None, config=CFG, parallelism=parallelism)
        builder, rows = GateBuilder.recording(CFG)
        driver._build_rtype(builder, instr)
        words = encode_rows(rows)
        assert np.array_equal(
            words, encode_many([LogicHOp(*row) for row in rows], CFG.word_size)
        )
        body = driver._rtype_program(instr)
        assert body._ops is None and body.source_ops == len(body) == len(rows)
        assert rows or (op, alias) == (ROp.COPY, "dest=a")  # a copy onto itself
        assert np.array_equal(body.encoded(CFG.word_size), words)

    def test_the_tallest_geometry_splices_and_a_taller_one_is_no_chip(self, tmp_path):
        """4096 rows fill the row field: masks reaching row 4095 (and the
        widest step) splice as words, store, and replay bit- and
        cycle-identically to op-by-op lowering. One row more is a chip the
        64-bit interface cannot address: refused as a configuration."""
        from repro.arch.config import PIMConfig

        with pytest.raises(ValueError, match="rows=4097 exceeds the 4096"):
            PIMConfig(crossbars=1, rows=4097)
        tall = PIMConfig(crossbars=1, rows=4096)
        stream = [
            WriteInstr(0, 7, None, RangeMask(0, 4095, 4095)),
            RInstr(ROp.BIT_NOT, int32, dest=1, src_a=0),
            RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1,
                   row_mask=RangeMask(2048, 4095, 1)),
            # One index, whatever step the slice that made it carried.
            WriteInstr(3, 9, None, RangeMask(5, 5, 5000)),
        ]
        sim, reference = Simulator(tall), Simulator(tall)
        driver = Driver(sim, cache_dir=str(tmp_path))
        lowered = Driver(reference, cache_size=0)
        for optimize in (False, True):
            spliced = driver.compile(stream, optimize=optimize)
            macro = driver.compile(stream, optimize=optimize, emit="macro")
            assert spliced._ops is None
            assert np.array_equal(
                spliced.encoded(tall.word_size), macro.encoded(tall.word_size)
            )
            assert spliced.bill(tall) == macro.bill(tall)
        driver.execute_stream(stream)
        for instr in stream:
            lowered.execute(instr)
        assert np.array_equal(sim.memory.words, reference.memory.words)
        assert sim.stats == reference.stats
        assert sim.memory.words[0, 2, 4095] == 0xFFFFFFFF  # 7 + ~7
        assert sim.memory.words[0, 3, 5] == 9
        # Two bodies and three compiled streams: the verbatim splice is
        # the in-memory stream plan, never persisted.
        counters = driver.persist.counters()
        assert counters["stores"] == 5 and counters["invalid"] == 0

    def test_a_wide_write_never_reaches_the_splicer(self):
        """A ``word_size=64`` write of ``2**54`` or more — wider than the
        word's value field — is not an ISA write (raw values are 32-bit):
        both lowerings refuse the instruction before lowering it."""
        from repro.arch.config import PIMConfig

        wide = PIMConfig(crossbars=4, rows=8, columns=2048, word_size=64)
        driver = Driver(Simulator(wide))
        for emit in ("stream", "macro"):
            with pytest.raises(ValueError, match="raw 32-bit word"):
                driver.compile([WriteInstr(0, 1 << 54)], emit=emit)
        with pytest.raises(ValueError, match="raw 32-bit word"):
            driver.execute_stream([WriteInstr(0, 1 << 54)])
        fits = driver.compile([WriteInstr(0, (1 << 32) - 1)])
        assert fits._ops is None and len(fits) == 3


class TestNumpyBackendConformance:
    """The numpy backend's fused run_stream versus its per-macro loop."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_run_stream_matches_execute_loop(self, seed):
        stream = random_stream(seed)
        images, stats, responses, counters = [], [], [], []
        for fused in (True, False):
            device = pim.init(
                crossbars=CFG.crossbars, rows=CFG.rows, backend="numpy",
            )
            response = None
            for _ in range(2):
                if fused:
                    response = device.execute_stream(list(stream))
                    continue
                for instr in stream:
                    result = device.backend.execute(instr)
                    if result is not None:
                        response = result
            images.append(device.backend.words.copy())
            stats.append(device.backend.stats.copy())
            responses.append(response)
            counters.append(family(device.backend.counters(), "emit"))
            pim.reset()
        try:
            assert responses[0] == responses[1]
            assert np.array_equal(images[0], images[1])
            assert stats[0] == stats[1]
        except AssertionError as exc:
            _dump_stream(seed, "numpy backend", stream, exc)
            raise
        assert counters[0] == {"stream": 2, "macro": 0}
        # An eager instruction is a one-instruction stream emission.
        assert counters[1] == {"stream": 2 * len(stream), "macro": 0}


class TestChipContract:
    """The driver's one chip interface: ``execute_program(p)`` is the loop
    over ``execute(op)`` — same state left behind, same last read response."""

    @staticmethod
    def _program() -> MicroProgram:
        program = Driver(None, config=CFG).compile(
            random_stream(SEEDS[0]), optimize=False
        )
        assert program.reads  # read responses are part of the contract
        return program

    @pytest.mark.parametrize("chip_cls", [Simulator, BufferSink])
    def test_execute_program_is_the_execute_loop(self, chip_cls):
        program = self._program()
        if chip_cls is Simulator:
            whole, looped = Simulator(CFG), Simulator(CFG)
        else:
            # The program fits, its second copy wraps around the end.
            capacity = len(program) * 3 // 2
            whole = BufferSink(CFG, capacity=capacity)
            looped = BufferSink(CFG, capacity=capacity)
        for _ in range(2):
            response = whole.execute_program(program)
            expected = None
            for op in program:
                result = looped.execute(op)
                if result is not None:
                    expected = result
            assert response == expected and response is not None
        if chip_cls is Simulator:
            assert np.array_equal(whole.memory.words, looped.memory.words)
            assert whole.stats == looped.stats
        else:
            assert whole.count == looped.count == 2 * len(program)
            assert np.array_equal(whole.buffer, looped.buffer)

    def test_block_longer_than_the_sink(self):
        # What bench/workloads.py's deep check relies on: a block longer
        # than the buffer leaves its last ``capacity`` words, from index 0.
        program = self._program()
        capacity = len(program) // 3
        sink = BufferSink(CFG, capacity=capacity)
        assert sink.execute_program(program) == 0
        assert sink.count == len(program)
        words = program.encoded(CFG.word_size)
        assert np.array_equal(sink.buffer, words[-capacity:])


class TestFallbackLadder:
    def test_batch_sink_with_reads_is_unsupported(self):
        # What used to be unsupported: a sink answers a program with reads
        # exactly as its ``execute`` answers a ReadOp (0), so a stream with
        # reads is planned there like any other.
        stream = MacroStream([
            WriteInstr(0, 7),
            ReadInstr(0, 0, 0),
        ])
        sink = BufferSink(CFG)
        driver = Driver(sink, config=CFG)
        for emitted in (1, 2):
            assert driver.execute_stream(stream) == 0
            assert driver.emit_counters == {"stream": emitted, "macro": 0}
        assert (driver.streams.hits, driver.streams.misses) == (1, 1)
        lowered = BufferSink(CFG)
        reference = Driver(lowered, config=CFG, cache_size=0)
        for _ in range(2):
            assert reference.execute_stream(stream) == 0
        assert sink.count == lowered.count
        assert np.array_equal(sink.buffer, lowered.buffer)

    def test_batch_sink_without_reads_takes_batch_route(self):
        # Same word-for-word buffer contents as op-by-op lowering, but
        # through one fused pre-encoded block.
        stream = MacroStream([
            WriteInstr(0, 3),
            RInstr(ROp.ADD, int32, dest=1, src_a=0, src_b=0),
            RInstr(ROp.LT, int32, dest=2, src_a=1, src_b=0),
        ])
        sink_stream = BufferSink(CFG)
        fused = Driver(sink_stream, config=CFG)
        fused.execute_stream(stream)
        assert fused.emit_counters["stream"] == 1

        sink_macro = BufferSink(CFG)
        ladder = Driver(sink_macro, config=CFG, cache_size=0)
        ladder.execute_stream(stream)
        assert ladder.emit_counters["macro"] == 1

        assert sink_stream.count == sink_macro.count
        assert np.array_equal(
            sink_stream.buffer[: sink_stream.count],
            sink_macro.buffer[: sink_macro.count],
        )
        assert (fused.macro_count, fused.micro_count) == (
            ladder.macro_count, ladder.micro_count
        )

    def test_overlong_stream_is_lowered_macro_by_macro(self):
        # A plan lives as long as the stream tier holds it, so streams
        # beyond MAX_PLAN_MACROS (a bulk move of one move per element)
        # never get one: decided by length, before any cache lookup.
        limit = stream_mod.MAX_PLAN_MACROS
        writes = [WriteInstr(0, value) for value in range(limit + 1)]
        sim = Simulator(CFG)
        driver = Driver(sim)
        driver.execute_stream(MacroStream(writes[:limit]))
        assert driver.emit_counters == {"stream": 1, "macro": 0}
        tier = (len(driver.streams), driver.streams.hits, driver.streams.misses)
        assert tier == (1, 0, 1)
        overlong = MacroStream(writes)
        driver.execute_stream(overlong)
        driver.execute_stream(overlong)
        assert driver.emit_counters == {"stream": 1, "macro": 2}
        assert tier == (
            len(driver.streams), driver.streams.hits, driver.streams.misses
        )
        reference, _, _ = per_macro_reference(writes[:limit] + 2 * writes)
        assert np.array_equal(sim.memory.words, reference.memory.words)
        assert sim.stats == reference.stats

    def test_empty_stream_is_a_no_op(self):
        driver = Driver(Simulator(CFG))
        assert driver.execute_stream([]) is None
        assert driver.emit_counters == {"stream": 0, "macro": 0}
        assert driver.macro_count == 0

    def test_build_plan_shapes(self):
        # A stream's plan is its fused program, held by the stream tier.
        sim = Simulator(CFG)
        driver = Driver(sim)
        stream = random_stream(SEEDS[3])
        driver.execute_stream(stream)
        key = ("plan", stream, "stream", driver.parallelism,
               driver._fingerprint)
        plan = driver.streams.get(key, durable=False)
        assert isinstance(plan, MicroProgram)
        assert plan.macros == len(stream)
        assert plan.reads == sum(
            1 for instr in stream if isinstance(instr, ReadInstr)
        )
        assert plan.self_masked and plan.source_ops == len(plan)
        assert (driver.macro_count, driver.micro_count) == (
            len(stream), len(plan)
        )
        assert sim.replay_plan(plan) is not None  # the chip's plan of it


class TestCountersAndProfiler:
    def test_simulator_backend_emit_counters(self):
        stream = random_stream(SEEDS[4], length=6)
        device = pim.init(crossbars=CFG.crossbars, rows=CFG.rows)
        try:
            with pim.Profiler(device) as prof:
                device.execute_stream(list(stream))
                device.execute_stream(list(stream))
            assert prof.counters["emit.stream"] == 2
            assert "emit.macro" not in prof.counters
            assert device.backend.counters()["emit.stream"] == 2
        finally:
            pim.reset()

    def test_profiler_reports_macro_fallback(self):
        stream = random_stream(SEEDS[4], length=6)
        device = pim.init(crossbars=CFG.crossbars, rows=CFG.rows,
                          cache_size=0)
        try:
            with pim.Profiler(device) as prof:
                device.execute_stream(list(stream))
            assert family(prof.counters, "emit") == {"macro": 1}
        finally:
            pim.reset()

    @pytest.mark.parametrize("backend,workers", [
        ("simulator", {}), ("numpy", {}),
        ("pooled", {"worker_backend": "numpy"}),
        ("pooled", {"worker_backend": "simulator"}),
    ], ids=["simulator", "numpy", "pooled-numpy", "pooled-simulator"])
    def test_every_dispatch_unit_is_counted(self, backend, workers):
        # An eager program with a read, an element write and a scalar
        # broadcast: every backend counts the same number of dispatch
        # units, whichever route (plan or op by op) served each one.
        device = pim.init(crossbars=4, rows=16, backend=backend, **workers)
        try:
            x = pim.from_numpy(np.arange(64, dtype=np.float32))
            y = pim.from_numpy(np.full(64, 0.5, dtype=np.float32))
            with pim.Profiler(device) as prof:
                (x * y + x)[::2].sum()
                x[3] = 5.0
                x + 1.0
            assert sum(family(prof.counters, "emit").values()) == 17
        finally:
            pim.reset()
