"""A program is its words: the one-representation invariant.

Every ``MicroProgram`` any public path builds holds a 1-D ``np.uint64``
array of operation words, so every program is storable
(``PersistentProgramCache.store``), shippable
(``BufferSink.execute_program``) and plannable — over both fuzz corpora
(the stream-conformance streams and the differential-fuzz programs) and
every R-type op x dtype. The words round-trip at the geometry limits the
fields fix, and checksum regions are a fold over the words that equals
the op-by-op walk it replaced (kept here as the reference) without
decoding a gate.
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch import micro_ops
from repro.arch.config import PIMConfig, small_config
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
)
from repro.backend.base import family
from repro.driver.compiler import compile_ops
from repro.driver.driver import BufferSink, Driver
from repro.driver.persist import PersistentProgramCache
from repro.driver.program import MicroProgram
from repro.faults.checksum import written_regions
from repro.isa.instructions import ARITY, SUPPORT_MATRIX, RInstr, ROp
from repro.sim.simulator import Simulator

from tests.driver.test_stream_emission import SEEDS, random_stream
from tests.integration import test_differential_fuzz as fuzz
from tests.sim.test_replay import _random_self_masked_ops

CFG = small_config(crossbars=4, rows=8)


def _assert_is_its_words(program, config, store, key):
    """Words, shippable, storable — and so is what the store hands back."""
    words = program.encoded(config.word_size)
    assert isinstance(words, np.ndarray) and words.dtype == np.uint64
    assert words.ndim == 1 and len(words) == len(program)
    sink = BufferSink(config, capacity=len(words) + 1)
    assert sink.execute_program(program) == (0 if program.reads else None)
    assert sink.count == len(words)
    assert np.array_equal(sink.buffer[: len(words)], words)
    stores = store.stores
    store.store(key, program)
    assert store.stores == stores + 1
    restored = store.load(key)
    assert restored._ops is None
    assert np.array_equal(restored.encoded(config.word_size), words)
    assert restored.bill(config) == program.bill(config)


def _every_program_of(driver, stream):
    """The programs every public path builds of one stream."""
    for emit in ("stream", "macro"):
        for optimize in (False, True):
            yield driver.compile(stream, optimize=optimize, emit=emit)
    driver.execute_stream(stream)  # into the sink: the plan ships as words
    plans = [
        plan for key, plan in driver.streams._entries.items() if key[0] == "plan"
    ]
    assert plans
    yield from plans
    for instr in stream:
        if isinstance(instr, RInstr):
            yield driver._rtype_program(instr)


class TestEveryProgramHasWords:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_conformance_corpus(self, seed, tmp_path):
        driver = Driver(BufferSink(CFG))
        store = PersistentProgramCache(str(tmp_path), CFG)
        for index, program in enumerate(_every_program_of(driver, random_stream(seed))):
            _assert_is_its_words(program, CFG, store, ("invariant", seed, index))

    @pytest.mark.parametrize("seed", fuzz._seeds())
    def test_differential_fuzz_corpus(self, seed, tmp_path):
        desc, int_inputs, float_inputs, _ = fuzz.build_case(seed)
        program = fuzz.make_program(desc)
        pim.init(crossbars=fuzz.CROSSBARS, rows=fuzz.ROWS)
        try:
            tensors = fuzz._fresh_inputs(int_inputs, float_inputs)
            func = pim.compile(lambda *args: program(*args), opt_level=0)
            stream = tuple(func.graph_for(*tensors).instructions)
        finally:
            pim.reset()
        config = small_config(crossbars=fuzz.CROSSBARS, rows=fuzz.ROWS)
        driver = Driver(BufferSink(config))
        store = PersistentProgramCache(str(tmp_path), config)
        for index, built in enumerate(_every_program_of(driver, stream)):
            _assert_is_its_words(built, config, store, ("invariant", seed, index))

    @pytest.mark.parametrize("parallelism", ["parallel", "serial"])
    def test_every_rtype_body(self, parallelism, tmp_path):
        driver = Driver(None, config=CFG, parallelism=parallelism)
        store = PersistentProgramCache(str(tmp_path), CFG)
        bodies = 0
        for op in ROp:
            for dtype in SUPPORT_MATRIX[op]:
                sources = dict(zip(("src_a", "src_b", "src_c"), (1, 2, 3)[: ARITY[op]]))
                body = driver._rtype_program(RInstr(op, dtype, dest=4, **sources))
                assert body._ops is None
                _assert_is_its_words(body, CFG, store, (op, dtype.name, parallelism))
                bodies += 1
        assert bodies >= 40


#: The widest chip the operation word addresses, with 64-bit words.
LIMIT = PIMConfig(crossbars=1 << 18, rows=4096, columns=8192, word_size=64)
_XB, _ROW, _REG, _PART = (1 << 18) - 1, 4095, 127, 63
AT_THE_LIMITS = [
    CrossbarMaskOp(_XB, _XB, 1), CrossbarMaskOp(0, _XB, _XB),
    RowMaskOp(_ROW, _ROW, 1), RowMaskOp(0, _ROW, _ROW),
    ReadOp(_REG), WriteOp(_REG, (1 << 54) - 1),
    LogicHOp(GateType.NOR, _REG, _REG, _REG, _PART, _PART, _PART, _PART, _PART),
    LogicHOp(GateType.INIT1, 0, 0, _REG, 0, 0, 0, _PART, 1),
    LogicVOp(GateType.NOT, _ROW, _ROW, _REG), LogicVOp(GateType.INIT0, 0, _ROW, _REG),
    MoveOp(_XB, _ROW, _ROW, _REG, _REG), MoveOp(-_XB, _ROW, 0, _REG, 0),
]
BEYOND_THE_LIMITS = [
    CrossbarMaskOp(0, _XB + 1, 1), RowMaskOp(0, _ROW + 1, 1), ReadOp(_REG + 1),
    WriteOp(0, 1 << 54), LogicHOp(GateType.INIT1, 0, 0, 0, 0, 0, 0, _PART + 1, 1),
    LogicVOp(GateType.INIT1, 0, _ROW + 1, 0), MoveOp(_XB + 1, 0, 0, 0, 0),
]


class TestWordsRoundTripAtTheLimits:
    def test_every_kind_at_its_widest(self):
        assert {type(op) for op in AT_THE_LIMITS} == set(micro_ops._KIND_OF)
        words = micro_ops.encode_many(AT_THE_LIMITS, LIMIT.word_size)
        assert micro_ops.decode_many(words, LIMIT.word_size) == tuple(AT_THE_LIMITS)
        assert [micro_ops.encode(op, 64) for op in AT_THE_LIMITS] == words.tolist()
        # All of it is valid for the widest chip, and a program like any other.
        program = compile_ops(AT_THE_LIMITS, LIMIT, optimize=False)
        assert program.ops == tuple(AT_THE_LIMITS)
        assert micro_ops.decode_many(program.encoded(64), 64) == program.ops
        assert micro_ops.decode(micro_ops.encode(WriteOp(0, (1 << 32) - 1))) \
            == WriteOp(0, (1 << 32) - 1)

    @pytest.mark.parametrize("op", BEYOND_THE_LIMITS, ids=lambda op: type(op).__name__)
    def test_one_more_fits_no_word(self, op):
        with pytest.raises(ValueError, match="does not fit"):
            micro_ops.encode_many([op], LIMIT.word_size)
        with pytest.raises(ValueError):
            MicroProgram.from_ops([op], "beyond", LIMIT)


def _regions_by_op_walk(ops, config):
    """The op-by-op walk ``written_regions`` was before it read words."""
    full_xb = (0, config.crossbars - 1, 1)
    full_row = (0, config.rows - 1, 1)
    xb, row = full_xb, full_row
    regions = []
    for op in ops:
        if isinstance(op, CrossbarMaskOp):
            xb = (op.start, op.stop, op.step)
        elif isinstance(op, RowMaskOp):
            row = (op.start, op.stop, op.step)
        elif isinstance(op, WriteOp):
            regions.append((op.index, xb, row))
        elif isinstance(op, LogicHOp):
            regions.append((op.out, xb, row))
        elif isinstance(op, LogicVOp):
            regions.append((op.index, xb, (op.out_row, op.out_row, 1)))
        elif isinstance(op, MoveOp):
            start = max(0, xb[0] + op.dist)
            stop = min(config.crossbars - 1, xb[1] + op.dist)
            if stop >= start and (stop - start) % xb[2] == 0:
                dst_xb = (start, stop, xb[2])
            else:
                dst_xb = (start, max(start, stop), 1)
            regions.append((op.dst_index, dst_xb, (op.dst_row, op.dst_row, 1)))
    return regions


class TestRegionsAreAFoldOverWords:
    @staticmethod
    def _assert_same_regions(program, config):
        twin = MicroProgram(
            program.encoded(config.word_size).copy(), "twin",
            program.config_fingerprint,
        )
        regions = written_regions(twin, config)
        assert twin._ops is None  # no gate was decoded to find them
        assert len(set(regions)) == len(regions) > 0
        assert set(regions) == set(_regions_by_op_walk(program.ops, config))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spliced_optimized_and_body_programs(self, seed):
        driver = Driver(None, config=CFG)
        stream = random_stream(seed)
        for optimize in (False, True):
            self._assert_same_regions(driver.compile(stream, optimize=optimize), CFG)
        for instr in stream:
            if isinstance(instr, RInstr):  # caller-set masks: the full range
                body = driver._rtype_program(instr)
                if len(body):
                    self._assert_same_regions(body, CFG)

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_built_programs(self, seed):
        config = small_config(crossbars=16, rows=8)
        ops = _random_self_masked_ops(np.random.default_rng(seed), config, 200)
        ops += [  # a vertical gate, and moves clipped at either end of the chip
            LogicVOp(GateType.NOT, 1, 6, 3),
            CrossbarMaskOp(1, 13, 4), MoveOp(5, 0, 2, 1, 2), MoveOp(-3, 0, 2, 1, 2),
            CrossbarMaskOp(0, 15, 1), MoveOp(15, 1, 1, 0, 0),
        ]
        self._assert_same_regions(MicroProgram.from_ops(ops, "hand", config), config)


class TestVerifiedReplayDecodesNoGate:
    def test_spliced_and_restored_programs(self, tmp_path, monkeypatch):
        from repro.driver import compiler, program as program_module

        stream = random_stream(SEEDS[0])
        Driver(Simulator(CFG), cache_dir=str(tmp_path)).compile(stream)
        decoded = []

        def decode_many(words, *args):
            decoded.append(words)
            return micro_ops.decode_many(words, *args)

        for module in (compiler, program_module):
            monkeypatch.setattr(module, "decode_many", decode_many)
        cold = Driver(Simulator(CFG))
        warm = Driver(Simulator(CFG), cache_dir=str(tmp_path))
        for driver, loads in ((cold, 0), (warm, 1)):
            program = driver.compile(stream)
            assert (driver.persist.loads if driver.persist else 0) == loads
            for _ in range(2):
                driver.run_program(program, verify="checksum")
            assert driver.verify_tally == {"verify_checks": 2}
            assert program._ops is None
        assert np.array_equal(cold.chip.memory.words, warm.chip.memory.words)
        assert decoded
        assert not any(micro_ops.is_logic_h(words).any() for words in decoded)


def test_a_one_index_mask_of_any_step_splices():
    """``t[5:6:5000]`` is one index: its mask op is a word like any other."""
    device = pim.init(crossbars=4, rows=8)
    try:
        tensor = pim.from_numpy(np.arange(32, dtype=np.int32))
        view = tensor[5:6:5000]
        assert view._mask == RangeMask.single(5)
        assert (view + view).to_numpy().tolist() == [10]
        assert family(device.backend.counters(), "emit")["stream"] >= 1
    finally:
        pim.reset()
