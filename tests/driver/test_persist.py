"""Tests for the cross-session persistent program cache.

The durability contract of :mod:`repro.driver.persist` is "never crash,
never replay stale": a warm-started session must skip gate building when
the on-disk entry is valid, and must silently fall back to a cold
compile — with bit-identical results — for *any* damaged cache state:

- corrupt files (garbage bytes where an entry should be);
- truncated files (a writer killed mid-entry without the atomic rename);
- a header and a payload that disagree (word count, checksum);
- format-version skew (entries from an older repo revision, including
  the v2 JSON+base64 files);
- config-fingerprint mismatch (entries compiled for another geometry);
- key collisions (a file whose embedded key repr is not the probed key);
- a damaged plan section: a flipped bit, a truncated section, another
  program's section of the same shapes, array lengths in the header
  disagreeing with the payload — and a v4 entry, which has none, or a
  v5 entry, whose bill carries a cycle count.

An entry is a one-line JSON header, a newline, the raw ``<u8`` operation
words and, from a simulator session, the replay plan's integer columns;
loading it builds no op object, and the program it restores carries the
bill that was stored with it.

On assertion failure the offending cache directory is dumped to
``fuzz_artifacts/`` (override with ``REPRO_FUZZ_ARTIFACT_DIR``) so the
bad entry can be inspected offline.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

import repro.pim as pim
from repro.arch import micro_ops
from repro.arch.config import PIMConfig, small_config
from repro.arch.micro_ops import GateType, LogicHOp, encode
from repro.backend.base import family
from repro.driver.driver import Driver
from repro.driver.persist import (
    FORMAT_VERSION,
    PLAN_ARRAYS,
    PersistentProgramCache,
    resolve_cache_dir,
)
from repro.backend import SimulatorBackend
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import RInstr, ROp
from repro.sim.simulator import Simulator


CFG = small_config(crossbars=4, rows=8)


def _artifact_dir() -> str:
    return os.environ.get(
        "REPRO_FUZZ_ARTIFACT_DIR",
        os.path.join(os.path.dirname(__file__), "..", "..", "fuzz_artifacts"),
    )


@contextmanager
def _artifacts_on_failure(cache_dir, label):
    """Copy the cache directory into ``fuzz_artifacts/`` on failure."""
    try:
        yield
    except BaseException:
        directory = os.path.join(_artifact_dir(), f"persist_{label}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(os.path.dirname(directory), exist_ok=True)
        shutil.copytree(str(cache_dir), directory, dirs_exist_ok=True)
        raise


def fresh_cache(tmp_path, config=CFG):
    return PersistentProgramCache(str(tmp_path), config)


def compiled_program(config=CFG):
    driver = Driver(Simulator(config))
    return driver.compile(
        [RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
         RInstr(ROp.MUL, int32, dest=3, src_a=2, src_b=1)],
        name="persist-test",
    )


KEY = ("body", "add-mul", 32)

#: A stream whose entry carries a plan, and the same stream on other
#: registers: a plan section of the very same shapes.
PLANNED = (RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1),
           RInstr(ROp.MUL, int32, dest=3, src_a=2, src_b=1))
RELABELED = (RInstr(ROp.ADD, int32, dest=5, src_a=0, src_b=1),
             RInstr(ROp.MUL, int32, dest=6, src_a=5, src_b=1))


def _planned_session(cache_dir, stream=PLANNED):
    """One simulator session: compile ``stream`` (through ``cache_dir``,
    if given) and replay it on seeded memory: ``(image, driver, plan)``."""
    sim = Simulator(CFG)
    sim.memory.words[...] = np.random.default_rng(5).integers(
        0, 2**32, sim.memory.words.shape, dtype=np.uint64)
    driver = Driver(sim, cache_dir=None if cache_dir is None else str(cache_dir))
    program = driver.compile(list(stream), name="planned")
    driver.run_program(program)
    return sim.memory.words.copy(), driver, sim.replay_plan(program)


def read_entry(path):
    """An entry file as ``(header dict, payload bytes)``."""
    head, _, payload = open(path, "rb").read().partition(b"\n")
    return json.loads(head), payload


def write_entry(path, header, payload):
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n" + payload)


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = fresh_cache(tmp_path)
        program = compiled_program()
        cache.store(KEY, program)
        restored = cache.load(KEY)
        assert restored is not None
        assert restored.ops == program.ops
        assert restored.name == program.name
        assert restored.reads == program.reads
        assert restored.macros == program.macros
        assert restored.source_ops == program.source_ops
        assert restored.config_fingerprint == program.config_fingerprint
        assert cache.counters() == {
            "loads": 1, "misses": 0, "invalid": 0, "stores": 1,
        }

    def test_load_decodes_nothing_until_ops_are_used(self, tmp_path, monkeypatch):
        """A restored program is its words and its bill: pricing it and
        shipping it as words build no op object; ``.ops`` decodes once.
        (So is the compiled program it was stored from: neither holds an
        op object until asked.)"""
        cache = fresh_cache(tmp_path)
        program = compiled_program()
        cache.store(KEY, program)
        decodes = []
        decode_many = micro_ops.decode_many
        monkeypatch.setattr(
            "repro.driver.program.decode_many",
            lambda words, size: decodes.append(len(words))
            or decode_many(words, size),
        )
        monkeypatch.setattr(
            "repro.sim.simulator.accounting_walk",
            lambda *args, **kwargs: pytest.fail("a carried bill is not re-walked"),
        )
        restored = cache.load(KEY)
        assert len(restored) == len(program)
        assert restored.bill(CFG) == program.bill(CFG)
        assert np.array_equal(
            restored.encoded(CFG.word_size), program.encoded(CFG.word_size)
        )
        assert decodes == [] and restored._ops is None and program._ops is None
        ops = restored.ops
        assert decodes == [len(program)] and restored.ops is ops
        assert ops == program.ops and program.ops is program.ops
        assert decodes == [len(program)] * 2

    def test_stored_bill_itemizes_htree_hops(self, tmp_path):
        """The bill is stored once, as the walk makes it: per-kind counts
        (a cycle is one micro-op), the H-tree hops beyond one cycle per
        move, and the gates."""
        from repro.isa.instructions import MoveInstr
        from repro.arch.masks import RangeMask
        from repro.sim.simulator import accounting_walk

        move = MoveInstr(0, 1, 2, 3, RangeMask(0, 0, 1), 3)
        stored = Driver(Simulator(CFG)).compile([move])
        fresh_cache(tmp_path).store(KEY, stored)
        restored = fresh_cache(tmp_path).load(KEY)
        bill = restored.bill(CFG)
        assert bill == accounting_walk(stored.ops, CFG)
        assert bill.htree_hop_cycles > 0 and bill.cycles == bill.micro_ops
        header, _ = read_entry(fresh_cache(tmp_path)._path(KEY))
        assert header["bill"] == [
            bill.op_counts, bill.htree_hop_cycles, bill.gates_executed
        ]

    def test_cold_probe_counts_miss(self, tmp_path):
        cache = fresh_cache(tmp_path)
        assert cache.load(KEY) is None
        assert cache.counters()["misses"] == 1

    def test_entries_survive_a_new_cache_instance(self, tmp_path):
        program = compiled_program()
        fresh_cache(tmp_path).store(KEY, program)
        # A second instance models a second process: same dir, no state.
        warm = fresh_cache(tmp_path)
        restored = warm.load(KEY)
        assert restored is not None and restored.ops == program.ops
        assert warm.counters()["loads"] == 1

    def test_wrong_fingerprint_never_stored(self, tmp_path):
        other = small_config(crossbars=8, rows=8)
        program = Driver(Simulator(other)).compile(
            [RInstr(ROp.ADD, int32, dest=2, src_a=0, src_b=1)], name="p"
        )
        cache = fresh_cache(tmp_path)  # CFG cache, foreign program
        cache.store(KEY, program)
        assert cache.counters()["stores"] == 0
        assert os.listdir(tmp_path) == []


class TestInvalidation:
    """Each damaged state must read as a cold miss and heal the cache."""

    def _stored(self, tmp_path):
        cache = fresh_cache(tmp_path)
        cache.store(KEY, compiled_program())
        [name] = os.listdir(tmp_path)
        return cache, os.path.join(str(tmp_path), name)

    def _assert_rejected(self, tmp_path, cache, path, label):
        with _artifacts_on_failure(tmp_path, label):
            assert cache.load(KEY) is None
            assert cache.counters()["invalid"] == 1
            assert not os.path.exists(path), "invalid entry must be deleted"
            # The cache heals: a fresh store round-trips again.
            cache.store(KEY, compiled_program())
            assert cache.load(KEY) is not None

    def test_corrupt_file(self, tmp_path):
        cache, path = self._stored(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"\x00\xffnot json at all\x80")
        self._assert_rejected(tmp_path, cache, path, "corrupt")

    def test_truncated_file(self, tmp_path):
        cache, path = self._stored(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        self._assert_rejected(tmp_path, cache, path, "truncated")

    def test_version_skew(self, tmp_path):
        cache, path = self._stored(tmp_path)
        header, payload = read_entry(path)
        header["version"] = FORMAT_VERSION + 1
        write_entry(path, header, payload)
        self._assert_rejected(tmp_path, cache, path, "version_skew")

    def test_v2_json_entry_is_a_miss_and_heals(self, tmp_path):
        """A v2 session's JSON+base64 file is never parsed: the key reads
        as a plain miss, and the v3 store of that key removes it."""
        import base64

        cache = fresh_cache(tmp_path)
        program = compiled_program()
        legacy = cache._path(KEY)[: -len(".bin")] + ".json"
        words = program.encoded(CFG.word_size).astype("<u8").tobytes()
        json.dump({
            "version": 2, "key": repr(KEY), "fingerprint": list(cache.fingerprint),
            "word_size": CFG.word_size, "name": program.name, "reads": 0,
            "macros": 2, "source_ops": program.source_ops,
            "ops": base64.b64encode(words).decode("ascii"),
        }, open(legacy, "w"))
        with _artifacts_on_failure(tmp_path, "v2_entry"):
            assert cache.load(KEY) is None
            assert cache.counters()["misses"] == 1
            assert cache.counters()["invalid"] == 0
            cache.store(KEY, program)
            assert os.listdir(tmp_path) == [os.path.basename(cache._path(KEY))]
            assert cache.load(KEY).ops == program.ops

    def test_truncated_payload(self, tmp_path):
        cache, path = self._stored(tmp_path)
        header, payload = read_entry(path)
        write_entry(path, header, payload[:-8])  # still whole words
        self._assert_rejected(tmp_path, cache, path, "truncated_payload")

    def test_header_payload_length_mismatch(self, tmp_path):
        cache, path = self._stored(tmp_path)
        header, payload = read_entry(path)
        header["words"] += 1
        write_entry(path, header, payload)
        self._assert_rejected(tmp_path, cache, path, "length_mismatch")

    def test_flipped_payload_bit(self, tmp_path):
        cache, path = self._stored(tmp_path)
        header, payload = read_entry(path)
        damaged = bytearray(payload)
        damaged[len(damaged) // 2] ^= 0x10
        write_entry(path, header, bytes(damaged))
        self._assert_rejected(tmp_path, cache, path, "bit_flip")

    def test_payload_decoding_to_an_invalid_op(self, tmp_path):
        """An entry that passes every load check but whose words are not
        ops is caught when the replay plan is built from its word columns
        — the constructor invariants ``decode_many`` runs, with its
        message, and no op decoded — before any memory changes."""
        import zlib

        cache, path = self._stored(tmp_path)
        header, payload = read_entry(path)
        # p_step = 0: the word encode() itself refuses to produce.
        good = encode(LogicHOp(GateType.INIT1, 0, 0, 3, 0, 0, 0, 31, 1))
        bad = good & ~(0x3F << (2 + 3 * 7 + 4 * 6))
        payload = payload[:-8] + int(bad).to_bytes(8, "little")
        header["crc32"] = zlib.crc32(payload)
        write_entry(path, header, payload)
        program = cache.load(KEY)
        assert program is not None and len(program) == header["words"]
        sim = Simulator(CFG)
        before = sim.memory.words.copy()
        with pytest.raises(ValueError, match="p_step") as raised:
            sim.execute_program(program)
        assert np.array_equal(sim.memory.words, before)
        assert sim.stats.cycles == 0 and program._ops is None
        with pytest.raises(ValueError) as decoded:
            micro_ops.decode_many(program.encoded(CFG.word_size))
        assert str(raised.value) == str(decoded.value)

    # -- the plan section (format v5+): a miss that heals, never a wrong plan

    def _planned(self, tmp_path, stream=PLANNED):
        """A simulator session's entry for ``stream`` (with its plan
        section): ``(path, header, payload)``, and the plan's offset."""
        _planned_session(tmp_path, stream)
        [(path, header, payload)] = [
            (path, *read_entry(path)) for path in
            (os.path.join(str(tmp_path), name) for name in os.listdir(tmp_path))
            if read_entry(path)[0]["name"] == "planned"
        ]
        assert [array[0] for array in header["plan"]] == [n for n, _ in PLAN_ARRAYS]
        return path, header, payload, 8 * header["words"]

    def _assert_heals(self, tmp_path, path, label):
        """The damaged entry is counted invalid; the session recompiles,
        replays bit-identically to golden and re-stores the entry, which
        the next session loads, plan and all."""
        golden = _planned_session(None)[0]
        with _artifacts_on_failure(tmp_path, label):
            image, driver, plan = _planned_session(tmp_path)
            counters = driver.persist.counters()
            assert counters["invalid"] == 1 and counters["stores"] == 1
            assert np.array_equal(image, golden) and plan.source == "derived"
            image, driver, plan = _planned_session(tmp_path)
            assert driver.persist.counters() == {
                "loads": 1, "misses": 0, "invalid": 0, "stores": 0}
            assert np.array_equal(image, golden) and plan.source == "loaded"

    def test_flipped_plan_bit(self, tmp_path):
        path, header, payload, plan = self._planned(tmp_path)
        damaged = bytearray(payload)
        damaged[plan + (len(payload) - plan) // 2] ^= 0x04
        write_entry(path, header, bytes(damaged))
        self._assert_heals(tmp_path, path, "plan_bit_flip")

    def test_truncated_plan_section(self, tmp_path):
        path, header, payload, plan = self._planned(tmp_path)
        payload = payload[: plan + (len(payload) - plan) // 3]
        header["crc32"] = zlib.crc32(payload)
        write_entry(path, header, payload)
        self._assert_heals(tmp_path, path, "plan_truncated")

    def test_plan_spliced_from_another_program(self, tmp_path):
        """Another program's plan section of the very same shapes, CRC
        recomputed: only the words it names tell it apart."""
        path, header, payload, plan = self._planned(tmp_path)
        other = tmp_path / "other"
        _, other_header, other_payload, other_plan = self._planned(other, RELABELED)
        assert other_header["plan"] == header["plan"]
        assert other_payload[other_plan:] != payload[plan:]
        payload = payload[:plan] + other_payload[other_plan:]
        header["crc32"] = zlib.crc32(payload)
        write_entry(path, header, payload)
        self._assert_heals(tmp_path, path, "plan_spliced")

    def test_plan_lengths_disagree_with_the_payload(self, tmp_path):
        """Four bytes moved from ``ids`` to ``steps`` in the header: the
        payload and its CRC still match, the arrays no longer do."""
        path, header, payload, _ = self._planned(tmp_path)
        shapes = {name: shape for name, _, shape in header["plan"]}
        shapes["ids"][0] -= 1
        shapes["steps"][0] += 1
        write_entry(path, header, payload)
        self._assert_heals(tmp_path, path, "plan_lengths")

    def test_v4_entry_is_a_miss_that_heals(self, tmp_path):
        """A v4 entry (words alone, no plan section) under this key."""
        path, header, payload, plan = self._planned(tmp_path)
        header["version"] = 4
        del header["plan"]
        header["crc32"] = zlib.crc32(payload[:plan])
        write_entry(path, header, payload[:plan])
        self._assert_heals(tmp_path, path, "v4_entry")

    def test_v5_entry_is_a_miss_that_heals(self, tmp_path):
        """A v5 entry (its bill carries a cycle count) under this key."""
        path, header, payload, _ = self._planned(tmp_path)
        counts, hops, gates = header["bill"]
        header["version"] = 5
        header["bill"] = [counts, sum(counts.values()) + hops, hops, gates]
        write_entry(path, header, payload)
        self._assert_heals(tmp_path, path, "v5_entry")

    def test_fingerprint_mismatch(self, tmp_path):
        _, path = self._stored(tmp_path)
        # A cache for a different geometry probing the same directory.
        other = fresh_cache(tmp_path, small_config(crossbars=8, rows=8))
        # Same key -> same filename; the embedded fingerprint differs.
        assert other._path(KEY) == path
        with _artifacts_on_failure(tmp_path, "fingerprint"):
            assert other.load(KEY) is None
            assert other.counters()["invalid"] == 1

    def test_key_collision(self, tmp_path):
        cache, path = self._stored(tmp_path)
        other_key = ("body", "something-else", 32)
        os.replace(path, cache._path(other_key))
        with _artifacts_on_failure(tmp_path, "collision"):
            # The embedded key repr does not match the probed key.
            assert cache.load(other_key) is None
            assert cache.counters()["invalid"] == 1

    def test_missing_ops_field(self, tmp_path):
        cache, path = self._stored(tmp_path)
        header, _ = read_entry(path)
        write_entry(path, header, b"")
        self._assert_rejected(tmp_path, cache, path, "missing_payload")

    @pytest.mark.parametrize("field", ["bill", "words", "crc32", "key"])
    def test_missing_header_field(self, tmp_path, field):
        cache, path = self._stored(tmp_path)
        header, payload = read_entry(path)
        del header[field]
        write_entry(path, header, payload)
        self._assert_rejected(tmp_path, cache, path, f"missing_{field}")


def test_the_plan_column_encoding_is_pinned():
    """What a v6 plan section's integers mean: the lane-program opcodes,
    the record and plane-step key layouts, the plane-step gate codes and
    the arrays. Change any of them and stored plans mean something else."""
    from repro.sim import replay

    def fused(code):
        table = np.array([(replay.OPCODES.index((GateType.INIT1, 0, 0)), 3, 3, 0, 3, 0, 0),
                          (code, 3, 0, 0, 1, 0, 0)]).T
        return replay.derive_plane_body(table, [1], np.arange(2))[0] & 7

    nor, n, o = GateType.NOR, GateType.NOT, GateType.INIT1
    pinned = (
        replay.OPCODES == ((nor, 1, 1), (nor, 1, -1), (nor, -1, -1), (o, 0, 0),
                           (n, 1, 0), (nor, 1, 0), (n, -1, 0), (nor, 0, -1),
                           (n, 0, 0), (nor, 0, 0), (GateType.INIT0, 0, 0)),
        replay._RECORD_WIDTHS == (4, 7, 7, 6, 7, 6, 26),
        replay._PLANE_SHIFTS == (3, 16, 29),
        [(gate.name, int(gate)) for gate in GateType]
        == [("INIT0", 0), ("INIT1", 1), ("NOT", 2), ("NOR", 3)],
        fused(replay.OPCODES.index((n, 0, 0))).tolist() == [4],  # INIT1+NOT
        fused(replay.OPCODES.index((nor, 0, 0))).tolist() == [5],  # INIT1+NOR
        PLAN_ARRAYS == (
            ("words_crc32", "<u4"), ("table", "<i4"), ("ids", "<i4"),
            ("masks", "<u8"), ("layout", "|i1"), ("rule", "<f8"),
            ("body", "<i4"), ("sizes", "<i4"), ("keys", "<i8"),
            ("steps", "<i4"), ("read", "<i4"), ("written", "<i4"),
        ),
        FORMAT_VERSION == 6,
    )
    assert all(pinned), (
        f"the plan column encoding changed ({pinned}): bump FORMAT_VERSION "
        "and pin the new encoding here"
    )


class TestConcurrencyAndCrash:
    """Many writers and killed writers must never corrupt the cache.

    The atomic-rename protocol (temp file + ``os.replace``) is what the
    resilience layer leans on: concurrent sessions sharing one
    ``cache_dir`` may interleave stores, loads, and invalidation
    deletes in any order, and a writer killed mid-entry leaves only a
    ``.tmp-*`` partial, never a half-written entry under a real name.
    """

    def test_concurrent_writers_one_key(self, tmp_path):
        import threading

        program = compiled_program()
        errors = []

        def session(index):
            try:
                # Each thread is its own "process": fresh cache instance
                # over the shared directory.
                cache = fresh_cache(tmp_path)
                for _ in range(8):
                    cache.store(KEY, program)
                    restored = cache.load(KEY)
                    assert restored is not None
                    assert restored.ops == program.ops
            except BaseException as exc:  # surfaced after join
                errors.append((index, exc))

        threads = [
            threading.Thread(target=session, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with _artifacts_on_failure(tmp_path, "concurrent_one_key"):
            assert not errors
            leftovers = [
                name for name in os.listdir(tmp_path)
                if name.startswith(".tmp-")
            ]
            assert leftovers == [], "every temp file must be renamed away"
            assert fresh_cache(tmp_path).load(KEY).ops == program.ops

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        import threading

        program = compiled_program()
        errors = []

        def session(index):
            try:
                cache = fresh_cache(tmp_path)
                key = ("body", f"stream-{index}", 32)
                cache.store(key, program)
                for other in range(8):
                    probe = cache.load(("body", f"stream-{other}", 32))
                    assert probe is None or probe.ops == program.ops
            except BaseException as exc:
                errors.append((index, exc))

        threads = [
            threading.Thread(target=session, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with _artifacts_on_failure(tmp_path, "concurrent_distinct"):
            assert not errors
            warm = fresh_cache(tmp_path)
            for index in range(8):
                assert warm.load(("body", f"stream-{index}", 32)) is not None

    def test_crash_mid_write_leaves_cache_usable(self, tmp_path):
        cache = fresh_cache(tmp_path)
        # A writer killed before the atomic rename leaves only a partial
        # temp file; the entry's real name never exists half-written.
        stray = os.path.join(str(tmp_path), ".tmp-dead123.bin")
        with open(stray, "w") as handle:
            handle.write('{"version": %d, "name": "par' % FORMAT_VERSION)
        with _artifacts_on_failure(tmp_path, "crash_mid_write"):
            assert cache.load(KEY) is None  # a miss, not an error
            assert cache.counters()["invalid"] == 0
            cache.store(KEY, compiled_program())
            assert cache.load(KEY) is not None
            assert os.path.exists(stray), (
                "an unrelated temp file is inert, not collateral damage"
            )

    def test_concurrent_invalidation_of_one_corrupt_entry(self, tmp_path):
        cache = fresh_cache(tmp_path)
        cache.store(KEY, compiled_program())
        [name] = os.listdir(tmp_path)
        path = os.path.join(str(tmp_path), name)
        with open(path, "wb") as handle:
            handle.write(b"\xff not json")
        first, second = fresh_cache(tmp_path), fresh_cache(tmp_path)
        with _artifacts_on_failure(tmp_path, "concurrent_invalidation"):
            # Both sessions observe the damage; whichever deletes second
            # must tolerate the file already being gone.
            assert first.load(KEY) is None
            assert second.load(KEY) is None
            assert not os.path.exists(path)
            second.store(KEY, compiled_program())
            assert second.load(KEY) is not None


def _run_workload(device):
    a = np.arange(-16, 16, dtype=np.int32)
    b = np.arange(1, 33, dtype=np.int32)
    x = pim.from_numpy(a, device=device)
    y = pim.from_numpy(b, device=device)
    return pim.to_numpy(x * y + x)


class TestSessionWarmStart:
    """End-to-end: ``pim.init(cache_dir=...)`` across sessions."""

    GOLDEN = (np.arange(-16, 16, dtype=np.int64)
              * np.arange(1, 33, dtype=np.int64)
              + np.arange(-16, 16, dtype=np.int64)).astype(np.int32)

    def _session(self, cache_dir):
        device = pim.init(crossbars=4, rows=8, backend="simulator",
                          cache_dir=str(cache_dir))
        try:
            result = _run_workload(device)
            return result, family(device.backend.counters(), "persist")
        finally:
            pim.reset()

    def test_cold_then_warm(self, tmp_path):
        cold_result, cold = self._session(tmp_path)
        np.testing.assert_array_equal(cold_result, self.GOLDEN)
        assert cold["stores"] > 0 and cold["loads"] == 0
        warm_result, warm = self._session(tmp_path)
        np.testing.assert_array_equal(warm_result, cold_result)
        assert warm["loads"] > 0, "warm session must restore from disk"
        assert warm["stores"] == 0, "warm session has nothing new to store"

    def test_damaged_cache_falls_back_cold(self, tmp_path):
        _, cold = self._session(tmp_path)
        assert cold["stores"] > 0
        for name in os.listdir(tmp_path):
            with open(os.path.join(str(tmp_path), name), "wb") as handle:
                handle.write(b"\x00garbage\xff")
        with _artifacts_on_failure(tmp_path, "session_damaged"):
            result, counters = self._session(tmp_path)
            np.testing.assert_array_equal(result, self.GOLDEN)
            assert counters["invalid"] > 0
            assert counters["loads"] == 0

    def test_version_skew_falls_back_cold(self, tmp_path):
        _, cold = self._session(tmp_path)
        assert cold["stores"] > 0
        for name in os.listdir(tmp_path):
            path = os.path.join(str(tmp_path), name)
            header, payload = read_entry(path)
            header["version"] = FORMAT_VERSION + 1
            write_entry(path, header, payload)
        with _artifacts_on_failure(tmp_path, "session_skew"):
            result, counters = self._session(tmp_path)
            np.testing.assert_array_equal(result, self.GOLDEN)
            assert counters["invalid"] > 0

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache_dir() == str(tmp_path)
        assert resolve_cache_dir("/explicit/wins") == "/explicit/wins"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_cache_dir() is None

    def test_a_foreign_scratch_range_is_never_restored(self, tmp_path):
        """Lowering clobbers the scratch registers, so a body built under
        another ``scratch_registers`` setting must miss: restored into a
        session with fewer scratch registers, it would overwrite that
        session's live registers (its user registers are the other's
        scratch)."""
        mul = RInstr(ROp.MUL, float32, dest=2, src_a=0, src_b=1)
        rng = np.random.default_rng(3)
        for scratch in (24, 8):
            config = PIMConfig(crossbars=4, rows=64, scratch_registers=scratch)
            backend = SimulatorBackend(config, cache_dir=str(tmp_path))
            user = config.user_registers
            values = rng.uniform(-4, 4, (4, user, 64)).astype(np.float32)
            backend.words[:, :user] = values.view(np.uint32)
            backend.execute(mul)
            values[:, 2] = values[:, 0] * values[:, 1]
            assert np.array_equal(backend.words[:, :user], values.view(np.uint32))
            assert family(backend.counters(), "persist")["loads"] == 0, scratch
