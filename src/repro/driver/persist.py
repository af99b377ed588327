"""Cross-session persistence for compiled micro-op programs.

Gate building is the largest stage of a cold start, even with gates born
as words (``docs/architecture.md`` §9).  Within a session the driver's
:class:`~repro.driver.program.ProgramCache` tiers absorb that cost, but
every new process pays it again.  This module makes the cache *durable*:
compiled :class:`~repro.driver.program.MicroProgram` entries are written
through to a cache directory and loaded back on the first miss of a later
session, so a warm-started process (``pim.init(cache_dir=...)``, or
``REPRO_CACHE_DIR``) skips gate building entirely.

Design constraints, in order:

1. **Never replay a stale or foreign program.** Entries embed the format
   version, the config fingerprint, and the *full repr of the cache key*
   (SHA-256 keys the filename; the embedded repr guards against
   collisions and key-scheme drift between repo versions). Any mismatch
   is treated as a miss.
2. **Never crash on bad cache state.** A corrupt, truncated,
   version-skewed or otherwise unreadable entry falls back to a cold
   compile; the offending file is deleted best-effort so the fresh
   compile heals the cache. I/O errors (read-only dirs, races with
   concurrent writers) degrade to cold compiles, never exceptions.
3. **Atomic writes.** Entries are written to a temp file and
   ``os.replace``\\ d into place, so concurrent processes sharing a
   cache directory can only ever observe whole entries.

Serialized form: one binary file per entry — a one-line JSON header, a
newline, then the program's 64-bit operation words (what the DMA path
ships), raw little-endian ``<u8``, then its replay plan's
:data:`PLAN_ARRAYS` (integer columns, no pickle: a load runs no code).
The header holds the identity checks above, the program metadata, the
word count, each plan array's name, dtype and shape, one CRC-32 over it
all, and the program's *bill*
(:meth:`~repro.driver.program.MicroProgram.bill`), so a restored program
is priced without being walked. A ``Simulator`` chip (``planner``)
derives the plan for a store and takes it from a load, which checks it
against the words (:func:`~repro.sim.replay.check_columns`); a billed
backend's entries carry none. Neither side touches an op object: a store
writes the words the program was spliced from and the bill summed from
their columns, a load wraps the payload with ``np.frombuffer``. A
restored program decodes its words in full (``decode_many``) only if
something iterates ``.ops`` — the op-by-op reference loop. Cache keys
are deterministic across processes because every key component has a
value-based repr (enums, frozen dataclasses, strings, ints).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib
from contextlib import suppress
from time import perf_counter
from typing import Dict, Hashable, Optional

import numpy as np

from repro.arch.config import PIMConfig, config_fingerprint
from repro.driver.program import MicroProgram
from repro.sim.replay import COLUMN_DTYPES, PlanColumns, check_columns
from repro.sim.stats import SimStats

#: Bump when the on-disk entry layout (or the meaning of any field)
#: changes; older entries then read as cold misses, never as garbage.
#: v6: binary entries carrying the program's bill (no cycle count: a
#: cycle is one micro-op) and the replay plan's columns after the words.
#: A ``pim-<digest>.json`` entry of v2 is removed by a later store of its key.
FORMAT_VERSION = 6

#: The plan section's ``(name, dtype)`` arrays: the CRC-32 of the words
#: the plan was derived from, then its ``replay.PlanColumns``.
PLAN_ARRAYS = (("words_crc32", "<u4"),) + tuple(zip(PlanColumns._fields, COLUMN_DTYPES))

#: Environment variable supplying a default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_cache_dir(requested: "str | None" = None) -> Optional[str]:
    """The effective persistent-cache directory (``None`` disables)."""
    return requested or os.environ.get(CACHE_DIR_ENV) or None


def _key_repr(key: Hashable) -> str:
    """The canonical serialized form of a cache key.

    Stable across processes: keys are built from enums, frozen
    dataclasses, strings, ints and tuples of those, all of which repr by
    value (``PYTHONHASHSEED`` never enters the picture because the
    *repr*, not the hash, is serialized).
    """
    return repr(key)


class PersistentProgramCache:
    """A durable write-through store behind the in-memory program cache.

    One instance per driver, shared by both cache tiers (bodies and
    streams — entries embed their full key, so the tiers cannot
    collide).  Lookup is lazy: nothing is scanned at init; each in-memory
    miss probes exactly one file.

    Counters (snapshotted by ``pim.Profiler`` via
    ``Backend.persist_counters()``):

    - ``loads`` — entries restored from disk (gate building skipped);
    - ``misses`` — probes that found no entry (only keys whose values
      are written through are ever probed, so every one is a compile);
    - ``invalid`` — entries rejected (corrupt/truncated file, format
      version skew, config-fingerprint mismatch, key collision, payload
      length or checksum mismatch, a plan not of these words or not
      fitting them) and deleted best-effort;
    - ``stores`` — entries written.
    """

    def __init__(self, cache_dir: str, config: PIMConfig, planner=None):
        self.cache_dir = cache_dir
        self.config = config
        self.planner = planner
        self.fingerprint = config_fingerprint(config)
        self.loads = 0
        self.misses = 0
        self.invalid = 0
        self.stores = 0
        os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "loads": self.loads,
            "misses": self.misses,
            "invalid": self.invalid,
            "stores": self.stores,
        }

    def _path(self, key: Hashable) -> str:
        digest = hashlib.sha256(_key_repr(key).encode()).hexdigest()[:40]
        return os.path.join(self.cache_dir, f"pim-{digest}.bin")

    # ------------------------------------------------------------------
    def load(self, key: Hashable) -> Optional[MicroProgram]:
        """Restore a program and its plan, or ``None`` (cold compile) on any problem."""
        start = perf_counter()
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            data = b""  # unreadable: rejected below, like a corrupt entry
        try:
            program, columns = self._deserialize(data, key)
            if columns is not None:
                self.planner.plan_columns(program, columns, 1e3 * (perf_counter() - start))
        except (ValueError, TypeError, KeyError, AttributeError, IndexError):
            program = None  # not an entry: corrupt, truncated, foreign
        if program is None:
            # Count and delete (best-effort) so the fresh compile's
            # store heals the cache.
            self.invalid += 1
            with suppress(OSError):
                os.unlink(path)
            return None
        self.loads += 1
        return program

    def store(self, key: Hashable, program: MicroProgram) -> None:
        """Write a program and its plan through to disk (atomically; errors ignored)."""
        if program.config_fingerprint != self.fingerprint:
            return
        bill = program.bill(self.config)
        words = program.encoded(self.config.word_size).astype("<u8", copy=False).tobytes()
        columns = None if self.planner is None else self.planner.plan_columns(program)
        plan = [] if columns is None else [
            np.asarray(array, dtype)
            for array, (_, dtype) in zip([[zlib.crc32(words)], *columns], PLAN_ARRAYS)
        ]
        payload = b"".join([words] + [array.tobytes() for array in plan])
        header = {
            "version": FORMAT_VERSION,
            "key": _key_repr(key),
            "fingerprint": list(self.fingerprint),
            "name": program.name,
            "reads": program.reads,
            "macros": program.macros,
            "source_ops": program.source_ops,
            "bill": [bill.op_counts, bill.htree_hop_cycles, bill.gates_executed],
            "words": len(program),
            "plan": [[name, array.dtype.str, list(array.shape)]
                     for (name, _), array in zip(PLAN_ARRAYS, plan)],
            "crc32": zlib.crc32(payload),
        }
        path = self._path(key)
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.cache_dir, prefix=".tmp-", suffix=".bin"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(json.dumps(header).encode() + b"\n")
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            with suppress(OSError):  # this key's v2 entry, if one is left
                os.unlink(path[:-4] + ".json")
        except OSError:
            return  # read-only cache dir, disk full, ...: stay cold
        self.stores += 1

    # ------------------------------------------------------------------
    def _deserialize(self, data: bytes, key: Hashable):
        """``(program, plan columns or None)``; no program marks an
        invalid/stale entry."""
        head, _, payload = data.partition(b"\n")
        header = json.loads(head)
        if header["version"] != FORMAT_VERSION:
            return None, None  # version skew: recompile under the new format
        if tuple(header["fingerprint"]) != self.fingerprint:
            return None, None  # compiled for a different geometry
        if header["key"] != _key_repr(key):
            return None, None  # hash collision or key-scheme drift
        plan = header["plan"]
        arrays = [("<u8", [header["words"]])] + [(dtype, shape) for _, dtype, shape in plan]
        if plan and [(name, dtype) for name, dtype, _ in plan] != list(PLAN_ARRAYS) or not all(
                type(n) is int and n >= 0 for _, shape in arrays for n in shape):
            return None, None  # not this format's plan section
        lengths = [int(np.prod(shape)) for _, shape in arrays]
        ends = np.cumsum([0] + [n * np.dtype(dtype).itemsize
                                for (dtype, _), n in zip(arrays, lengths)]).tolist()
        if len(payload) != ends[-1]:
            return None, None  # truncated, or header and payload disagree
        words_crc = zlib.crc32(memoryview(payload)[: ends[1]])
        if zlib.crc32(memoryview(payload)[ends[1] :], words_crc) != header["crc32"]:
            return None, None
        words, *plan = [np.frombuffer(payload, dtype, n, start).reshape(shape)
                        for (dtype, shape), n, start in zip(arrays, lengths, ends)]
        counts, hops, gates = header["bill"]
        program = MicroProgram(
            words.astype(np.uint64, copy=False),
            name=str(header["name"]),
            config_fingerprint=self.fingerprint,
            reads=int(header["reads"]),
            macros=int(header["macros"]),
            source_ops=int(header["source_ops"]),
            bill=SimStats(
                {str(kind): int(n) for kind, n in counts.items()},
                int(hops), int(gates),
            ),
        )
        if not plan or self.planner is None:
            return program, None
        if plan[0].tolist() != [words_crc]:
            return None, None  # a plan derived from other words
        columns = PlanColumns(*(array.copy() for array in plan[1:]))
        check_columns(columns, program, self.config)
        return program, columns
