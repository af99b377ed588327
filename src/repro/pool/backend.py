"""The pooled backend: N worker backends sharding one crossbar space.

Sharding model
--------------

A :class:`PooledBackend` over a config of ``C`` crossbars owns ``N``
workers (``N`` a power of two, ``N <= C``); worker ``k`` executes warps
``[k*C/N, (k+1)*C/N)`` on its own :class:`~repro.backend.simulator.
SimulatorBackend` or :class:`~repro.backend.numpy_backend.NumpyBackend`
built for the ``C/N``-crossbar sub-geometry. All workers share one
``(C, registers, rows)`` word image — each worker's memory array is a
contiguous axis-0 view into it — so DMA marshalling
(``PIMDevice.load_array``/``dump_array`` writing ``backend.words``)
needs no scatter/gather, and cross-shard data movement is a plain slice
copy.

Instruction routing, made once when a stream's program is assembled (an
eager ``execute`` is a one-instruction stream):

- :class:`~repro.isa.instructions.RInstr` / ``WriteInstr`` / intra-warp
  ``MoveInstr`` (``warp_dist == 0``): the warp mask is intersected with
  each shard's window, rebased to shard-local coordinates, and the
  localized instruction goes to every worker it touches.
- ``ReadInstr``: routed to the worker owning the warp.
- Inter-warp ``MoveInstr`` (``warp_dist != 0``): always executed at pool
  level as a *bridge* — a functional slice copy over the shared image.
  H-tree legality depends on the total crossbar count, so validating the
  full-geometry pattern at pool level (never a rebased shard pattern)
  keeps accept/reject behavior bit-identical to a single device.

Cycle accounting is *canonical*, not additive: the pool charges every
program the full-geometry bill of the driver's lowering
(:class:`~repro.backend.base.BilledBackend`, exactly like the NumPy
backend), so a pooled run reports the
:class:`~repro.sim.stats.SimStats` of a single device — the crossbars of
one memory operate in lock-step, and sharding the host-side work does
not change what the chip executes. A worker's own counters are nobody's
books: a numpy worker's stay zero.

What this module adds is the routing above and the handle it assembles:
a :class:`PooledProgram` is the instruction stream cut at bridges into
segments, each one part per worker it touches (its ``_pool_part``: a
simulator worker's stream program, a numpy worker's unpriced handle),
and replay runs segments in order (bridges at pool level, shard segments
through each worker's own replay fast path). The replayed response is
the globally-last read's worker result. Only the canonical bill follows
``optimize``: an optimized :meth:`PooledBackend.compile` lowers the
full-geometry stream to price it, a verbatim one and
:meth:`PooledBackend.run_stream` price it by the driver's stream bill
(the peephole passes never change the image).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.masks import RangeMask
from repro.backend import BACKENDS
from repro.backend.base import Backend, BilledBackend, BilledProgram
from repro.backend.simulator import SimulatorBackend
from repro.faults.plan import ShardError, WorkerFault
from repro.isa.instructions import (
    Instruction,
    MoveInstr,
    ReadInstr,
    written_region,
)
from repro.sim.simulator import SimulationError


def shard_mask(mask: RangeMask, lo: int, hi: int) -> Optional[RangeMask]:
    """Intersect a full-geometry range mask with the window ``[lo, hi]``.

    Returns the intersection *rebased to window-local coordinates*, or
    ``None`` when the mask selects nothing inside the window. The step is
    preserved, so strided masks spanning several shards split exactly.
    """
    if mask.start > hi or mask.stop < lo:
        return None
    step = mask.step
    first = mask.start
    if first < lo:
        first += -(-(lo - first) // step) * step
    top = min(mask.stop, hi)
    if first > top:
        return None
    last = first + ((top - first) // step) * step
    return RangeMask(first - lo, last - lo, step)


@dataclass(frozen=True)
class _Segment:
    """One replay unit of a :class:`PooledProgram`.

    ``kind == "bridge"``: ``instr`` is the inter-warp move executed at
    pool level. ``kind == "shard"``: ``programs`` maps worker index to
    that worker's part (``_pool_part``) of this run of instructions.
    """

    kind: str
    instr: Optional[MoveInstr] = None
    programs: Optional[Tuple[Tuple[int, object], ...]] = None


@dataclass(frozen=True, eq=False)
class PooledProgram(BilledProgram):
    """A compiled macro stream, pre-split across the worker shards.

    ``stats_delta`` is the canonical full-geometry cycle bill charged
    once per replay; ``response_site`` is the ``(segment index, worker
    index)`` holding the stream's last read (``None`` for read-free
    streams).
    """

    segments: Tuple[_Segment, ...] = ()
    response_site: Optional[Tuple[int, int]] = None


class PooledBackend(BilledBackend):
    """N-worker inter-crossbar sharding behind the ``Backend`` protocol.

    Args:
        config: the *full* geometry (all ``C`` crossbars).
        workers: shard count ``N`` (power of two, at most ``C``).
        worker_backend: per-shard engine — ``"simulator"`` (bit-accurate,
            default) or ``"numpy"`` (functional).
        **driver_kwargs: forwarded to the accounting driver and every
            worker (``parallelism``, ``cache_size``, ``cache_dir``, ...),
            so e.g. a persistent cache directory warms all shards.
    """

    name = "pooled"

    def __init__(
        self,
        config: PIMConfig,
        workers: int = 4,
        worker_backend: str = "simulator",
        **driver_kwargs,
    ):
        super().__init__(config, **driver_kwargs)
        workers = int(workers)
        if workers < 1 or (workers & (workers - 1)):
            raise ValueError("workers must be a positive power of two")
        if workers > config.crossbars:
            raise ValueError(
                f"cannot shard {config.crossbars} crossbars across "
                f"{workers} workers"
            )
        try:  # the single-device backends, by their ``pim.init`` names
            worker_cls = BACKENDS[str(worker_backend).lower()]
        except KeyError:
            raise ValueError(
                f"unknown worker backend {worker_backend!r}; choose from "
                f"{sorted(BACKENDS)}"
            ) from None
        self.shard = config.crossbars // workers
        # Kept so failover can spawn a replacement worker with the exact
        # construction arguments of the one it retires.
        self._spawn_worker = partial(
            worker_cls, replace(config, crossbars=self.shard), **driver_kwargs
        )
        self.workers: List[Backend] = [
            self._spawn_worker() for _ in range(workers)
        ]
        # One shared word image; each worker's memory becomes a contiguous
        # axis-0 view (safe pre-execution: simulator replay plans and the
        # numpy backend's closures resolve regions lazily, so every later
        # access goes through the view).
        self._words = np.zeros_like(self.workers[0].words, shape=(
            config.crossbars, config.registers, config.rows
        ))
        for k in range(workers):
            lo = k * self.shard
            self._set_worker_words(k, self._words[lo : lo + self.shard])
        # Resilience state (repro.faults): the cell faults are the
        # driver's one overlay over the shared image, and worker faults
        # are counted into its tally.
        self._fault_plan = None
        self._resilient = False
        self._unit_counts = [0] * workers
        self._quarantined: List[Tuple[int, Backend]] = []

    # ------------------------------------------------------------------
    # Worker memory plumbing
    # ------------------------------------------------------------------
    def _set_worker_words(self, k: int, view: np.ndarray) -> None:
        worker = self.workers[k]
        if isinstance(worker, SimulatorBackend):
            worker.simulator.memory.words = view
        else:
            worker._words = view

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """The pool driver's books plus its workers' ``cache.*`` and
        ``persist.*`` (every other family is kept by the pool's driver)."""
        books = super().counters()
        for worker in self.workers:
            for key, count in worker.counters().items():
                if key.startswith(("cache.", "persist.")):
                    books[key] = books.get(key, 0) + count
        return books

    def install_faults(self, plan) -> object:
        """Arm a :class:`~repro.faults.plan.FaultPlan` on the pool.

        Cell faults become a single overlay over the *shared* word image
        (ticked once per pool-level dispatch boundary, exactly like a
        single device, so every replay route and all shards see one fault
        timeline). Worker-failure entries arm resilient mode: a failed
        shard is quarantined and its work replayed bit-identically on a
        fresh replacement worker.
        """
        self._fault_plan = plan
        self._resilient = bool(plan.worker_failures)
        return super().install_faults(plan)

    @property
    def quarantined_workers(self) -> List[Tuple[int, Backend]]:
        """Retired ``(shard index, worker)`` pairs, in failure order."""
        return list(self._quarantined)

    def execute(self, instr: Instruction) -> Optional[int]:
        try:
            return self._run_stream((instr,), "stream")
        except ShardError as exc:  # name the instruction, not its stream
            raise ShardError(
                exc.shard, exc.warps, str(instr), exc.__cause__
            ) from exc.__cause__

    def compile(
        self,
        instructions: Sequence[Instruction],
        name: str = "stream",
        optimize: bool = True,
    ) -> PooledProgram:
        """Compile a stream: price it against the full geometry, then cut
        it at bridge moves into each worker shard's part."""
        return self._compile(instructions, name, optimize)

    def _assemble(self, instrs, name, delta, source_ops):
        segments, response_site = self._partition(instrs, name)
        return PooledProgram(
            name, self._fingerprint, delta, len(instrs), source_ops,
            segments, response_site,
        )

    def run_program(
        self, program: PooledProgram, verify: Optional[str] = None
    ) -> Optional[int]:
        self._admit(program, verify)
        response: Optional[int] = None
        for index, segment in enumerate(program.segments):
            if segment.kind == "bridge":
                self._bridge_move(segment.instr)
                continue
            for k, sub in segment.programs:
                result = self._run_shard(
                    k, lambda w, sub=sub: w.run_program(sub), program.name
                )
                if program.response_site == (index, k):
                    response = result
        # Whole-image granularity (no regions): the shards share one word
        # image, so one CRC over it brackets the post-replay fault window
        # (region-precise checksums live in the single-device backends;
        # the pool only needs corruption *detection*).
        self._settle(program.stats_delta, verify, None, program.name)
        return response

    def run_stream(
        self, instructions: Sequence[Instruction], name: str = "stream"
    ) -> Optional[int]:
        """Emit a whole stream through one cached :class:`PooledProgram`,
        priced by bills: each shard replays its own part."""
        return self._run_stream(instructions, name)

    # ------------------------------------------------------------------
    # Shard fault handling: injection, quarantine, failover
    # ------------------------------------------------------------------
    def _run_shard(self, k: int, work, what) -> Optional[int]:
        """Run one unit of shard work, ``work(worker)``, with crash
        containment.

        Every worker call funnels through here. A worker exception (real
        or injected) either surfaces as a :class:`ShardError` carrying
        the shard id and program context, or — when a fault plan armed
        resilient mode — triggers failover: quarantine the worker, spawn
        a replacement on the same shard window, restore the shard's
        pre-unit memory from the snapshot, and re-run the unit
        bit-identically. Chip-model rejections (``SimulationError``) are
        architectural results, not crashes, and propagate untouched.
        """
        unit = self._unit_counts[k]
        self._unit_counts[k] = unit + 1
        lo = k * self.shard
        snapshot = None
        if self._resilient:
            snapshot = self._words[lo : lo + self.shard].copy()
        try:
            self._maybe_inject(k, unit, lo, snapshot is not None)
            return work(self.workers[k])
        except SimulationError:
            raise
        except Exception as exc:
            if snapshot is not None:
                return self._failover(k, snapshot, work, what, exc)
            raise ShardError(
                k, (lo, lo + self.shard - 1), str(what), exc
            ) from exc

    def _maybe_inject(
        self, k: int, unit: int, lo: int, resilient: bool
    ) -> None:
        plan = self._fault_plan
        if plan is None or not plan.worker_fails(k, unit):
            return
        tally = self.lowering.verify_tally
        tally["worker_faults"] = tally.get("worker_faults", 0) + 1
        if resilient:
            # A crashing worker may leave its shard image in any state;
            # scribble seeded garbage so failover provably restores from
            # the snapshot rather than getting lucky.
            shard_view = self._words[lo : lo + self.shard]
            rng = np.random.default_rng((plan.seed, k, unit))
            limit = 1 << self.config.word_size
            shard_view[...] = rng.integers(
                0, limit, size=shard_view.shape, dtype=np.uint64
            ).astype(shard_view.dtype)
        raise WorkerFault(
            f"injected fault in pool worker {k} (unit {unit})"
        )

    def _failover(self, k, snapshot, work, what, cause) -> Optional[int]:
        lo = k * self.shard
        self._quarantined.append((k, self.workers[k]))
        self.workers[k] = self._spawn_worker()
        self._set_worker_words(k, self._words[lo : lo + self.shard])
        self._words[lo : lo + self.shard] = snapshot
        tally = self.lowering.verify_tally
        tally["failovers"] = tally.get("failovers", 0) + 1
        tally["quarantined_shards"] = len(self._quarantined)
        try:
            return work(self.workers[k])
        except SimulationError:
            raise
        except Exception as exc:
            raise ShardError(
                k, (lo, lo + self.shard - 1), str(what), exc
            ) from exc

    def _localize(self, instr: Instruction):
        """An instruction as the ``(shard, shard-local instruction)`` pairs
        it reaches: a read on the shard owning its warp, anything
        warp-masked split across the shards its written warps touch."""
        if isinstance(instr, ReadInstr):
            k = instr.warp // self.shard
            yield k, replace(instr, warp=instr.warp - k * self.shard)
            return
        _, mask, _ = written_region(instr, self.config)
        for k in range(len(self.workers)):
            lo = k * self.shard
            local = shard_mask(mask, lo, lo + self.shard - 1)
            if local is not None:
                yield k, replace(instr, warp_mask=local)

    def _bridge_move(self, instr: MoveInstr) -> None:
        """Execute an inter-warp move over the shared word image.

        The H-tree pattern was already validated against the full
        geometry, by the driver's refusal before anything ran, so by the
        time a bridge executes the move is known legal and reduces to an
        exact word copy.  To stay bit-identical with the single-device
        memory image, the staging residue of the lowering is reproduced
        too: the H-tree lands the word in ``stage1`` of the destination
        warps and the NOT pair leaves ``stage2 = ~v`` before writing the
        destination register.
        """
        warps = instr.warp_mask or RangeMask.all(self.config.crossbars)
        sources = np.fromiter(warps.indices(), dtype=np.int64)
        dests = sources + instr.warp_dist
        value = self._words[sources, instr.src_reg, instr.src_thread]
        stage1, stage2 = self.lowering._stage_registers()
        self._words[dests, stage1, instr.dst_thread] = value
        self._words[dests, stage2, instr.dst_thread] = ~value
        self._words[dests, instr.dst_reg, instr.dst_thread] = value

    def _partition(self, instrs: Tuple[Instruction, ...], name: str):
        """Cut a stream at bridges; each shard's part of a segment is that
        worker's ``_pool_part`` of its localized instructions (priced by
        nobody: the pool refused and billed the stream whole)."""
        segments: List[_Segment] = []
        pending: List[List[Instruction]] = [[] for _ in self.workers]
        pending_read: Optional[int] = None
        response_site: Optional[Tuple[int, int]] = None

        def flush() -> None:
            nonlocal pending, pending_read, response_site
            if any(pending):
                programs = tuple(
                    (k, self.workers[k]._pool_part(
                        sub, f"{name}#s{len(segments)}w{k}"))
                    for k, sub in enumerate(pending)
                    if sub
                )
                segments.append(_Segment("shard", programs=programs))
                if pending_read is not None:
                    response_site = (len(segments) - 1, pending_read)
            pending = [[] for _ in self.workers]
            pending_read = None

        for instr in instrs:
            if isinstance(instr, MoveInstr) and instr.warp_dist:
                flush()
                segments.append(_Segment("bridge", instr=instr))
            else:
                for k, local in self._localize(instr):
                    pending[k].append(local)
                    if isinstance(instr, ReadInstr):
                        pending_read = k
        flush()
        return tuple(segments), response_site
