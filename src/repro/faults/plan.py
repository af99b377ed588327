"""Deterministic seeded fault models: cell, process, and timing faults.

Real memristive crossbars are not the perfect arrays the paper assumes:
cells wear out into stuck-at-0/1 states and transient upsets flip bits
between operations (see the endurance discussion in Section VI). A
served deployment adds process-level failure modes on top of the device
physics: a pool worker dying mid-batch, a DMA or compile stall blowing
a latency budget. :class:`FaultPlan` describes all of these as one
deterministic, seeded artifact so every chaos test replays from a
single integer seed — CI rotates it through ``REPRO_FAULT_SEED``.

The key design decision is *where* cell faults strike. They are applied
by the driver/backend dispatch layer at operation boundaries — one
:meth:`FaultOverlay.tick` after each macro dispatch or program replay —
never inside the micro-op interpreter. Vectorized plans
(:mod:`repro.sim.replay`) and op-by-op execution therefore observe
bit-identical fault behaviour by construction: each sees the same
memory image before and after every dispatch unit. With no plan installed the hot paths stay untouched (a
single ``is None`` test per dispatch), so the disabled configuration is
bit- and cycle-identical to a build without the fault layer.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig, config_fingerprint

#: Fault kinds a cell can carry (the taxonomy of docs/architecture.md §10).
STUCK0 = "stuck0"
STUCK1 = "stuck1"


class WorkerFault(RuntimeError):
    """An injected (or real) process-level failure of one worker.

    Raised mid-batch by a pool shard or a serving worker when the
    installed :class:`FaultPlan` schedules it; the recovery layers
    (shard failover, serving retries) treat it as a crashed process.
    """


class ShardError(RuntimeError):
    """A pool worker failure annotated with shard id and work context.

    Wraps the original exception (available as ``__cause__``) so a
    failure deep inside a worker backend surfaces as *which shard* was
    running *which unit of work* instead of a bare traceback.
    """

    def __init__(self, shard: int, warps: Tuple[int, int], context: str,
                 cause: BaseException):
        self.shard = shard
        self.warps = warps
        self.context = context
        super().__init__(
            f"pool shard {shard} (warps {warps[0]}..{warps[1]}) failed "
            f"during {context}: {cause!r}"
        )


def resolve_fault_seed(default: int = 0) -> int:
    """The chaos seed: ``REPRO_FAULT_SEED`` when set, else ``default``."""
    env = os.environ.get("REPRO_FAULT_SEED", "").strip()
    return int(env) if env else default


class FaultPlan:
    """A seeded, config-fingerprinted schedule of injected faults.

    Cell faults (need a ``config`` to validate/sample addresses):

    - ``stuck``: explicit ``(xb, reg, row, bit, kind)`` entries with
      ``kind`` in ``{"stuck0", "stuck1"}`` — the cell is clamped to the
      stuck value at every fault tick from ``stuck_from_tick`` on
      (wear-out: the cell is healthy before that tick).
    - ``flips``: explicit ``(tick, xb, reg, row, bit)`` transient
      upsets, applied exactly once when the overlay reaches ``tick``.
    - ``random_stuck0``/``random_stuck1``/``random_flips``: counts of
      faults sampled from the seeded RNG over the whole geometry;
      random flip ticks are drawn from ``flip_window`` (inclusive).

    Process faults (no config needed):

    - ``worker_failures``: ``(worker_index, unit_index)`` pairs; the
      pool raises :class:`WorkerFault` from that worker on its N-th
      dispatched unit of work.
    - ``serve_failures`` / ``fail_every``: request sequence numbers
      whose first ``serve_fail_attempts`` attempts raise
      :class:`WorkerFault` inside the serving worker (``fail_every``
      selects every N-th request, phased by the seed).
    - ``serve_stalls`` / ``stall_every`` + ``stall_s``: injected
      DMA/compile stalls, in simulated seconds, added to the request's
      service time (used to exercise deadlines).
    """

    def __init__(
        self,
        config: Optional[PIMConfig] = None,
        seed: int = 0,
        *,
        stuck: Iterable[Tuple[int, int, int, int, str]] = (),
        flips: Iterable[Tuple[int, int, int, int, int]] = (),
        random_stuck0: int = 0,
        random_stuck1: int = 0,
        random_flips: int = 0,
        flip_window: Tuple[int, int] = (1, 64),
        stuck_from_tick: int = 0,
        worker_failures: Iterable[Tuple[int, int]] = (),
        serve_failures: Iterable[int] = (),
        serve_fail_attempts: int = 1,
        fail_every: int = 0,
        serve_stalls: Iterable[Tuple[int, float]] = (),
        stall_every: int = 0,
        stall_s: float = 0.0,
    ):
        self.seed = int(seed)
        self.config_fingerprint = (
            config_fingerprint(config) if config is not None else None
        )
        self.stuck_from_tick = int(stuck_from_tick)
        stuck = [tuple(entry) for entry in stuck]
        flips = [tuple(entry) for entry in flips]
        wants_random = random_stuck0 or random_stuck1 or random_flips
        if wants_random:
            if config is None:
                raise ValueError("random cell faults require a config")
            rng = np.random.default_rng(self.seed)
            for count, kind in ((random_stuck0, STUCK0), (random_stuck1, STUCK1)):
                for _ in range(count):
                    stuck.append(self._sample_cell(rng, config) + (kind,))
            lo, hi = flip_window
            for _ in range(random_flips):
                tick = int(rng.integers(lo, hi + 1))
                flips.append((tick,) + self._sample_cell(rng, config))
        if config is not None:
            for xb, reg, row, bit, kind in stuck:
                self._check_cell(config, xb, reg, row, bit)
                if kind not in (STUCK0, STUCK1):
                    raise ValueError(f"unknown stuck kind {kind!r}")
            for tick, xb, reg, row, bit in flips:
                if tick < 1:
                    raise ValueError("flip ticks start at 1")
                self._check_cell(config, xb, reg, row, bit)
        self.stuck = tuple(stuck)
        self.flips = tuple(sorted(flips))
        self.worker_failures = frozenset(
            (int(k), int(n)) for k, n in worker_failures
        )
        self.serve_failures = frozenset(int(s) for s in serve_failures)
        self.serve_fail_attempts = int(serve_fail_attempts)
        self.fail_every = int(fail_every)
        stall_items = (
            serve_stalls.items() if hasattr(serve_stalls, "items") else serve_stalls
        )
        self.serve_stalls = {int(s): float(sec) for s, sec in stall_items}
        self.stall_every = int(stall_every)
        self.stall_s = float(stall_s)

    @staticmethod
    def _sample_cell(rng, config: PIMConfig) -> Tuple[int, int, int, int]:
        return (
            int(rng.integers(0, config.crossbars)),
            int(rng.integers(0, config.registers)),
            int(rng.integers(0, config.rows)),
            int(rng.integers(0, config.word_size)),
        )

    @staticmethod
    def _check_cell(config: PIMConfig, xb: int, reg: int, row: int, bit: int):
        if not (0 <= xb < config.crossbars and 0 <= reg < config.registers
                and 0 <= row < config.rows and 0 <= bit < config.word_size):
            raise ValueError(
                f"cell ({xb}, {reg}, {row}, bit {bit}) outside the geometry"
            )

    # ------------------------------------------------------------------
    # Cell faults: the memory overlay
    # ------------------------------------------------------------------
    def overlay_for(self, words: np.ndarray, config: PIMConfig) -> "FaultOverlay":
        """Bind the plan's cell faults to one memory image."""
        if (self.config_fingerprint is not None
                and config_fingerprint(config) != self.config_fingerprint):
            raise ValueError(
                "fault plan was built for a different geometry "
                f"({self.config_fingerprint} != {config_fingerprint(config)})"
            )
        return FaultOverlay(self, words, config)

    # ------------------------------------------------------------------
    # Process faults: pool shards
    # ------------------------------------------------------------------
    def worker_fails(self, worker: int, unit: int) -> bool:
        """Should pool worker ``worker`` fail on its ``unit``-th dispatch?"""
        return (worker, unit) in self.worker_failures

    # ------------------------------------------------------------------
    # Process faults: serving tier
    # ------------------------------------------------------------------
    def serve_should_fail(self, seq: int, attempt: int) -> bool:
        """Should request ``seq``'s ``attempt``-th try raise WorkerFault?"""
        if attempt >= self.serve_fail_attempts:
            return False
        if seq in self.serve_failures:
            return True
        if self.fail_every:
            return seq % self.fail_every == self.seed % self.fail_every
        return False

    def serve_stall_s(self, seq: int, attempt: int) -> float:
        """Injected stall (simulated seconds) for one request attempt."""
        stall = self.serve_stalls.get(seq, 0.0)
        if not stall and self.stall_every and attempt == 0:
            if seq % self.stall_every == self.seed % self.stall_every:
                stall = self.stall_s
        return stall


class FaultOverlay:
    """A plan's cell faults bound to one ``(xb, reg, row)`` word image.

    :meth:`tick` is called by the owning backend's driver at the end of
    every dispatch unit (``Driver.close_window``): it applies any transient flips scheduled at the
    new tick, then clamps active stuck-at cells (a stuck cell cannot
    hold the opposite value, so whatever the operation wrote is forced
    back at the next boundary). Its counters surface as ``fault.*`` in
    ``Backend.counters()``.
    """

    def __init__(self, plan: FaultPlan, words: np.ndarray, config: PIMConfig):
        self.plan = plan
        self.words = words
        self.config = config
        self.ticks = 0
        self.counters: Dict[str, int] = {"ticks": 0, "flips": 0, "stuck_clamps": 0}
        one = words.dtype.type(1)
        stuck0: Dict[Tuple[int, int, int], np.ndarray] = {}
        stuck1: Dict[Tuple[int, int, int], np.ndarray] = {}
        for xb, reg, row, bit, kind in plan.stuck:
            table = stuck1 if kind == STUCK1 else stuck0
            cell = (xb, reg, row)
            table[cell] = table.get(cell, words.dtype.type(0)) | (one << words.dtype.type(bit))
        self._stuck0 = tuple((cell, mask) for cell, mask in sorted(stuck0.items()))
        self._stuck1 = tuple((cell, mask) for cell, mask in sorted(stuck1.items()))
        self._flips = plan.flips
        self._next_flip = 0

    def tick(self) -> None:
        """One fault window: flips due at this tick, then stuck clamps."""
        self.ticks += 1
        self.counters["ticks"] += 1
        tick = self.ticks
        words = self.words
        one = words.dtype.type(1)
        while (self._next_flip < len(self._flips)
               and self._flips[self._next_flip][0] <= tick):
            _, xb, reg, row, bit = self._flips[self._next_flip]
            self._next_flip += 1
            words[xb, reg, row] ^= one << words.dtype.type(bit)
            self.counters["flips"] += 1
        if tick < self.plan.stuck_from_tick:
            return
        for (xb, reg, row), mask in self._stuck1:
            old = words[xb, reg, row]
            new = old | mask
            if new != old:
                words[xb, reg, row] = new
                self.counters["stuck_clamps"] += 1
        for (xb, reg, row), mask in self._stuck0:
            old = words[xb, reg, row]
            new = old & ~mask
            if new != old:
                words[xb, reg, row] = new
                self.counters["stuck_clamps"] += 1
