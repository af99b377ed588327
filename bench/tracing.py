"""Spans recorded by the benchmark itself, around the calls into each layer.

The traced pass patches timing wrappers onto the boundary methods of the
stack's classes (:func:`boundaries` below) for the length of one child
process and removes them again; nothing under ``src/`` is edited. Every
span has a name, a layer (``src/repro/<module>``), start, end, the span
that caused it and the id of the benchmark op it belongs to.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so self times over all layers add up to the op's wall
time. Self times and call counts are accumulated as spans close (the
eager workloads produce ~10^5 spans per second of run); only the first
``keep_spans`` spans per thread are kept verbatim for the span file.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layers that execute macro-instructions. A span in one of these whose
#: parent is *not* in one of these is where the tensor layer hands work
#: down, which is where macros are counted.
BACKEND_LAYERS = frozenset({"driver", "backend.numpy", "pool"})

# Frame fields (a list, mutated in place while the span is open).
_ID, _PARENT, _OP, _NAME, _LAYER, _CHILD_S, _START, _ENTRY = range(8)


def _count_one(counts, _self, _args) -> None:
    counts["macros"] = counts.get("macros", 0) + 1


def _count_stream(counts, _self, args) -> None:
    counts["macros"] = counts.get("macros", 0) + len(args[0])


def _count_program(counts, _self, args) -> None:
    counts["macros"] = counts.get("macros", 0) + getattr(args[0], "macros", 0)


def _count_pool_program(counts, _self, args) -> None:
    _count_program(counts, _self, args)
    segments = args[0].segments
    counts["pool.programs"] = counts.get("pool.programs", 0) + 1
    counts["pool.segments"] = counts.get("pool.segments", 0) + len(segments)
    counts["pool.bridges"] = counts.get("pool.bridges", 0) + sum(
        1 for segment in segments if segment.kind == "bridge"
    )


def boundaries() -> List[Tuple[type, str, str, str, Optional[Callable]]]:
    """``(class, method, span name, layer, entry counter)`` per boundary.

    ``SimulatorBackend`` is a pass-through onto its ``Driver`` and
    ``BufferSink`` is the driver's own chip stand-in, so neither gets a
    span of its own: their time is the driver's.
    """
    from repro.backend import NumpyBackend
    from repro.driver import Driver
    from repro.driver.persist import PersistentProgramCache
    from repro.pim import PIMDevice
    from repro.pool import PooledBackend
    from repro.sim.simulator import Simulator

    table = [
        (PIMDevice, "load_array", "pim.load_array", "pim.dma_in", None),
        (PIMDevice, "write_raw", "pim.write_raw", "pim.dma_in", None),
        (PIMDevice, "dump_array", "pim.dump_array", "pim.dma_out", None),
        (PIMDevice, "read_raw", "pim.read_raw", "pim.dma_out", None),
        (Driver, "execute", "driver.execute", "driver", _count_one),
        (Driver, "execute_stream", "driver.execute_stream", "driver",
         _count_stream),
        (Driver, "run_program", "driver.run_program", "driver",
         _count_program),
        (Driver, "compile", "driver.compile", "driver", None),
        (PersistentProgramCache, "load", "persist.load", "driver", None),
        (PersistentProgramCache, "store", "persist.store", "driver", None),
        (Simulator, "execute", "sim.execute", "sim", None),
        (Simulator, "execute_program", "sim.execute_program", "sim", None),
    ]
    for cls, layer, count_program in (
        (NumpyBackend, "backend.numpy", _count_program),
        (PooledBackend, "pool", _count_pool_program),
    ):
        prefix = layer.split(".")[-1]
        table += [
            (cls, "execute", f"{prefix}.execute", layer, _count_one),
            (cls, "run_stream", f"{prefix}.run_stream", layer, _count_stream),
            (cls, "run_program", f"{prefix}.run_program", layer,
             count_program),
            (cls, "compile", f"{prefix}.compile", layer, None),
        ]
    return table


class _ThreadState:
    __slots__ = ("stack", "self_s", "by_name", "counts", "busy", "spans",
                 "dropped")

    def __init__(self):
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.by_name: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.busy: Dict[int, float] = {}
        self.spans: List[tuple] = []
        self.dropped = 0


class Tracer:
    """In-memory span recorder with per-thread accumulators."""

    def __init__(self, keep_spans: int = 20000):
        self.keep_spans = keep_spans
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[type, str, Callable]] = []

    # -- span recording --------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def new_id(self) -> int:
        return next(self._ids)

    def begin(self, name: str, layer: str, op_id: int = -1,
              parent_id: int = -1) -> list:
        """Open a span on this thread; nests under the thread's open span
        unless an explicit (cross-thread) parent is given."""
        stack = self._state().stack
        entry = True
        if stack:
            parent = stack[-1]
            parent_id, op_id = parent[_ID], parent[_OP]
            entry = parent[_LAYER] not in BACKEND_LAYERS
        frame = [next(self._ids), parent_id, op_id, name, layer,
                 0.0, 0.0, entry]
        stack.append(frame)
        frame[_START] = perf_counter()
        return frame

    def end(self, frame: list) -> float:
        end = perf_counter()
        state = self._state()
        state.stack.pop()
        duration = end - frame[_START]
        self._close(state, frame, duration, end)
        if state.stack:
            state.stack[-1][_CHILD_S] += duration
        return duration

    def record(self, name: str, layer: str, start: float, end: float,
               op_id: int, child_s: float, span_id: int) -> None:
        """Add a finished root span whose children ran on other threads
        (the serving workload's submit-to-resume span)."""
        frame = [span_id, -1, op_id, name, layer, child_s, start, True]
        self._close(self._state(), frame, end - start, end)

    def _close(self, state: _ThreadState, frame: list, duration: float,
               end: float) -> None:
        layer = frame[_LAYER]
        state.self_s[layer] = (
            state.self_s.get(layer, 0.0) + duration - frame[_CHILD_S]
        )
        record = state.by_name.get(frame[_NAME])
        if record is None:
            record = state.by_name[frame[_NAME]] = [0, 0.0]
        record[0] += 1
        record[1] += duration
        if len(state.spans) < self.keep_spans:
            state.spans.append(
                (frame[_ID], frame[_PARENT], frame[_OP], frame[_NAME], layer,
                 frame[_START], end)
            )
        else:
            state.dropped += 1

    # -- boundary wrappers -----------------------------------------------
    def _wrap(self, fn: Callable, name: str, layer: str,
              count: Optional[Callable]) -> Callable:
        local, ids, close = self._local, self._ids, self._close
        track_busy = layer == "backend.numpy"

        def wrapped(self, *args, **kwargs):
            state = getattr(local, "state", None)
            if state is None or not state.stack:
                # Not inside a benchmark op (set-up, verification).
                return fn(self, *args, **kwargs)
            stack = state.stack
            parent = stack[-1]
            frame = [next(ids), parent[_ID], parent[_OP], name, layer, 0.0,
                     0.0, parent[_LAYER] not in BACKEND_LAYERS]
            stack.append(frame)
            start = frame[_START] = perf_counter()
            try:
                return fn(self, *args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[_CHILD_S] += duration
                close(state, frame, duration, end)
                if count is not None and frame[_ENTRY]:
                    count(state.counts, self, args)
                if track_busy:
                    key = id(self)
                    state.busy[key] = state.busy.get(key, 0.0) + duration

        wrapped._bench_span = name
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Patch every boundary method (class level, this process only)."""
        for cls, method, name, layer, count in boundaries():
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(original, name, layer, count))
            self._patched.append((cls, method, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def totals(self) -> dict:
        """Merged accumulators of every thread that recorded a span."""
        self_s: Dict[str, float] = {}
        by_name: Dict[str, List[float]] = {}
        counts: Dict[str, int] = {}
        busy: Dict[int, float] = {}
        spans: List[tuple] = []
        dropped = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, seconds in state.self_s.items():
                self_s[layer] = self_s.get(layer, 0.0) + seconds
            for name, (calls, seconds) in state.by_name.items():
                record = by_name.setdefault(name, [0, 0.0])
                record[0] += calls
                record[1] += seconds
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0) + value
            for key, seconds in state.busy.items():
                busy[key] = busy.get(key, 0.0) + seconds
            spans.extend(state.spans)
            dropped += state.dropped
        spans.sort(key=lambda span: span[5])
        return {
            "self_s": self_s, "by_name": by_name, "counts": counts,
            "busy": busy, "spans": spans, "dropped": dropped,
        }


def leftover_wrappers() -> List[str]:
    """Boundary methods that still carry a benchmark wrapper."""
    return [
        f"{cls.__name__}.{method}"
        for cls, method, _name, _layer, _count in boundaries()
        if getattr(cls.__dict__[method], "_bench_span", None) is not None
    ]
