"""Differential fuzzing of the graph optimizer and execution backends.

A seeded generator builds random tensor programs (elementwise int/float
arithmetic, comparisons, ``where`` with tensor and scalar branches,
strided views, scalar writes, mid-trace frees, and a trailing
reduction), then every program is executed:

- eagerly on the bit-accurate simulator backend — through cached plans
  (the default) *and* on a ``cache_size=0`` device, where every macro is
  lowered and executed op-by-op (the reference),
- eagerly on the NumPy functional backend,
- under ``pim.compile`` at every ``opt_level`` (0..3) on both backends,
  capture and replay — on the simulator backend with the program cache
  on and off;

and cross-checked against a NumPy *mirror* built from
``repro.theory.golden`` (the paper's trusted-CPU reference semantics).
Assertions: every execution's outputs — tensors (raw bits), the reduced
scalar, and the final contents of (possibly mutated) argument tensors —
are bit-identical to the mirror, profiled cycle totals match between the
two backends at every level, level-0 replay is cycle-exact with eager
execution, and the cached and ``cache_size=0`` simulator devices leave
bit-identical memory images with identical ``SimStats`` — eagerly and
at every level.

Each case's captured macro-instruction stream additionally runs through
the whole-stream emission compiler (:mod:`repro.driver.stream`): the
spliced ``Driver.compile`` lowering must match the reference per-macro
lowering op for op (at both ``optimize`` flags), and whole-stream
emission (``execute_stream``) must leave the same memory image, the same
``SimStats``, and the same read response as op-by-op lowering (a
``cache_size=0`` simulator device; the numpy backend's per-instruction
loop).

Seeds are pinned so failures reproduce; CI's fuzz job rotates them via
``REPRO_FUZZ_SEEDS`` (space/comma-separated ints). On failure the
offending program descriptor is dumped to ``fuzz_artifacts/`` (override
with ``REPRO_FUZZ_ARTIFACT_DIR``) so the trace can be uploaded and
replayed offline.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

import repro.pim as pim
from repro.backend.base import family
from repro.isa.dtypes import DType, float32, int32
from repro.isa.instructions import ROp
from repro.theory.golden import golden_rtype

CROSSBARS, ROWS = 4, 8
N = 16  # base vector length (spans two warps at 8 rows)

#: Deterministic default seeds — the tier-1 smoke set.
PINNED_SEEDS = [11, 1729, 40961, 65537, 99991]

_BIN_INT = ["add", "sub", "mul", "div", "mod", "and", "or", "xor"]
_BIN_FLOAT = ["add", "sub", "mul"]
_CMP = ["lt", "le", "gt", "ge", "eq", "ne"]
_ROPS = {
    "add": ROp.ADD, "sub": ROp.SUB, "mul": ROp.MUL, "div": ROp.DIV,
    "mod": ROp.MOD, "and": ROp.BIT_AND, "or": ROp.BIT_OR, "xor": ROp.BIT_XOR,
    "neg": ROp.NEG, "abs": ROp.ABS,
    "lt": ROp.LT, "le": ROp.LE, "gt": ROp.GT, "ge": ROp.GE,
    "eq": ROp.EQ, "ne": ROp.NE,
}
_SLICES = [slice(0, None, 2), slice(1, None, 2)]


def _seeds() -> List[int]:
    env = os.environ.get("REPRO_FUZZ_SEEDS", "").replace(",", " ").split()
    return [int(token) for token in env] if env else list(PINNED_SEEDS)


def _artifact_dir() -> str:
    return os.environ.get(
        "REPRO_FUZZ_ARTIFACT_DIR",
        os.path.join(os.path.dirname(__file__), "..", "..", "fuzz_artifacts"),
    )


def _safe_float(values: np.ndarray) -> bool:
    """True when every word is a normal float32 or a signed zero."""
    bits = np.ascontiguousarray(values).view(np.uint32)
    exponent = bits & np.uint32(0x7F800000)
    if (exponent == 0x7F800000).any():
        return False  # Inf/NaN
    return bool(((exponent != 0) | ((bits & np.uint32(0x7FFFFFFF)) == 0)).all())


# ----------------------------------------------------------------------
# The mirror: golden-semantics NumPy evaluation of a program descriptor
# ----------------------------------------------------------------------
def _mirror_bin(op: str, dtype: DType, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return golden_rtype(_ROPS[op], dtype, a, b)


def _mirror_sum(values: np.ndarray, dtype: DType) -> float:
    """Replicate the library's halving reduction order exactly."""
    work = values.copy()
    n = len(work)
    while n > 1:
        half = n // 2
        keep = n - half
        work[:half] = golden_rtype(ROp.ADD, dtype, work[:half], work[keep:n])
        n = keep
    return work[0].item()


class Mirror:
    """Golden-reference pools; also the generator's validity oracle."""

    def __init__(self, int_inputs, float_inputs):
        self.pools: Dict[str, List[np.ndarray]] = {
            "int": [arr.copy() for arr in int_inputs],
            "float": [arr.copy() for arr in float_inputs],
            "cond": [],
        }
        self.scalar: Optional[float] = None

    def dtype(self, pool: str) -> DType:
        return float32 if pool == "float" else int32

    def apply(self, step: Tuple) -> None:
        kind = step[0]
        pools = self.pools
        if kind == "bin":
            _, pool, op, i, j = step
            pools[pool].append(
                _mirror_bin(op, self.dtype(pool), pools[pool][i], pools[pool][j])
            )
        elif kind == "scalar_bin":
            _, pool, op, i, value = step
            a = pools[pool][i]
            b = np.full(len(a), value, dtype=a.dtype)
            pools[pool].append(_mirror_bin(op, self.dtype(pool), a, b))
        elif kind == "unary":
            _, pool, op, i = step
            a = pools[pool][i]
            pools[pool].append(golden_rtype(_ROPS[op], self.dtype(pool), a))
        elif kind == "cmp":
            _, pool, op, i, j = step
            result = _mirror_bin(op, self.dtype(pool), pools[pool][i], pools[pool][j])
            pools["cond"].append(result.view(np.int32).copy())
        elif kind == "where":
            _, pool, c, i, j = step
            cond = pools["cond"][c]
            pools[pool].append(
                np.where(cond != 0, pools[pool][i], pools[pool][j])
            )
        elif kind == "where_scalar":
            _, pool, c, low, high = step
            cond = pools["cond"][c]
            np_dtype = self.dtype(pool).np_dtype
            pools[pool].append(
                np.where(cond != 0, np_dtype(low), np_dtype(high)).astype(np_dtype)
            )
        elif kind == "view_bin":
            _, pool, op, i, si, j, sj = step
            a = pools[pool][i][_SLICES[si]]
            b = pools[pool][j][_SLICES[sj]]
            pools[pool].append(_mirror_bin(op, self.dtype(pool), a, b))
        elif kind == "setitem":
            _, pool, i, index, value = step
            pools[pool][i] = pools[pool][i].copy()
            pools[pool][i][index] = value
        elif kind == "drop":
            _, pool, i = step
            del pools[pool][i]
        elif kind == "sum":
            _, pool, i = step
            self.scalar = _mirror_sum(pools[pool][i], self.dtype(pool))
        else:  # pragma: no cover - generator bug
            raise AssertionError(f"unknown step {step!r}")


# ----------------------------------------------------------------------
# The PIM executor of the same descriptor
# ----------------------------------------------------------------------
def make_program(desc: List[Tuple]):
    """A traced function executing ``desc`` on its argument tensors."""

    def program(ia, ib, fa, fb):
        pools = {"int": [ia, ib], "float": [fa, fb], "cond": []}
        scalar = None
        for step in desc:
            kind = step[0]
            if kind == "bin":
                _, pool, op, i, j = step
                pools[pool].append(_pim_bin(op, pools[pool][i], pools[pool][j]))
            elif kind == "scalar_bin":
                _, pool, op, i, value = step
                pools[pool].append(_pim_bin(op, pools[pool][i], value))
            elif kind == "unary":
                _, pool, op, i = step
                a = pools[pool][i]
                pools[pool].append(-a if op == "neg" else abs(a))
            elif kind == "cmp":
                _, pool, op, i, j = step
                pools["cond"].append(
                    _pim_bin(op, pools[pool][i], pools[pool][j])
                )
            elif kind == "where":
                _, pool, c, i, j = step
                pools[pool].append(
                    pim.where(pools["cond"][c], pools[pool][i], pools[pool][j])
                )
            elif kind == "where_scalar":
                _, pool, c, low, high = step
                pools[pool].append(pim.where(pools["cond"][c], low, high))
            elif kind == "view_bin":
                _, pool, op, i, si, j, sj = step
                a = pools[pool][i][_SLICES[si]]
                b = pools[pool][j][_SLICES[sj]]
                pools[pool].append(_pim_bin(op, a, b))
            elif kind == "setitem":
                _, pool, i, index, value = step
                pools[pool][i][index] = value
            elif kind == "drop":
                _, pool, i = step
                del pools[pool][i]
            elif kind == "sum":
                _, pool, i = step
                scalar = pools[pool][i].sum()
        # Everything still alive is an output (dropped tensors are the
        # dead temporaries the optimizer may eliminate). Inputs are
        # excluded: their final contents are checked via the arguments.
        outputs = tuple(pools["int"][2:]) + tuple(pools["float"][2:]) + tuple(
            pools["cond"]
        )
        return outputs, scalar

    return program


def _pim_bin(op: str, a, b):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "mod":
        return a % b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    raise AssertionError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Program generation (mirror-validated, deterministic per seed)
# ----------------------------------------------------------------------
def build_case(seed: int, steps: int = 9):
    rng = np.random.default_rng(seed)
    int_inputs = [
        rng.integers(-50, 50, N).astype(np.int32) for _ in range(2)
    ]
    float_inputs = []
    for _ in range(2):
        sign = rng.integers(0, 2, N).astype(np.uint32) << 31
        exponent = rng.integers(121, 134, N).astype(np.uint32) << 23
        mantissa = rng.integers(0, 1 << 23, N).astype(np.uint32)
        float_inputs.append((sign | exponent | mantissa).view(np.float32))

    mirror = Mirror(int_inputs, float_inputs)
    desc: List[Tuple] = []
    attempts = 0
    while len(desc) < steps and attempts < steps * 20:
        attempts += 1
        step = _propose(rng, mirror)
        if step is None:
            continue
        probe = Mirror([], [])
        probe.pools = {k: list(v) for k, v in mirror.pools.items()}
        try:
            probe.apply(step)
        except Exception:
            continue
        new = _new_values(mirror, probe, step)
        if any(
            arr.dtype == np.float32 and not _safe_float(arr) for arr in new
        ):
            continue
        mirror.pools = probe.pools
        desc.append(step)
    if rng.random() < 0.8:
        pool = "float" if rng.random() < 0.5 else "int"
        candidates = [
            i for i, arr in enumerate(mirror.pools[pool]) if len(arr) == N
        ]
        if candidates:
            i = int(rng.choice(candidates))
            if pool == "int" or _sum_is_safe(mirror.pools[pool][i]):
                step = ("sum", pool, i)
                mirror.apply(step)
                desc.append(step)
    return desc, int_inputs, float_inputs, mirror


def _sum_is_safe(values: np.ndarray) -> bool:
    work = values.copy()
    n = len(work)
    while n > 1:
        half = n // 2
        keep = n - half
        with np.errstate(all="ignore"):
            work[:half] = (work[:half] + work[keep:n]).astype(np.float32)
        if not _safe_float(work[:half]):
            return False
        n = keep
    return True


def _new_values(old: Mirror, new: Mirror, step) -> List[np.ndarray]:
    grown = []
    for pool in ("int", "float", "cond"):
        grown.extend(new.pools[pool][len(old.pools[pool]):])
    if step[0] == "setitem":
        grown.append(new.pools[step[1]][step[2]])
    return grown


def _pick(rng, mirror: Mirror, pool: str, length: int = N) -> Optional[int]:
    candidates = [
        i for i, arr in enumerate(mirror.pools[pool]) if len(arr) == length
    ]
    if not candidates:
        return None
    return int(rng.choice(candidates))


def _propose(rng, mirror: Mirror) -> Optional[Tuple]:
    pool = "float" if rng.random() < 0.5 else "int"
    roll = rng.random()
    if roll < 0.25:
        ops = _BIN_FLOAT if pool == "float" else _BIN_INT
        op = str(rng.choice(ops))
        i, j = _pick(rng, mirror, pool), _pick(rng, mirror, pool)
        if i is None or j is None:
            return None
        if op in ("div", "mod") and (mirror.pools[pool][j] == 0).any():
            return None
        return ("bin", pool, op, i, j)
    if roll < 0.33:
        op = str(rng.choice(_BIN_FLOAT if pool == "float" else _BIN_INT[:3]))
        i = _pick(rng, mirror, pool)
        if i is None:
            return None
        value = float(rng.integers(1, 5)) if pool == "float" else int(
            rng.integers(1, 9)
        )
        return ("scalar_bin", pool, op, i, value)
    if roll < 0.40:
        i = _pick(rng, mirror, pool)
        if i is None:
            return None
        return ("unary", pool, str(rng.choice(["neg", "abs"])), i)
    if roll < 0.54:
        i, j = _pick(rng, mirror, pool), _pick(rng, mirror, pool)
        if i is None or j is None:
            return None
        return ("cmp", pool, str(rng.choice(_CMP)), i, j)
    if roll < 0.72:
        conds = [i for i, c in enumerate(mirror.pools["cond"]) if len(c) == N]
        if not conds:
            return None
        c = int(rng.choice(conds))
        if rng.random() < 0.5:
            i, j = _pick(rng, mirror, pool), _pick(rng, mirror, pool)
            if i is None or j is None:
                return None
            return ("where", pool, c, i, j)
        low, high = (
            (float(rng.integers(-3, 4)), float(rng.integers(-3, 4)))
            if pool == "float"
            else (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        )
        return ("where_scalar", pool, c, low, high)
    if roll < 0.82:
        op = str(rng.choice(_BIN_FLOAT if pool == "float" else _BIN_INT[:3]))
        i, j = _pick(rng, mirror, pool), _pick(rng, mirror, pool)
        if i is None or j is None:
            return None
        si, sj = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        return ("view_bin", pool, op, i, si, j, sj)
    if roll < 0.90:
        i = _pick(rng, mirror, pool)
        if i is None:
            return None
        index = int(rng.integers(0, N))
        value = float(rng.integers(-4, 5)) if pool == "float" else int(
            rng.integers(-20, 21)
        )
        return ("setitem", pool, i, index, value)
    if len(mirror.pools[pool]) > 2:
        # Never drop an input (indices 0/1): they are checked as
        # arguments; later pool indices are fair game (dead temporaries).
        i = int(rng.integers(2, len(mirror.pools[pool])))
        return ("drop", pool, i)
    return None


# ----------------------------------------------------------------------
# Execution / checking
# ----------------------------------------------------------------------
def _fresh_inputs(int_inputs, float_inputs):
    tensors = [pim.from_numpy(arr) for arr in int_inputs]
    tensors += [pim.from_numpy(arr) for arr in float_inputs]
    return tensors


def _reload(tensors, int_inputs, float_inputs):
    device = pim.default_device()
    for tensor, host in zip(tensors, int_inputs + float_inputs):
        device.load_array(tensor.slot, host, tensor.dtype)


def _bits(array: np.ndarray) -> List[int]:
    return np.ascontiguousarray(array).view(np.uint32).tolist()


def _check_outputs(outputs, scalar, tensors, mirror: Mirror, context: str):
    expected = (
        mirror.pools["int"][2:] + mirror.pools["float"][2:] + mirror.pools["cond"]
    )
    assert len(outputs) == len(expected), context
    for got, want in zip(outputs, expected):
        assert _bits(got.to_numpy()) == _bits(want), context
    if mirror.scalar is None:
        assert scalar is None, context
    else:
        got = float(scalar)
        want = float(mirror.scalar)
        assert np.float32(got).view(np.uint32) == np.float32(want).view(
            np.uint32
        ), context
    finals = mirror.pools["int"][:2] + mirror.pools["float"][:2]
    for tensor, want in zip(tensors, finals):
        assert _bits(tensor.to_numpy()) == _bits(want), f"{context} (argument)"


def _run_case(seed: int):
    desc, int_inputs, float_inputs, mirror = build_case(seed)
    program = make_program(desc)

    # Eager references on both backends; the simulator both through
    # cached plans and lowered op-by-op (cache_size=0) -------------------
    eager_cycles = {}
    eager_state = {}
    for backend, kwargs in (
        ("simulator", {}), ("simulator", {"cache_size": 0}), ("numpy", {}),
    ):
        device = pim.init(
            crossbars=CROSSBARS, rows=ROWS, backend=backend, **kwargs
        )
        tensors = _fresh_inputs(int_inputs, float_inputs)
        before = device.stats_snapshot()
        outputs, scalar = program(*tensors)
        eager_cycles[backend] = device.backend.stats.diff(before).cycles
        _check_outputs(outputs, scalar, tensors, mirror,
                       f"seed={seed} eager {backend} {kwargs}")
        if backend == "simulator":
            eager_state["lowered" if kwargs else "plans"] = (
                device.backend.words.copy(), device.backend.stats.copy()
            )
        pim.reset()
    assert eager_cycles["simulator"] == eager_cycles["numpy"], f"seed={seed}"
    assert np.array_equal(
        eager_state["plans"][0], eager_state["lowered"][0]
    ), f"seed={seed}: eager plans diverge from op-by-op lowering (memory)"
    assert eager_state["plans"][1] == eager_state["lowered"][1], (
        f"seed={seed}: eager plans diverge from op-by-op lowering (stats)"
    )

    _check_stream_lowering(seed, program, int_inputs, float_inputs)
    _check_pooled(seed, program, int_inputs, float_inputs, mirror)

    # Compiled at every opt_level on both backends — the simulator
    # backend additionally against a cache_size=0 device -----------------
    replay_cycles = {}
    engine_state = {}
    for backend in ("simulator", "numpy"):
        engines = ("cached", "uncached") if backend == "simulator" else (None,)
        for level in pim.OPT_LEVELS:
            for engine in engines:
                backend_kwargs = {"cache_size": 0} if engine == "uncached" else {}
                device = pim.init(
                    crossbars=CROSSBARS, rows=ROWS, backend=backend,
                    **backend_kwargs,
                )
                tensors = _fresh_inputs(int_inputs, float_inputs)
                func = pim.compile(
                    lambda *args: program(*args), opt_level=level, cache_size=2
                )
                context = f"seed={seed} {backend} O{level}" + (
                    f" {engine}" if engine else ""
                )
                before = device.stats_snapshot()
                outputs, scalar = func(*tensors)  # capture + first replay
                first_delta = device.backend.stats.diff(before)
                _check_outputs(
                    outputs, scalar, tensors, mirror, context + " capture"
                )
                if level == 0 and engine == "cached":
                    # Nothing ran but one replay of the eager stream.
                    assert np.array_equal(
                        device.backend.words, eager_state["plans"][0]
                    ), f"{context}: first call leaves another memory image"
                for round_ in range(2):  # cached replays
                    _reload(tensors, int_inputs, float_inputs)
                    before = device.stats_snapshot()
                    outputs, scalar = func(*tensors)
                    delta = device.backend.stats.diff(before)
                    _check_outputs(
                        outputs, scalar, tensors, mirror,
                        f"{context} replay {round_}",
                    )
                assert func.captures == 1, context
                assert first_delta == delta, (
                    f"{context}: the first call is not billed as a replay"
                )
                if engine is not None:
                    engine_state[(level, engine)] = (
                        device.backend.words.copy(), delta
                    )
                if engine != "uncached":
                    replay_cycles[(backend, level)] = delta.cycles
                pim.reset()

    # The cached and cache_size=0 devices must be indistinguishable:
    # same final memory image, same per-replay SimStats, at every level.
    for level in pim.OPT_LEVELS:
        words_c, stats_c = engine_state[(level, "cached")]
        words_u, stats_u = engine_state[(level, "uncached")]
        assert np.array_equal(words_c, words_u), (
            f"seed={seed} O{level}: cached/uncached memory images diverge"
        )
        assert stats_c == stats_u, (
            f"seed={seed} O{level}: cached/uncached stats diverge"
        )

    for level in pim.OPT_LEVELS:
        assert (
            replay_cycles[("simulator", level)] == replay_cycles[("numpy", level)]
        ), f"seed={seed} O{level}: backend cycle totals diverge"
    assert replay_cycles[("simulator", 0)] == eager_cycles["simulator"], (
        f"seed={seed}: level-0 replay is not cycle-exact with eager mode"
    )
    for level in (2, 3):
        assert (
            replay_cycles[("simulator", level)]
            <= replay_cycles[("simulator", 0)]
        ), f"seed={seed} O{level}: optimizer made the program slower"


def _check_stream_lowering(seed, program, int_inputs, float_inputs):
    """Differential check of the whole-stream emission compiler.

    Uses the case's captured macro-instruction stream (the O0 graph) as
    fuzz input for :mod:`repro.driver.stream`: spliced compilation must
    match the reference lowering op for op, and ``execute_stream`` must
    be bit-identical (memory, ``SimStats``, read response) to op-by-op
    lowering — a ``cache_size=0`` device on the simulator, the
    per-instruction loop on the numpy backend (which has no driver to
    lower through).
    """
    device = pim.init(crossbars=CROSSBARS, rows=ROWS)
    tensors = _fresh_inputs(int_inputs, float_inputs)
    func = pim.compile(lambda *args: program(*args), opt_level=0, cache_size=2)
    func(*tensors)
    instrs = tuple(func.graph_for(*tensors).instructions)
    driver = device.backend.driver
    for optimize in (False, True):
        spliced = driver.compile(instrs, optimize=optimize, emit="stream")
        legacy = driver.compile(instrs, optimize=optimize, emit="macro")
        assert list(spliced.ops) == list(legacy.ops), (
            f"seed={seed} optimize={optimize}: spliced stream lowering "
            "diverges from per-macro lowering"
        )
        assert spliced.reads == legacy.reads, f"seed={seed} {optimize}"
        assert spliced.source_ops == legacy.source_ops, f"seed={seed}"
    pim.reset()

    for backend in ("simulator", "numpy"):
        state = {}
        for mode in ("stream", "macro"):
            lowered = backend == "simulator" and mode == "macro"
            device = pim.init(
                crossbars=CROSSBARS, rows=ROWS, backend=backend,
                **({"cache_size": 0} if lowered else {}),
            )
            if mode == "stream" or lowered:
                response = device.execute_stream(list(instrs))
                counters = family(device.backend.counters(), "emit")
                assert counters[mode] == 1, f"seed={seed} {backend} {mode}"
            else:
                response = None
                for instr in instrs:
                    result = device.backend.execute(instr)
                    if result is not None:
                        response = result
            state[mode] = (
                device.backend.words.copy(),
                device.backend.stats.copy(),
                response,
            )
            pim.reset()
        context = f"seed={seed} {backend} stream-vs-lowered emission"
        assert state["stream"][2] == state["macro"][2], context
        assert np.array_equal(state["stream"][0], state["macro"][0]), context
        assert state["stream"][1] == state["macro"][1], context


def _check_pooled(seed, program, int_inputs, float_inputs, mirror):
    """Pooled-backend leg: inter-crossbar sharding must be invisible.

    The same case runs on ``backend="pooled"`` (two simulator workers,
    two crossbars each) and on the single simulator device, eagerly and
    under ``pim.compile`` at O0 — final memory images, ``SimStats``, and
    every checked output must be bit-identical. The pool's canonical
    accounting makes the stats comparison exact, not approximate.
    """
    pooled_kwargs = {"workers": 2, "worker_backend": "simulator"}
    eager_state = {}
    for backend, kwargs in (("simulator", {}), ("pooled", pooled_kwargs)):
        device = pim.init(
            crossbars=CROSSBARS, rows=ROWS, backend=backend, **kwargs
        )
        tensors = _fresh_inputs(int_inputs, float_inputs)
        outputs, scalar = program(*tensors)
        _check_outputs(outputs, scalar, tensors, mirror,
                       f"seed={seed} pooled-leg eager {backend}")
        eager_state[backend] = (
            device.backend.words.copy(), device.backend.stats.copy()
        )
        pim.reset()
    context = f"seed={seed} pooled-vs-single eager"
    assert np.array_equal(eager_state["pooled"][0],
                          eager_state["simulator"][0]), context
    assert eager_state["pooled"][1] == eager_state["simulator"][1], context

    replay_state = {}
    for backend, kwargs in (("simulator", {}), ("pooled", pooled_kwargs)):
        device = pim.init(
            crossbars=CROSSBARS, rows=ROWS, backend=backend, **kwargs
        )
        tensors = _fresh_inputs(int_inputs, float_inputs)
        func = pim.compile(
            lambda *args: program(*args), opt_level=0, cache_size=2
        )
        context = f"seed={seed} pooled-leg {backend} O0"
        outputs, scalar = func(*tensors)
        _check_outputs(outputs, scalar, tensors, mirror, context + " capture")
        _reload(tensors, int_inputs, float_inputs)
        before = device.stats_snapshot()
        outputs, scalar = func(*tensors)
        delta = device.backend.stats.diff(before)
        _check_outputs(outputs, scalar, tensors, mirror, context + " replay")
        assert func.captures == 1, context
        replay_state[backend] = (device.backend.words.copy(), delta)
        pim.reset()
    context = f"seed={seed} pooled-vs-single O0 replay"
    assert np.array_equal(replay_state["pooled"][0],
                          replay_state["simulator"][0]), context
    assert replay_state["pooled"][1] == replay_state["simulator"][1], context


def _check_bills(seed, program, int_inputs, float_inputs, cache_dir):
    """One bill per program, however it is obtained.

    For the case's captured stream, unoptimized and peephole-optimized,
    on simulator, numpy and pooled backends: the bill the compiled
    program carries (``program_stats``), a strict ``accounting_walk`` of
    the reference lowering, the ``SimStats`` delta of actually replaying
    it, and the sum of the per-instruction bills (``stream_stats``,
    unoptimized only) are equal — H-tree hops itemized alike — in the
    session that compiled the program and in a second session that
    restored it (and its bill) from ``cache_dir``. Each counts one cycle
    per micro-op, split into ``theory.counts``' productive and overhead
    cycles.
    """
    from repro.arch.config import small_config
    from repro.driver.driver import Driver
    from repro.sim.simulator import accounting_walk
    from repro.theory.counts import overhead_cycles, theoretical_cycles

    pim.init(crossbars=CROSSBARS, rows=ROWS)
    tensors = _fresh_inputs(int_inputs, float_inputs)
    func = pim.compile(lambda *args: program(*args), opt_level=0, cache_size=2)
    instrs = tuple(func.graph_for(*tensors).instructions)
    pim.reset()
    config = small_config(crossbars=CROSSBARS, rows=ROWS)
    reference = Driver(None, config=config)
    backends = {
        "simulator": {"backend": "simulator"},
        "numpy": {"backend": "numpy"},
        "pooled": {"backend": "pooled", "workers": 2,
                   "worker_backend": "simulator"},
    }
    for optimize in (False, True):
        macro = reference.compile(instrs, optimize=optimize, emit="macro")
        strict = accounting_walk(macro.ops, config)
        context = f"seed={seed} strict optimize={optimize}"
        assert strict.cycles == strict.micro_ops, context
        assert (
            theoretical_cycles(strict) + overhead_cycles(strict) == strict.cycles
        ), context
        # The spliced program — words from birth, optimized and billed
        # as columns — is the reference lowering, word for word.
        spliced = reference.compile(instrs, optimize=optimize)
        context = f"seed={seed} spliced-vs-macro optimize={optimize}"
        assert np.array_equal(
            spliced.encoded(config.word_size), macro.encoded(config.word_size)
        ), context
        assert spliced.bill(config) == strict, context
        assert spliced._ops is None, context
        for name, kwargs in backends.items():
            directory = os.path.join(cache_dir, name)
            for session in ("cold", "warm"):
                context = f"seed={seed} {name} optimize={optimize} {session}"
                device = pim.PIMDevice(config, cache_dir=directory, **kwargs)
                backend = device.backend
                compiled = backend.compile(instrs, name="bill", optimize=optimize)
                if session == "warm":
                    assert family(backend.counters(), "persist")["loads"] > 0, context
                    assert family(backend.counters(), "persist")["invalid"] == 0
                carried = backend.program_stats(compiled)
                before = backend.stats_snapshot()
                backend.run_program(compiled)
                executed = backend.stats.diff(before)
                assert carried == strict == executed, context
                assert (
                    carried.htree_hop_cycles
                    == executed.htree_hop_cycles
                    == strict.htree_hop_cycles
                ), context
                assert executed.cycles == executed.micro_ops, context
                assert (
                    theoretical_cycles(executed) + overhead_cycles(executed)
                    == executed.cycles
                ), context
                if not optimize:
                    assert backend.stream_stats(instrs) == strict, context
                device.close()


def _dump_artifact(seed: int, error: BaseException) -> None:
    desc, int_inputs, float_inputs, _ = build_case(seed)
    directory = _artifact_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"failure_seed_{seed}.txt")
    with open(path, "w") as handle:
        handle.write(
            "Differential fuzz failure\n"
            f"seed: {seed}\n"
            f"geometry: crossbars={CROSSBARS} rows={ROWS} n={N}\n"
            f"error: {error!r}\n\nprogram steps:\n"
        )
        for step in desc:
            handle.write(f"  {step!r}\n")
        handle.write("\nint inputs (raw bits):\n")
        for arr in int_inputs:
            handle.write(f"  {_bits(arr)!r}\n")
        handle.write("float inputs (raw bits):\n")
        for arr in float_inputs:
            handle.write(f"  {_bits(arr)!r}\n")
        handle.write("\nreplay plan (O0, simulator):\n")
        try:
            for line in _plan_lines(make_program(desc), int_inputs, float_inputs):
                handle.write(f"  {line}\n")
        except Exception as plan_error:  # noqa: BLE001 - the dump must land
            handle.write(f"  unavailable: {plan_error!r}\n")


def _plan_lines(program, int_inputs, float_inputs) -> List[str]:
    """The case's O0 replay plan as ``replay_info()`` reports it: the
    segmentation counts, then one line per gate run."""
    pim.reset()
    pim.init(crossbars=CROSSBARS, rows=ROWS)
    func = pim.compile(lambda *args: program(*args), opt_level=0, cache_size=2)
    info = func.replay_info(*_fresh_inputs(int_inputs, float_inputs))
    runs = info.pop("plan") or []
    return [repr(info)] + [f"run {index}: {run!r}" for index, run in enumerate(runs)]


@pytest.fixture(autouse=True)
def _cleanup():
    yield
    pim.reset()


@pytest.mark.parametrize("seed", _seeds())
def test_differential_fuzz(seed):
    try:
        _run_case(seed)
    except BaseException as error:  # noqa: BLE001 - re-raised below
        _dump_artifact(seed, error)
        raise


@pytest.mark.parametrize("seed", _seeds())
def test_carried_bill_is_the_executed_bill(seed, tmp_path):
    desc, int_inputs, float_inputs, _ = build_case(seed)
    try:
        _check_bills(
            seed, make_program(desc), int_inputs, float_inputs, str(tmp_path)
        )
    except BaseException as error:  # noqa: BLE001 - re-raised below
        _dump_artifact(seed, error)
        raise


def test_failure_dump_carries_the_replay_plan(tmp_path, monkeypatch):
    """A failing seed's artifact holds the plan the replays ran, as data."""
    monkeypatch.setenv("REPRO_FUZZ_ARTIFACT_DIR", str(tmp_path))
    seed = PINNED_SEEDS[0]
    _dump_artifact(seed, AssertionError("synthetic"))
    text = (tmp_path / f"failure_seed_{seed}.txt").read_text()
    plan = text.split("replay plan (O0, simulator):\n")[1].splitlines()
    assert "'engine': 'vectorized'" in plan[0] and "plan_build_ms" in plan[0]
    assert plan[1].startswith("  run 0: {'lanes': ")
    assert "'opcodes': {" in plan[1] and "'masks': " in plan[1]


def test_generator_is_deterministic():
    """Failures must reproduce: same seed, same program, same data."""
    first = build_case(PINNED_SEEDS[0])
    second = build_case(PINNED_SEEDS[0])
    assert first[0] == second[0]
    for a, b in zip(first[1] + first[2], second[1] + second[2]):
        assert _bits(a) == _bits(b)


def test_generator_exercises_the_interesting_shapes():
    """Across the pinned seeds the generator must produce the operation
    mix the optimizer needs hardened against (not a vacuous suite)."""
    kinds = set()
    for seed in PINNED_SEEDS:
        desc, _, _, _ = build_case(seed)
        kinds.update(step[0] for step in desc)
    assert {"bin", "cmp"} <= kinds
    assert kinds & {"where", "where_scalar"}
    assert kinds & {"view_bin", "setitem", "drop", "sum"}
