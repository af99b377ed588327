"""Driver-throughput measurement (Section VI-B, Figure 13 third series).

Replicates the paper's methodology: micro-operations are rerouted to a
memory buffer instead of the simulator (see :class:`BufferSink`), so the
elapsed time is purely the cost of the host driver generating them. The
derived quantity is the maximal PIM micro-op consumption rate the driver
can sustain; the chip consumes one micro-op per cycle at ``frequency_hz``,
so ``micro_ops_per_second / frequency_hz`` is the headroom factor ("the
host driver is not a bottleneck" when it exceeds 1).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.arch.config import PIMConfig
from repro.driver.driver import BufferSink, Driver
from repro.isa.dtypes import DType
from repro.isa.instructions import ARITY, RInstr, ROp


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of a driver-throughput run.

    ``emit`` records the dispatch granularity the run measured
    (``"macro"``: one ``Driver.execute`` call — a one-instruction plan —
    per macro; ``"stream"``: ``stream_len``-macro plans via
    ``Driver.execute_stream``), and ``plan_hits`` / ``plan_misses`` are
    the stream-tier cache counters accumulated during the timed loop — a
    warm run should show only hits, so cold/warm attribution stays
    honest.
    """

    macro_instructions: int
    micro_ops: int
    seconds: float
    frequency_hz: float
    emit: str = "macro"
    plan_hits: int = 0
    plan_misses: int = 0

    @property
    def macro_per_second(self) -> float:
        return self.macro_instructions / self.seconds

    @property
    def micro_per_second(self) -> float:
        return self.micro_ops / self.seconds

    @property
    def headroom(self) -> float:
        """How many times faster than the chip's consumption rate."""
        return self.micro_per_second / self.frequency_hz

    @property
    def ops_per_macro(self) -> float:
        """Micro-operations emitted per macro-instruction."""
        return self.micro_ops / max(self.macro_instructions, 1)


def measure_driver_throughput(
    config: PIMConfig,
    op: ROp,
    dtype: DType,
    iterations: int = 10_000,
    use_cache: bool = True,
    seed: int = 0,
    unique_sequences: int = 64,
    stream_len: int = 0,
) -> ThroughputResult:
    """Time the generation of ``iterations`` random macro-instructions.

    Register operands are drawn at random from the user registers (like the
    paper's ``rand() % 32`` benchmark loop). ``unique_sequences`` bounds
    how many distinct register tuples appear — real instruction streams
    reuse a small working set of tuples, which is what makes the compiled-
    sequence cache effective; pass ``iterations`` to make every tuple
    fresh (the cold-cache ablation).

    With ``stream_len > 1`` the instructions are grouped into
    ``stream_len``-macro streams emitted via ``Driver.execute_stream``
    (several distinct stream tuples rotate, so the plan cache holds more
    than one entry). The default (``stream_len=0``) calls
    ``Driver.execute`` once per macro: the same plan dispatch at
    one-instruction granularity, i.e. the fixed per-dispatch cost. With
    the cache on, every distinct unit is emitted once before timing, so
    the measurement is the steady state (the paper amortizes the one-time
    lowering over 10M-instruction loops).
    """
    from repro.driver.stream import MacroStream

    sink = BufferSink(config)
    driver = Driver(sink, config=config, cache_size=4096 if use_cache else 0)
    rng = random.Random(seed)
    user = config.user_registers
    arity = ARITY[op]

    pool = []
    for _ in range(max(1, unique_sequences)):
        regs = [rng.randrange(user) for _ in range(1 + arity)]
        pool.append(
            RInstr(
                op,
                dtype,
                dest=regs[0],
                src_a=regs[1],
                src_b=regs[2] if arity >= 2 else None,
                src_c=regs[3] if arity >= 3 else None,
            )
        )

    if stream_len > 1:
        # Whole-stream emission: a handful of distinct stream tuples
        # (rotated offsets into the instruction pool) emitted repeatedly,
        # like a host loop dispatching the same compiled kernels.
        loops = max(1, iterations // stream_len)
        units = [
            MacroStream(
                pool[(7 * index + position) % len(pool)]
                for position in range(stream_len)
            )
            for index in range(min(8, loops))
        ]
        emit, width = driver.execute_stream, stream_len
    else:
        emit, units, loops, width = driver.execute, pool, iterations, 1
    sequence = [units[index % len(units)] for index in range(loops)]
    if use_cache:
        for unit in units:
            emit(unit)
    counted_before = sink.count
    hits_before = driver.streams.hits
    misses_before = driver.streams.misses

    start = time.perf_counter()
    for unit in sequence:
        emit(unit)
    elapsed = time.perf_counter() - start
    return ThroughputResult(
        macro_instructions=loops * width,
        micro_ops=sink.count - counted_before,
        seconds=max(elapsed, 1e-9),
        frequency_hz=config.frequency_hz,
        emit="stream" if width > 1 else "macro",
        plan_hits=driver.streams.hits - hits_before,
        plan_misses=driver.streams.misses - misses_before,
    )
