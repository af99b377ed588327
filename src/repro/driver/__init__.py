"""Host driver: lowering ISA macro-instructions into micro-operations.

Section V-B of the paper: the driver translates abstract macro-instructions
(e.g. a floating-point register multiply) into the NOR/NOT/INIT
micro-operation sequences of the microarchitecture. The arithmetic routines
re-implement the AritPIM suite from scratch:

- :mod:`repro.driver.gates` — the gate-level builder (scratch wires,
  stateful-logic primitives, init accounting);
- :mod:`repro.driver.bitvec` — bit-vector combinators (adders, shifters
  with sticky collection, comparators, normalizers, rounding);
- :mod:`repro.driver.fixed` — fixed-point (two's-complement) routines;
- :mod:`repro.driver.floating` — IEEE-754 binary32 routines;
- :mod:`repro.driver.parallel` — bit-parallel (partition) fast paths;
- :mod:`repro.driver.program` — the :class:`MicroProgram` IR and the LRU
  :class:`ProgramCache` (compile once, replay many times);
- :mod:`repro.driver.compiler` — stream validation plus the peephole
  passes (mask coalescing, redundant-INIT1 elimination);
- :mod:`repro.driver.driver` — the :class:`Driver` itself, with its
  compiled-program cache;
- :mod:`repro.driver.stream` — the stream handle (:class:`MacroStream`;
  a stream's plan is its cached fused :class:`MicroProgram`, and an
  eager R-type macro is a one-instruction stream);
- :mod:`repro.driver.throughput` — the driver-throughput measurement
  harness (micro-ops rerouted to a memory buffer, Section VI-B / artifact
  appendix).
"""

from repro.arch.config import config_fingerprint
from repro.driver.compiler import CompileError, compile_ops
from repro.driver.driver import Driver, BufferSink
from repro.driver.gates import GateBuilder, ScratchOverflow
from repro.driver.program import MicroProgram, ProgramCache
from repro.driver.stream import MacroStream

__all__ = [
    "Driver",
    "BufferSink",
    "GateBuilder",
    "ScratchOverflow",
    "MicroProgram",
    "ProgramCache",
    "MacroStream",
    "CompileError",
    "compile_ops",
    "config_fingerprint",
]
