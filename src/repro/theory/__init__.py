"""Theoretical PIM cycle counts and golden (ground-truth) semantics.

Used by the evaluation (Figure 13) to place measured PyPIM throughput next
to the theoretical PIM bound, and by the test suite as the NumPy-equivalent
reference for every ISA operation.
"""

from repro.theory.counts import (
    theoretical_cycles,
    serial_add_cycles,
    serial_mul_cycles,
    parallel_add_cycles,
)
from repro.theory.golden import golden_rtype

__all__ = [
    "theoretical_cycles",
    "serial_add_cycles",
    "serial_mul_cycles",
    "parallel_add_cycles",
    "golden_rtype",
]
