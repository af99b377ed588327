"""Theoretical PIM cycle counts (the "Theoretical PIM" series of Fig. 13).

Definition used throughout this reproduction (``docs/architecture.md`` §11):
the theoretical cycle count of a computation is the number of *productive
stateful-logic gate cycles* it performs — NOR/NOT logic operations plus
data-movement operations — excluding initialization cycles, mask updates
and framework copies. This matches the spirit of the paper's comparison
(algorithmic lower bound vs. end-to-end measured micro-ops); the measured/
theoretical gap is the framework overhead the paper reports as 5% average
/ 16% worst-case.

Closed-form counts for the classic bit-serial algorithms are provided as
cross-checks (e.g. 9N NORs for ripple-carry addition, the AritPIM full
adder); for composite routines the theoretical count is extracted from the
simulator's per-gate-type counters via :func:`theoretical_cycles`.
"""

from __future__ import annotations

from repro.sim.stats import SimStats

#: Gate-type counter keys that count as productive work.
_PRODUCTIVE = ("logic_h_nor", "logic_h_not", "logic_v_not", "move")
#: Overhead keys (initialization, masks, reads/writes).
_OVERHEAD = (
    "logic_h_init0",
    "logic_h_init1",
    "logic_v_init0",
    "logic_v_init1",
    "mask_crossbar",
    "mask_row",
    "read",
    "write",
)


def gate_cycles(stats: SimStats) -> int:
    """Productive NOR/NOT/move cycles recorded in a stats delta."""
    return sum(stats.op_counts.get(key, 0) for key in _PRODUCTIVE)


def theoretical_cycles(stats: SimStats) -> int:
    """The theoretical-PIM cycle count for a measured stats delta.

    Equals :func:`gate_cycles`; provided under this name so benchmark
    code reads as 'measured vs theoretical'.
    """
    return gate_cycles(stats)


def overhead_cycles(stats: SimStats) -> int:
    """Initialization/mask/access cycles (the framework overhead)."""
    return sum(stats.op_counts.get(key, 0) for key in _OVERHEAD)


def serial_add_cycles(word_size: int = 32) -> int:
    """Bit-serial ripple-carry addition: 9 NOR gates per bit (AritPIM)."""
    return 9 * word_size


def serial_mul_cycles(word_size: int = 32) -> int:
    """Bit-serial shift-and-add multiplication gate count.

    Partial product ``i`` needs ``word_size - i`` AND gates (one NOR each
    against precomputed complements) and a ripple add over the remaining
    ``word_size - i`` positions (9 NORs each), plus the initial operand
    complement.
    """
    total = word_size  # ~a complements
    for i in range(word_size):
        width = word_size - i
        total += width  # partial-product NORs
        if i:
            total += 9 * width  # accumulate
    return total


def parallel_add_cycles(word_size: int = 32) -> int:
    """Kogge-Stone partition-parallel addition cycle count.

    Per prefix distance ``d``: two strided shifts (``d + 1`` micro-ops
    each) plus a constant number of partition-parallel column operations;
    see :mod:`repro.driver.parallel`.
    """
    total = 9  # p/g/p0 construction column ops
    distance = 1
    while distance < word_size:
        total += 2 * (distance + 1) + 7
        distance *= 2
    total += 2 + 5  # carry shift + final xor
    return total
