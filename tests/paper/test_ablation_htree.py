"""Ablation: H-tree hop-latency model for inter-crossbar reduction.

The default cycle metric charges one cycle per move micro-operation (the
paper's micro-op count). This ablation re-runs inter-crossbar summation
with the H-tree cost model (one cycle per traversed tree segment of the
longest pair) across memory sizes, quantifying how much the hierarchical
interconnect would add to reduction latency. Both cycle counts are
deterministic and pinned.
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.pim.device import PIMDevice

#: crossbars -> (unit, htree) cycles of an int32 sum over 64 rows each.
CYCLES = {4: (5040, 5168), 16: (6798, 7310), 64: (8556, 9708)}


def _reduce_cycles(crossbars: int, move_cost: str) -> int:
    config = PIMConfig(crossbars=crossbars, rows=64)
    device = PIMDevice(config, move_cost=move_cost)
    n = config.total_rows
    data = np.arange(n, dtype=np.int32)
    tensor = pim.Tensor(device, n, pim.int32)
    device.load_array(tensor.slot, data, pim.int32)
    before = device.simulator.stats.cycles
    result = pim.reduce(tensor)
    assert result == data.sum()
    return device.simulator.stats.cycles - before


@pytest.mark.parametrize("crossbars", sorted(CYCLES))
def test_htree_cost(crossbars):
    unit = _reduce_cycles(crossbars, "unit")
    htree = _reduce_cycles(crossbars, "htree")
    assert htree >= unit
    assert (unit, htree) == CYCLES[crossbars]
