"""Ablation: H-tree hop latency of inter-crossbar reduction.

A PIM cycle is one micro-operation (the paper's micro-op count); every
bill also itemizes the H-tree latency beyond one cycle per move
(``htree_hop_cycles``: one cycle per traversed tree segment of the
longest pair). One inter-crossbar summation per memory size gives both
columns, quantifying how much the hierarchical interconnect would add to
reduction latency. Both are deterministic and pinned.
"""

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.pim.device import PIMDevice

#: crossbars -> (cycles, cycles + H-tree hops) of an int32 sum over 64 rows each.
CYCLES = {4: (5040, 5168), 16: (6798, 7310), 64: (8556, 9708)}


def _reduce_cycles(crossbars: int) -> tuple:
    config = PIMConfig(crossbars=crossbars, rows=64)
    device = PIMDevice(config)
    n = config.total_rows
    data = np.arange(n, dtype=np.int32)
    tensor = pim.Tensor(device, n, pim.int32)
    device.load_array(tensor.slot, data, pim.int32)
    before = device.simulator.stats.copy()
    result = pim.reduce(tensor)
    assert result == data.sum()
    delta = device.simulator.stats.diff(before)
    return delta.cycles, delta.cycles + delta.htree_hop_cycles


@pytest.mark.parametrize("crossbars", sorted(CYCLES))
def test_htree_cost(crossbars):
    unit, htree = _reduce_cycles(crossbars)
    assert htree >= unit
    assert (unit, htree) == CYCLES[crossbars]
