"""Names, units and bounds of the benchmark, read from ``BENCHMARK.json``.

``BENCHMARK.json`` (repository root) is the single list of workloads and
metrics; this module loads it and adds the one thing its format has no
key for: which per-layer metrics are *exact* (counts that must repeat
bit for bit between runs of one commit).
"""

from __future__ import annotations

import json
import os
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Per-layer metrics that are counts (or ratios of counts) of simulated
#: work. A change meant only to speed up the host must leave every one
#: of them identical on every workload.
EXACT = frozenset({
    "sim_cycles_per_call", "e2e.fail_frac", "pim.macros_per_call",
    "pim.opt_cycles_saved_frac", "pim.reserved_cells",
    "driver.uops_per_call", "driver.emit_stream_frac",
    "driver.cache_evictions", "driver.persist_loads",
    "driver.persist_stores", "driver.persist_invalid",
    "sim.chip_calls_per_call", "sim.replay_vectorized_frac",
    "sim.fused_op_frac", "sim.fallback_ops", "pool.segments_per_program",
    "pool.bridges_per_call", "serve.retries", "serve.timeouts",
    "theory.gap_frac",
})


def load_manifest() -> dict:
    with open(MANIFEST_PATH) as handle:
        return json.load(handle)


class Schema:
    """The manifest, indexed by name."""

    def __init__(self, manifest: dict):
        self.run_seconds: int = manifest["run_seconds"]
        self.workloads: Dict[str, str] = {
            entry["name"]: entry["why"] for entry in manifest["workloads"]
        }
        self.end_to_end: Dict[str, dict] = {
            entry["name"]: entry for entry in manifest["end_to_end"]
        }
        self.per_layer: Dict[str, dict] = {
            entry["name"]: entry for entry in manifest["per_layer"]
        }


def load_schema() -> Schema:
    return Schema(load_manifest())
