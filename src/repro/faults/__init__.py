"""Fault injection & resilience: seeded fault models, detection, recovery.

The subsystem has three layers, threaded through the whole stack:

- **Injection** (:mod:`repro.faults.plan`): a seeded, config-fingerprinted
  :class:`FaultPlan` modeling stuck-at-0/1 cells and transient bit flips
  (applied at dispatch boundaries so plans and op-by-op lowering agree), plus
  process-level worker failures and timing stalls for the pool and the
  serving tier. Install with ``backend.install_faults(plan)`` or
  ``Server(fault_plan=plan)``; the chaos seed rotates in CI via
  ``REPRO_FAULT_SEED`` (:func:`resolve_fault_seed`).
- **Detection** (:mod:`repro.faults.checksum`): per-region CRC checks on
  compiled-program outputs (``verify="checksum"``), surfaced as
  :class:`ChecksumError` and counted by ``Backend.fault_counters()``.
- **Recovery** (in the consuming layers): ``pim.compile`` retries,
  quarantines corrupted cells in the allocator and recompiles;
  ``PooledBackend`` quarantines a failed shard and replays its portion
  on a fresh worker; ``Server.submit`` enforces deadlines with retries
  and exponential backoff.
"""

from repro.faults.checksum import (
    ChecksumError,
    program_regions,
    region_checksums,
    written_regions,
)
from repro.faults.plan import (
    STUCK0,
    STUCK1,
    FaultOverlay,
    FaultPlan,
    ShardError,
    WorkerFault,
    resolve_fault_seed,
)

__all__ = [
    "FaultPlan",
    "FaultOverlay",
    "ChecksumError",
    "ShardError",
    "WorkerFault",
    "STUCK0",
    "STUCK1",
    "resolve_fault_seed",
    "written_regions",
    "program_regions",
    "region_checksums",
]
