"""Per-region checksum verification of compiled-program outputs.

``verify="checksum"`` on ``run_program`` / ``pim.compile`` turns every
program replay into a self-checking transaction, and
:func:`verify_window` is that transaction on every backend: after the
replay finishes, checksum the program's *written regions*, open the
post-op fault window, then re-checksum and compare. A transient flip or
stuck-at clamp that lands inside an output region between the two walks
is reported as a :class:`ChecksumError` naming the corrupted regions,
which the recovery layer (``pim.compile`` retry → allocator quarantine →
recompile) consumes. Only the regions differ per caller
(:func:`program_regions`): derived statically from a ``MicroProgram``'s
operation words, from a functional program's macro-instructions, or —
the pool — none: one CRC over the whole shared image.

Checksums are computed host-side over the DMA-visible word image — the
read happens outside the PIM cycle model, exactly like the device's
bulk ``dump_array`` path — so enabling verification changes no cycle
count and no memory bit.

This module deliberately imports nothing from the driver or simulator
packages (only the micro-op and instruction dataclasses), so the driver
can import it without cycles.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import PIMConfig
from repro.arch.micro_ops import LogicVOp, MoveOp, WriteOp
from repro.isa.instructions import written_region

#: A written region: ``(reg, (xb_start, xb_stop, xb_step), (row_start,
#: row_stop, row_step))`` with *inclusive* stops (RangeMask semantics).
Region = Tuple[int, Tuple[int, int, int], Tuple[int, int, int]]


class ChecksumError(RuntimeError):
    """A verified replay left corrupted bits in its output regions.

    ``regions`` lists the mismatched :data:`Region` descriptors (or is
    ``None`` when the check ran at whole-image granularity, as on the
    pooled backend), so recovery can map the damage back to allocator
    cells and quarantine them.
    """

    def __init__(self, name: str, regions: Optional[Sequence[Region]]):
        self.program_name = name
        self.regions = tuple(regions) if regions is not None else None
        where = (
            f"{len(self.regions)} region(s)" if self.regions is not None
            else "the memory image"
        )
        super().__init__(
            f"checksum mismatch replaying {name!r}: faults corrupted {where}"
        )


def written_regions(program, config: PIMConfig) -> Tuple[Region, ...]:
    """Statically derive the regions a ``MicroProgram`` writes.

    A fold over the program's super-steps, which track the crossbar/row
    mask state the way the chip would: a stretch of gates writes the
    registers in its slice of the gate table's ``out`` column (no gate is
    decoded), a write, vertical gate or move its own destination; an op
    issued before any mask is charged conservatively to the full range.
    The result over-approximates (a masked-out partition still counts the
    whole word) but never misses a written cell, which is the property
    detection needs.
    """
    full_xb = (0, config.crossbars - 1, 1)
    full_row = (0, config.rows - 1, 1)
    out = program.gate_table[0]["out"]
    regions: Dict[Region, None] = {}  # an ordered set
    done = 0  # gates folded so far
    for step in program.super_steps:
        xb, row, op = step.xb or full_xb, step.row or full_row, step.op
        if op is None:
            stop = done + len(step)
            for reg in dict.fromkeys(out[done:stop].tolist()):
                regions[reg, xb, row] = None
            done = stop
        elif isinstance(op, WriteOp):
            regions[op.index, xb, row] = None
        elif isinstance(op, LogicVOp):
            regions[op.index, xb, (op.out_row, op.out_row, 1)] = None
        elif isinstance(op, MoveOp):
            start = max(0, xb[0] + op.dist)
            stop = min(config.crossbars - 1, xb[1] + op.dist)
            if stop >= start and (stop - start) % xb[2] == 0:
                dst_xb = (start, stop, xb[2])
            else:  # clipped asymmetrically: fall back to a dense span
                dst_xb = (start, max(start, stop), 1)
            regions[op.dst_index, dst_xb, (op.dst_row, op.dst_row, 1)] = None
    return tuple(regions)


def program_regions(program, config: PIMConfig) -> Tuple[Region, ...]:
    """The regions a program writes, memoized on it: :func:`written_regions`
    of a ``MicroProgram``, or the architectural destinations of a
    functional program's macro-instructions (it stages nothing in scratch)."""
    cached = program.__dict__.get("_verify_regions")
    if cached is None:
        if hasattr(program, "instructions"):
            written = (written_region(i, config) for i in program.instructions)
            cached = tuple(dict.fromkeys(
                (reg, (w.start, w.stop, w.step), (r.start, r.stop, r.step))
                for reg, w, r in filter(None, written)
            ))
        else:
            cached = written_regions(program, config)
        program.__dict__["_verify_regions"] = cached
    return cached


def check_verify_mode(verify: Optional[str]) -> None:
    """Refuse a ``verify=`` other than ``None`` or ``"checksum"``."""
    if verify not in (None, "checksum"):
        raise ValueError(
            f"unknown verify mode {verify!r}; expected None or 'checksum'"
        )


def verify_window(
    words: np.ndarray,
    regions: Optional[Sequence[Region]],
    overlay,
    name: str,
    tally: Dict[str, int],
) -> None:
    """Bracket one post-replay fault window with checksums.

    Checksums ``regions`` of ``words`` (``None``: the whole image), ticks
    ``overlay`` (``None``: no plan installed, an empty window) and
    checksums again; a difference raises :class:`ChecksumError` for
    program ``name``. ``tally`` counts ``verify_checks`` /
    ``verify_detected`` (``fault.*`` in ``Backend.counters()``).
    """
    tally["verify_checks"] = tally.get("verify_checks", 0) + 1
    before = region_checksums(words, regions)
    if overlay is not None:
        overlay.tick()
    after = region_checksums(words, regions)
    if after != before:
        tally["verify_detected"] = tally.get("verify_detected", 0) + 1
        raise ChecksumError(name, regions and tuple(
            region for region, b, a in zip(regions, before, after) if b != a
        ))


def region_checksums(
    words: np.ndarray, regions: Optional[Sequence[Region]]
) -> Tuple[int, ...]:
    """CRC32 per region over the ``(xb, reg, row)`` word image (``None``:
    one CRC of the whole image, the pool's granularity)."""
    if regions is None:
        return (zlib.crc32(np.ascontiguousarray(words).tobytes()),)
    sums = []
    for reg, (xs, xe, xstep), (rs, re_, rstep) in regions:
        view = words[xs : xe + 1 : xstep, reg, rs : re_ + 1 : rstep]
        sums.append(zlib.crc32(np.ascontiguousarray(view).tobytes()))
    return tuple(sums)
