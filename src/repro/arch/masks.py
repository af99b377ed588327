"""Range-based masks (Section III-B).

Crossbar and row masks follow the pattern ``{start, start + step, ...,
stop}`` where ``step`` divides ``stop - start``. The same representation is
reused for the tensor library's slice views, since Python ``slice`` objects
with positive steps map onto it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RangeMask:
    """An inclusive range pattern ``{start, start+step, ..., stop}``.

    Unlike Python slices, ``stop`` is *inclusive* (it is the last selected
    index), matching the microarchitecture's encoding where the triple is
    stored directly in crossbar periphery registers.
    """

    start: int
    stop: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.stop < self.start:
            raise ValueError("stop must be >= start")
        if (self.stop - self.start) % self.step:
            raise ValueError("step must divide stop - start")
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.stop == self.start:
            # One index, one spelling: a slice like ``t[5:6:5000]`` would
            # otherwise carry a step no mask operation word can hold.
            object.__setattr__(self, "step", 1)

    @classmethod
    def all(cls, length: int) -> "RangeMask":
        """Mask selecting every index in ``[0, length)``."""
        if length <= 0:
            raise ValueError("length must be positive")
        return cls(0, length - 1, 1)

    @classmethod
    def single(cls, index: int) -> "RangeMask":
        """Mask selecting exactly one index."""
        return cls(index, index, 1)

    @classmethod
    def from_slice(cls, sl: slice, length: int) -> "RangeMask":
        """Convert a Python slice (positive step) over ``length`` elements."""
        start, stop, step = sl.indices(length)
        if step <= 0:
            raise ValueError("only positive slice steps are supported")
        count = max(0, (stop - start + step - 1) // step)
        if count == 0:
            raise ValueError("empty slice has no mask representation")
        return cls(start, start + (count - 1) * step, step)

    def __len__(self) -> int:
        return (self.stop - self.start) // self.step + 1

    def __contains__(self, index: int) -> bool:
        return (
            self.start <= index <= self.stop
            and (index - self.start) % self.step == 0
        )

    def indices(self) -> range:
        """The selected indices as a Python range."""
        return range(self.start, self.stop + 1, self.step)

    def boolean(self, length: int) -> np.ndarray:
        """Expand into a boolean vector of the given length (Section III-B)."""
        if self.stop >= length:
            raise ValueError(f"mask stop {self.stop} out of bounds for {length}")
        out = np.zeros(length, dtype=bool)
        out[self.start : self.stop + 1 : self.step] = True
        return out

    def compose(self, inner: "RangeMask") -> "RangeMask":
        """Mask selecting ``inner``'s pattern *within* this mask's indices.

        Used by tensor views: slicing a view composes the two range
        patterns. ``outer.compose(inner)`` selects ``outer[i]`` for each
        ``i`` in ``inner``.
        """
        if inner.stop >= len(self):
            raise ValueError("inner mask out of bounds")
        start = self.start + inner.start * self.step
        step = self.step * inner.step
        stop = start + (len(inner) - 1) * step
        return RangeMask(start, stop, step)
