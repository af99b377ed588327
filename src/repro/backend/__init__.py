"""Pluggable execution backends for the PIM device.

``pim.init(backend="simulator")`` (the default) runs every
macro-instruction through the host driver onto the bit-accurate
simulator; ``pim.init(backend="numpy")`` runs the same programs as
vectorized NumPy updates while charging identical PIM cycle counts.
See :mod:`repro.backend.base` for the protocol.
"""

from __future__ import annotations

from typing import Union

from repro.arch.config import PIMConfig
from repro.backend.base import Backend
from repro.backend.numpy_backend import FunctionalProgram, NumpyBackend
from repro.backend.simulator import SimulatorBackend

#: Registered backend names, as accepted by ``pim.init(backend=...)``.
#: ``"pooled"`` resolves lazily (see :func:`make_backend`) to
#: :class:`repro.pool.PooledBackend` — the pool package imports backends,
#: so a table entry here would be a circular import.
BACKENDS = {"simulator": SimulatorBackend, "numpy": NumpyBackend}


def make_backend(
    backend: Union[str, Backend, type, None],
    config: PIMConfig,
    **kwargs,
) -> Backend:
    """Resolve a backend spec: a name, a Backend subclass, or an instance.

    An already-constructed instance is adopted as-is (its config must
    match the device's); a class or registered name is instantiated with
    the device config plus any driver keyword arguments.
    """
    if backend is None:
        backend = "simulator"
    if isinstance(backend, Backend):
        if backend.config != config:
            raise ValueError(
                "backend instance was built for a different PIMConfig"
            )
        return backend
    if isinstance(backend, type) and issubclass(backend, Backend):
        return backend(config, **kwargs)
    key = str(backend).lower()
    if key == "pooled":
        from repro.pool import PooledBackend

        return PooledBackend(config, **kwargs)
    try:
        cls = BACKENDS[key]
    except KeyError:
        choices = sorted([*BACKENDS, "pooled"])
        raise ValueError(
            f"unknown backend {backend!r}; choose from {choices}"
        ) from None
    return cls(config, **kwargs)


__all__ = [
    "Backend",
    "BACKENDS",
    "FunctionalProgram",
    "NumpyBackend",
    "SimulatorBackend",
    "make_backend",
]
