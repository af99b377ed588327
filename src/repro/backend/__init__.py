"""Pluggable execution backends for the PIM device.

``pim.init(backend="simulator")`` (the default) runs every
macro-instruction through the host driver onto the bit-accurate
simulator; ``pim.init(backend="numpy")`` runs the same programs as
vectorized NumPy updates while charging identical PIM cycle counts.
See :mod:`repro.backend.base` for the protocol.
"""

from __future__ import annotations

import inspect
from typing import FrozenSet, Union

from repro.arch.config import PIMConfig
from repro.backend.base import Backend
from repro.backend.numpy_backend import FunctionalProgram, NumpyBackend
from repro.backend.simulator import SimulatorBackend
from repro.driver.driver import Driver

#: Registered backend names, as accepted by ``pim.init(backend=...)``.
#: ``"pooled"`` resolves lazily (see :func:`make_backend`) to
#: :class:`repro.pool.PooledBackend` — the pool package imports backends,
#: so a table entry here would be a circular import.
BACKENDS = {"simulator": SimulatorBackend, "numpy": NumpyBackend}


def accepted_keywords(cls: type) -> FrozenSet[str]:
    """The keyword arguments a backend class's constructor takes.

    Its own named parameters and, when it forwards ``**driver_kwargs``
    (every backend here does), the :class:`~repro.driver.driver.Driver`'s.
    """
    names = set()
    for init in (cls.__init__, Driver.__init__):
        params = inspect.signature(init).parameters.values()
        names.update(
            p.name for p in params
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break
    return frozenset(names - {"self", "config", "chip"})


def make_backend(
    backend: Union[str, Backend, type, None],
    config: PIMConfig,
    **kwargs,
) -> Backend:
    """Resolve a backend spec: a name, a Backend subclass, or an instance.

    An already-constructed instance is adopted as-is (its config must
    match the device's, and it takes no keyword arguments); a class or
    registered name is instantiated with the device config plus any
    keyword arguments its constructor accepts (:func:`accepted_keywords`).
    Any other keyword raises ``TypeError`` before anything is built.
    """
    if backend is None:
        backend = "simulator"
    if isinstance(backend, Backend):
        if kwargs:
            raise TypeError(
                f"unexpected keyword argument(s) {sorted(kwargs)} for a "
                f"prebuilt {type(backend).__name__}: it accepts none "
                "(pass them to its constructor)"
            )
        if backend.config != config:
            raise ValueError(
                "backend instance was built for a different PIMConfig"
            )
        return backend
    if isinstance(backend, type) and issubclass(backend, Backend):
        cls = backend
    elif str(backend).lower() == "pooled":
        from repro.pool import PooledBackend

        cls = PooledBackend
    else:
        try:
            cls = BACKENDS[str(backend).lower()]
        except KeyError:
            choices = sorted([*BACKENDS, "pooled"])
            raise ValueError(
                f"unknown backend {backend!r}; choose from {choices}"
            ) from None
    accepted = accepted_keywords(cls)
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise TypeError(
            f"unexpected keyword argument(s) {unknown} for the {cls.name!r} "
            f"backend; it accepts {sorted(accepted)}"
        )
    return cls(config, **kwargs)


__all__ = [
    "Backend",
    "BACKENDS",
    "FunctionalProgram",
    "NumpyBackend",
    "SimulatorBackend",
    "make_backend",
]
