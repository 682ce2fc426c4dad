"""Backend registry and factory.

Engines self-register (at import of :mod:`repro.backends`) under a stable
name; everything downstream — the :class:`~repro.backends.service.GraphitiService`,
the CLI's ``run --backend=...`` / ``bench-backends`` subcommands, and the
cross-backend equivalence tests — resolves engines purely through this
registry, so adding an engine is one module plus one
:func:`register_backend` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Type

from repro.relational.instance import Database
from repro.relational.schema import RelationalSchema

from repro.backends.base import BackendUnavailable, ExecutionBackend


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry: the backend class plus display metadata."""

    name: str
    backend_class: Type[ExecutionBackend]
    description: str = ""

    @property
    def available(self) -> bool:
        return self.backend_class.is_available()


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    backend_class: Type[ExecutionBackend], description: str = ""
) -> Type[ExecutionBackend]:
    """Register *backend_class* under its ``name`` (usable as a decorator)."""
    name = backend_class.name
    if not name or name == "abstract":
        raise ValueError(f"backend class {backend_class!r} needs a concrete name")
    _REGISTRY[name] = BackendInfo(name, backend_class, description)
    return backend_class


def backend_info(name: str) -> BackendInfo:
    """Registry entry for *name* (raises ``KeyError``-style on unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BackendUnavailable(
            f"unknown backend {name!r} (registered: {known})"
        ) from None


def registered_backends() -> tuple[str, ...]:
    """Names of all registered backends, available or not, sorted."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run here, sorted."""
    return tuple(sorted(n for n, i in _REGISTRY.items() if i.available))


def create_backend(name: str, schema: RelationalSchema) -> ExecutionBackend:
    """Instantiate (but do not connect) the backend registered as *name*.

    Raises :class:`BackendUnavailable` when the engine is unregistered or
    cannot run in this environment.
    """
    info = backend_info(name)
    if not info.available:
        raise BackendUnavailable(
            f"backend {name!r} is not available in this environment "
            f"(is its package installed?)"
        )
    return info.backend_class(schema)


def load_backend(
    name: str,
    database: Database,
    batch_size: int = 1000,
    indexes: bool = True,
) -> ExecutionBackend:
    """Create, connect, and bulk-load a backend from *database*.

    The convenience path used by benchmarks and one-shot runs: schema DDL,
    batched loading, and (by default) PK/FK indexes in one call.  The caller
    owns the returned backend and must ``close()`` it (or use it as a
    context manager).
    """
    backend = create_backend(name, database.schema)
    backend.connect()
    try:
        backend.bulk_load(database, batch_size=batch_size)
        if indexes:
            backend.create_indexes()
    except Exception:
        backend.close()
        raise
    return backend
