"""Pluggable FHE kernel backend registry.

Every low-level ring kernel the HE operations consume — batched NTT
forward/inverse, negacyclic multiply, Galois application, batched modular
arithmetic — is dispatched through a process-global *active backend*
selected here.  Two backends are registered:

* ``reference``  — per-prime fully-reduced transforms (the one oracle).
* ``montgomery`` — each transform of a whole RNS stack as two exact float64
  matrix products (the default and the production path; the name is
  historical).

Selection precedence: an explicit :func:`set_backend` /
:func:`using_backend` call wins, then the ``REPRO_KERNEL_BACKEND``
environment variable, then the built-in default.  CLI entry points layer
``--kernel-backend`` on top by calling :func:`set_backend` before any FHE
work.  :func:`register_backend` accepts further implementations (e.g. a
tracing wrapper), which must honour the same contract.

Every backend is **bit-identical** to ``reference`` by contract — swapping
backends changes wall-clock time, never ciphertext bits.  The registry is
thread-safe: backends are stateless per transform (plans are built once
behind a lock and read-only afterwards), so an in-flight transform keeps
its backend object even if the active selection changes mid-call.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

from .base import KernelBackend
from .montgomery import MontgomeryBackend, MontgomeryPlan
from .reference import ReferenceBackend

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "MontgomeryBackend",
    "MontgomeryPlan",
    "ReferenceBackend",
    "active_backend",
    "available_backends",
    "clear_plans",
    "get_backend",
    "plans_info",
    "register_backend",
    "set_backend",
    "using_backend",
]

#: Environment variable consulted when no explicit selection was made.
ENV_VAR = "REPRO_KERNEL_BACKEND"
#: Backend used when neither an explicit selection nor the env var is set.
DEFAULT_BACKEND = "montgomery"

_lock = threading.Lock()
_registry: dict[str, KernelBackend] = {}
_explicit: str | None = None


def register_backend(backend: KernelBackend, *, replace: bool = False) -> None:
    """Add a backend instance to the registry under ``backend.name``."""
    name = backend.name
    if not name or name == "abstract":
        raise ValueError("backend must define a concrete name")
    with _lock:
        if name in _registry and not replace:
            raise ValueError(f"kernel backend {name!r} is already registered")
        _registry[name] = backend


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    with _lock:
        return sorted(_registry)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; raises with the available list on miss."""
    with _lock:
        backend = _registry.get(name)
    if backend is None:
        raise KeyError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return backend


def set_backend(name: str | None) -> None:
    """Explicitly select the active backend (``None`` restores env/default)."""
    global _explicit
    if name is not None:
        get_backend(name)  # validate eagerly
    with _lock:
        _explicit = name


def active_backend() -> KernelBackend:
    """The backend all FHE call sites dispatch through right now.

    Precedence: :func:`set_backend` > ``REPRO_KERNEL_BACKEND`` env var >
    :data:`DEFAULT_BACKEND`.  The env var is consulted on every call so
    subprocess-style test harnesses behave predictably; a dict lookup and
    an environ get keep this cheap enough for per-op dispatch.
    """
    with _lock:
        name = _explicit
    if name is None:
        name = os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND
    return get_backend(name)


@contextmanager
def using_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily select ``name`` as the active backend (process-global,
    not thread-isolated)."""
    backend = get_backend(name)
    global _explicit
    with _lock:
        prev = _explicit
        _explicit = name
    try:
        yield backend
    finally:
        with _lock:
            _explicit = prev


def clear_plans() -> None:
    """Drop every backend-owned precomputed plan (test/cache helper)."""
    with _lock:
        backends = list(_registry.values())
    for backend in backends:
        backend.clear_plans()


def plans_info() -> dict[str, list[tuple]]:
    """Plan-cache keys per backend (only backends holding plans appear)."""
    with _lock:
        backends = list(_registry.items())
    return {name: keys for name, b in backends if (keys := b.plan_keys())}


register_backend(ReferenceBackend())
register_backend(MontgomeryBackend())
