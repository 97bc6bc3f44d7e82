"""The observability master switch.

Mirrors :mod:`repro.fhe.fastpath`: one module-level flag, flipped either
globally (:func:`enable` / :func:`disable` / :func:`set_enabled`) or for a
scope (:func:`observed`).  The flag gates everything *expensive* — span
timing, histograms, gauges; plain counters (e.g. the
``ntt_transform_rows`` NTT transform counter) stay live regardless because
they are a few integer adds per kernel call.

All transitions go through a lock so concurrent flips (the parallel DSE
worker path forks process state) cannot interleave a read-modify-write.
The hot-path read itself is a single unlocked module-attribute load —
reading a Python bool is atomic, and observability toggles are not
expected mid-operation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_enabled = False


def enabled() -> bool:
    """Whether observability (tracing, histograms, gauges) is active."""
    return _enabled


def set_enabled(on: bool) -> bool:
    """Flip the master switch; returns the new state."""
    global _enabled
    with _lock:
        _enabled = bool(on)
    return _enabled


def enable() -> bool:
    return set_enabled(True)


def disable() -> bool:
    return set_enabled(False)


@contextmanager
def observed(on: bool = True) -> Iterator[bool]:
    """Temporarily set the master switch (restores the prior state on exit)."""
    global _enabled
    with _lock:
        previous = _enabled
        _enabled = bool(on)
    try:
        yield _enabled
    finally:
        with _lock:
            _enabled = previous
