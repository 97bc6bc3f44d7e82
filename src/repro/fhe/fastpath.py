"""Global switches for the FHE fast paths that change the algorithm.

Kernel *implementation* choices live in :mod:`repro.fhe.kernels`; the
flags here choose between two ways of computing the same result:

* ``plaintext_cache`` — encode + forward-transform each weight/bias/mask
  plaintext once per network (cached on the :class:`~repro.fhe.context
  .CkksContext`) instead of once per window per inference.
* ``hoisted_rotations`` — execute rotate-and-sum folds as Halevi-Shoup
  hoisted groups: one digit decomposition / lift / forward NTT / rescale
  shared by all subset-sum rotations of a group
  (:meth:`repro.fhe.ops.Evaluator.rotate_fold`).

The plaintext cache returns bit-identical plaintexts, so toggling it
changes performance only.  ``hoisted_rotations`` shares a single rescale
across a rotation group, so its rounding differs from the sequential walk —
outputs are numerically equivalent (within the CKKS noise budget;
regression-tested end to end) but not bit-identical to the sequential fold.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator


@dataclass(frozen=True)
class FastPathConfig:
    """Which algorithm-level fast paths are active."""

    plaintext_cache: bool = True
    hoisted_rotations: bool = True


#: Serializes every swap of the module-global config.  The parallel DSE
#: forks worker processes off the current process state, and benchmark
#: harnesses toggle from helper threads — the read-modify-write in
#: ``configure``/``overridden`` must not interleave.  Reads stay unlocked:
#: ``_config`` is an immutable dataclass, so a reader sees either the old
#: or the new object, never a torn one.
_lock = threading.Lock()
_config = FastPathConfig()


def get_config() -> FastPathConfig:
    """The currently active fast-path configuration."""
    return _config


def configure(**flags: bool) -> FastPathConfig:
    """Set fast-path flags globally; returns the new configuration."""
    global _config
    with _lock:
        _config = replace(_config, **flags)
        return _config


@contextmanager
def overridden(**flags: bool) -> Iterator[FastPathConfig]:
    """Temporarily override fast-path flags (restores on exit)."""
    global _config
    with _lock:
        previous = _config
        _config = replace(_config, **flags)
        current = _config
    try:
        yield current
    finally:
        with _lock:
            _config = previous
