"""Integer helpers the model equations share between scalars and arrays.

Every step of the resource-latency model (Eqs. 1-9) is written once and
takes either Python numbers, returning Python numbers, or broadcastable
numpy integer arrays, evaluating elementwise: the DSE prices its whole
``nc_NTT x P_intra x P_inter`` grid in one call per step.  These helpers
are the few operations Python's operators do not already share.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

#: A Python int, or a numpy integer array evaluated elementwise.
Ints = Union[int, np.ndarray]
#: A Python float, or a numpy float array evaluated elementwise.
Floats = Union[float, np.ndarray]


def ceil_div(a: Ints, b: Ints) -> Ints:
    """``ceil(a / b)`` of non-negative integers, exactly."""
    return -(-a // b)


def maximum(a: Ints, b: Ints) -> Ints:
    """``max(a, b)``, elementwise when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def minimum(a: Ints, b: Ints) -> Ints:
    """``min(a, b)``, elementwise when either is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def require(ok, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``ok`` holds everywhere."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError(message)


def per_distinct(fn: Callable, values: np.ndarray, dtype) -> np.ndarray:
    """``fn`` of each distinct element of ``values``, called on Python
    numbers and mapped back elementwise.

    For steps that stay scalar on purpose: a measured table, or Python's
    float ``**``, which numpy's SIMD ``power`` does not match bit for bit.
    """
    distinct, where = np.unique(values.ravel(), return_inverse=True)
    table = np.array([fn(v) for v in distinct.tolist()], dtype=dtype)
    return table[where].reshape(values.shape)
