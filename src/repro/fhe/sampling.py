"""Random samplers for RLWE key generation and encryption.

CKKS needs three distributions over ``R_Q``:

* uniform polynomials (the ``a`` component of public/key-switching keys),
* ternary secrets with coefficients in ``{-1, 0, 1}``,
* discrete Gaussian errors (rounded normal, sigma defaulting to 3.2 per the
  HE standard).

All samplers take an explicit ``numpy.random.Generator`` so the whole FHE
stack is deterministic under a seed — required for reproducible tests and
benchmark traces.
"""

from __future__ import annotations

import numpy as np

from .poly import RnsBasis, RnsPolynomial

_U64 = np.uint64


def sample_uniform(basis: RnsBasis, rng: np.random.Generator) -> RnsPolynomial:
    """Uniformly random polynomial over ``R_Q`` (coefficient domain).

    Each residue row is drawn independently and uniformly below its prime;
    by CRT this is exactly uniform over ``Z_Q``.
    """
    rows = np.empty((basis.level, basis.n), dtype=_U64)
    for i, q in enumerate(basis.primes):
        rows[i] = rng.integers(0, q, size=basis.n, dtype=np.int64).astype(_U64)
    return RnsPolynomial(basis, rows, is_ntt=False)


def sample_ternary(basis: RnsBasis, rng: np.random.Generator) -> RnsPolynomial:
    """Ternary polynomial with i.i.d. coefficients in {-1, 0, 1}."""
    signed = rng.integers(-1, 2, size=basis.n, dtype=np.int64)
    return RnsPolynomial.from_signed(basis, signed)


def sample_gaussian(
    basis: RnsBasis, rng: np.random.Generator, std: float = 3.2
) -> RnsPolynomial:
    """Discrete Gaussian error polynomial (rounded normal, clipped at 6σ)."""
    noise = np.rint(rng.normal(0.0, std, size=basis.n)).astype(np.int64)
    bound = int(np.ceil(6 * std))
    noise = np.clip(noise, -bound, bound)
    return RnsPolynomial.from_signed(basis, noise)
