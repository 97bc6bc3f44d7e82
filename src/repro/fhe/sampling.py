"""Random samplers and seed streams for RLWE key generation and encryption.

CKKS needs three distributions over ``R_Q``:

* uniform polynomials (the ``a`` component of ciphertexts and
  key-switching keys), drawn directly in the NTT domain,
* ternary secrets with coefficients in ``{-1, 0, 1}``,
* discrete Gaussian errors (rounded normal, sigma defaulting to 3.2 per the
  HE standard).

All samplers take an explicit ``numpy.random.Generator`` so the whole FHE
stack is deterministic under a seed — required for reproducible tests and
benchmark traces.  Each key and encryption draw from their own
:func:`key_stream`, so which keys a context provisions changes no other draw.
"""

from __future__ import annotations

import numpy as np

from .poly import RnsBasis, RnsPolynomial

_U64 = np.uint64

#: Stream families: the first element of a :func:`key_stream` identity.
SECRET, RELIN, GALOIS, ENCRYPT = range(4)


def key_stream(seed: int, *identity: int) -> np.random.Generator:
    """The generator of one key, or of encryption, under a context seed.

    ``identity`` is a family (:data:`SECRET`, :data:`RELIN`,
    :data:`GALOIS`, :data:`ENCRYPT`) followed by what names the key within
    it: the level of a relinearization key, the Galois element and level
    of a Galois key.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=identity)
    )


def sample_uniform(basis: RnsBasis, rng: np.random.Generator) -> RnsPolynomial:
    """Uniformly random polynomial over ``R_Q``, drawn in the NTT domain.

    Each residue row is drawn independently and uniformly below its prime;
    by CRT, and since the NTT is a bijection, this is exactly uniform.
    """
    rows = np.empty((basis.level, basis.n), dtype=_U64)
    for i, q in enumerate(basis.primes):
        rows[i] = rng.integers(0, q, size=basis.n, dtype=np.int64).astype(_U64)
    return RnsPolynomial(basis, rows, is_ntt=True)


def sample_ternary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Signed coefficients of a ternary polynomial, i.i.d. in {-1, 0, 1}."""
    return rng.integers(-1, 2, size=n, dtype=np.int64)


def sample_gaussian(
    basis: RnsBasis, rng: np.random.Generator, std: float = 3.2
) -> RnsPolynomial:
    """Discrete Gaussian error polynomial (rounded normal, clipped at 6σ)."""
    noise = np.rint(rng.normal(0.0, std, size=basis.n)).astype(np.int64)
    bound = int(np.ceil(6 * std))
    noise = np.clip(noise, -bound, bound)
    return RnsPolynomial.from_signed(basis, noise)
