"""Modular arithmetic kernels for the RNS-CKKS substrate.

The paper (Sec. II-A) decomposes every HE operation into a handful of *basic
operations*: NTT/INTT, Barrett reduction, modular multiplication, modular
addition and modular subtraction.  This module provides exactly those scalar
and vectorized (numpy) kernels, plus the number-theoretic helpers needed to
build NTT contexts: Miller-Rabin primality, NTT-friendly prime generation
(q = 1 mod 2N) and primitive-root search.

All vectorized kernels operate on ``numpy.uint64`` arrays and assume moduli
below 2**30 so that every intermediate product fits in 64 bits.  This matches
the paper's FxHENN-MNIST configuration (30-bit RNS primes); see
``repro.fhe.params`` for how wider word sizes are handled by the performance
model without requiring functional arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest modulus accepted by the vectorized fast path.  Products of two
#: residues stay below 2**60 and Barrett intermediates below 2**62.
MAX_MODULUS_BITS = 30
MAX_MODULUS = 1 << MAX_MODULUS_BITS

_U64 = np.uint64


class ModulusError(ValueError):
    """Raised when a modulus is out of the supported range or not usable."""


def _check_modulus(q: int) -> None:
    if not 2 < q < MAX_MODULUS:
        raise ModulusError(
            f"modulus {q} outside supported range (3, 2**{MAX_MODULUS_BITS})"
        )


@dataclass(frozen=True)
class BarrettConstant:
    """Precomputed constants for Barrett reduction modulo ``q``.

    Follows HAC algorithm 14.42 with ``k = bit_length(q)``:
    ``mu = floor(2**(2k) / q)``.  Valid for inputs ``x < 2**(2k)``, i.e. for
    any product of two residues modulo ``q``.
    """

    q: int
    k: int
    mu: int

    @classmethod
    def for_modulus(cls, q: int) -> "BarrettConstant":
        _check_modulus(q)
        k = q.bit_length()
        mu = (1 << (2 * k)) // q
        return cls(q=q, k=k, mu=mu)


def barrett_reduce(x: np.ndarray | int, bc: BarrettConstant) -> np.ndarray | int:
    """Reduce ``x`` modulo ``bc.q`` using Barrett's algorithm.

    ``x`` must satisfy ``x < 2**(2k)`` where ``k = bc.k`` — true for any
    product of two residues.  Accepts either a Python int or a uint64 array
    and returns the same kind.
    """
    if isinstance(x, (int, np.integer)):
        xi = int(x)
        q1 = xi >> (bc.k - 1)
        q3 = (q1 * bc.mu) >> (bc.k + 1)
        r = xi - q3 * bc.q
        # Barrett guarantees r < 3q after one pass; two conditional
        # subtracts, matching the vectorized path's bounded correction.
        if r >= bc.q:
            r -= bc.q
        if r >= bc.q:
            r -= bc.q
        return r

    arr = np.asarray(x, dtype=_U64)
    k = _U64(bc.k)
    mu = _U64(bc.mu)
    q = _U64(bc.q)
    q1 = arr >> (k - _U64(1))
    q3 = (q1 * mu) >> (k + _U64(1))
    r = arr - q3 * q
    # Barrett guarantees r < 3q after one pass; two conditional subtracts.
    r = np.where(r >= q, r - q, r)
    r = np.where(r >= q, r - q, r)
    return r


def mod_add(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Elementwise ``(a + b) mod q`` for residue arrays ``a, b < q``."""
    q64 = _U64(q)
    s = np.asarray(a, dtype=_U64) + np.asarray(b, dtype=_U64)
    return np.where(s >= q64, s - q64, s)


def mod_sub(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Elementwise ``(a - b) mod q`` for residue arrays ``a, b < q``."""
    q64 = _U64(q)
    a64 = np.asarray(a, dtype=_U64)
    b64 = np.asarray(b, dtype=_U64)
    return np.where(a64 >= b64, a64 - b64, a64 + q64 - b64)


def mod_mul(a: np.ndarray, b: np.ndarray, bc: BarrettConstant) -> np.ndarray:
    """Elementwise ``(a * b) mod q`` via Barrett reduction.

    Inputs must already be reduced modulo ``bc.q``; the 64-bit product then
    satisfies the Barrett input bound.
    """
    prod = np.asarray(a, dtype=_U64) * np.asarray(b, dtype=_U64)
    return barrett_reduce(prod, bc)


# ---------------------------------------------------------------------------
# Batched (stacked-prime) kernels
# ---------------------------------------------------------------------------
#
# RNS residue matrices have shape (..., L, N) with one row per prime; these
# kernels apply the per-prime operation to all L rows in a single numpy call
# by broadcasting ``qs`` (the per-prime moduli, ``(L, 1)`` or tiled to a
# contiguous ``(L, N)``) over the residues.  Operands are canonical (below
# their prime), so a sum, difference or negation is off by at most one
# modulus: it is computed with uint64 wraparound and corrected by taking the
# smaller of the two candidates (the wrong one has wrapped past ``2**63``).
# A product is below ``2**60`` and is reduced by one exact ``np.remainder``.


def batched_mod_add(a: np.ndarray, b: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Row-wise ``(a + b) mod q_i``."""
    s = np.add(a, b, dtype=_U64)
    return np.minimum(s, s - qs, out=s)


def batched_mod_sub(a: np.ndarray, b: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Row-wise ``(a - b) mod q_i``."""
    d = np.subtract(a, b, dtype=_U64)
    return np.minimum(d, d + qs, out=d)


def batched_mod_neg(a: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Row-wise ``(-a) mod q_i``."""
    d = np.subtract(qs, a, dtype=_U64)
    return np.minimum(d, d - qs, out=d)


def batched_mod_mul(a: np.ndarray, b: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Row-wise ``(a * b) mod q_i``."""
    prod = np.multiply(a, b, dtype=_U64)
    return np.remainder(prod, qs, out=prod)


# ---------------------------------------------------------------------------
# Division-free RNS helpers
#
# The base-conversion steps of Rescale and KeySwitch lift centered values
# into new moduli, and Rescale multiplies residues by fixed inverse rows.
# Both are hot enough that the integer divisions hidden in ``np.mod`` /
# Barrett are worth eliminating when precomputation allows.


def centered_lift_fits(
    source_q: int, target_primes: tuple[int, ...], terms: int = 1
) -> bool:
    """True when :func:`centered_lift` is exact for sums of ``terms``
    values centered mod ``source_q`` lifted into every prime of
    ``target_primes``.

    A centered value satisfies ``|x| <= (source_q - 1) // 2``; the
    division-free lift is valid iff the sum's magnitude bound is below
    every target modulus (so ``x`` or ``x + q_j`` is already the reduced
    residue).
    """
    bound = terms * ((int(source_q) - 1) // 2)
    return bound < min(int(q) for q in target_primes)


def centered_lift(signed: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Division-free lift of centered int64 values into target moduli.

    ``signed`` holds centered representatives (``|x| < min(qs)``); ``qs``
    is an int64 modulus array broadcastable against it.  Negative values
    map to ``x + q_j``, non-negative ones are returned as-is — no ``np.mod``
    division.  Callers must check :func:`centered_lift_fits` (or an
    equivalent bound) first.
    """
    s = np.asarray(signed)
    return np.where(s < 0, s + qs, s).astype(_U64)


#: Shoup quotients for :func:`shoup_mul` use beta = 32, matching the NTT
#: twiddle tables — valid for any modulus below 2**30.
_SHOUP_SHIFT = _U64(32)


def shoup_precompute(b: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Quotients ``floor(b * 2**32 / q)`` for a fixed multiplicand ``b``.

    ``b`` must hold reduced residues; ``qs`` broadcasts against it (e.g.
    shaped ``(L, 1)`` against ``(..., L, N)``).
    """
    return (np.asarray(b, dtype=_U64) << _SHOUP_SHIFT) // np.asarray(qs, dtype=_U64)


def shoup_mul(
    a: np.ndarray, b: np.ndarray, b_shoup: np.ndarray, qs: np.ndarray
) -> np.ndarray:
    """Canonical Shoup product ``a * b mod q`` in ``[0, q)``.

    ``b_shoup`` comes from :func:`shoup_precompute`; ``a`` may be any value
    below ``2**32`` (it multiplies the 32-bit quotient inside uint64).  The
    lazy product lands in ``[0, 2q)`` and one conditional subtract makes it
    canonical — bit-identical to the Barrett route for any inputs in range,
    without the integer division.
    """
    a64 = np.asarray(a, dtype=_U64)
    hi = np.multiply(a64, np.asarray(b_shoup, dtype=_U64))
    hi >>= _SHOUP_SHIFT
    hi *= np.asarray(qs, dtype=_U64)
    r = np.multiply(a64, np.asarray(b, dtype=_U64))
    r -= hi
    return np.where(r >= qs, r - qs, r)


def mod_inverse(a: int, q: int) -> int:
    """Multiplicative inverse of ``a`` modulo prime ``q``."""
    a = int(a) % q
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, q - 2, q)


# ---------------------------------------------------------------------------
# Primality and prime generation
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit-scale ``n``."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(bits: int, count: int, ring_degree: int) -> list[int]:
    """Generate ``count`` distinct primes of exactly ``bits`` bits with
    ``q = 1 (mod 2 * ring_degree)``, as required for negacyclic NTT.

    Primes are returned largest-first (the conventional order of an RNS
    modulus chain, where the last prime is dropped first by Rescale).
    """
    if bits > MAX_MODULUS_BITS:
        raise ModulusError(
            f"{bits}-bit primes exceed the functional fast path "
            f"(max {MAX_MODULUS_BITS}); use the performance model for wider words"
        )
    m = 2 * ring_degree
    if m <= 0 or ring_degree & (ring_degree - 1):
        raise ValueError("ring_degree must be a positive power of two")
    primes: list[int] = []
    # Start from the largest candidate of the requested width.
    candidate = ((1 << bits) - 1) // m * m + 1
    while len(primes) < count and candidate > (1 << (bits - 1)):
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= m
    if len(primes) < count:
        raise ModulusError(
            f"could not find {count} {bits}-bit NTT primes for N={ring_degree}"
        )
    return primes


def _factorize(n: int) -> dict[int, int]:
    """Trial-division factorization, adequate for 30-bit inputs."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def find_primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group of GF(q)."""
    if not is_prime(q):
        raise ModulusError(f"{q} is not prime")
    group_order = q - 1
    prime_factors = list(_factorize(group_order))
    for g in range(2, q):
        if all(pow(g, group_order // p, q) != 1 for p in prime_factors):
            return g
    raise ModulusError(f"no primitive root found for {q}")  # pragma: no cover


def find_root_of_unity(order: int, q: int) -> int:
    """A primitive ``order``-th root of unity modulo prime ``q``.

    Requires ``order | q - 1``.  Used with ``order = 2N`` to build the
    negacyclic NTT twiddle tables.
    """
    if (q - 1) % order != 0:
        raise ModulusError(f"{order} does not divide {q} - 1")
    g = find_primitive_root(q)
    root = pow(g, (q - 1) // order, q)
    # Sanity: root^order = 1 and root^(order/2) = -1 (primitive).
    if pow(root, order // 2, q) != q - 1:
        raise ModulusError(f"root {root} is not a primitive {order}-th root")
    return root
