"""Kernel backend interface for the FHE polynomial substrate.

A :class:`KernelBackend` bundles the low-level ring kernels every HE
operation is built from: the batched negacyclic NTT over an ``(..., L, N)``
RNS residue matrix (forward/inverse), negacyclic multiplication, NTT-domain
Galois permutation application, and batched modular element-wise arithmetic.
Call sites (``repro.fhe.poly`` / ``repro.fhe.ops``) never pick a concrete
implementation — they go through :func:`repro.fhe.kernels.active_backend`.

The hard contract is **bit-identity**: every backend must produce outputs
bit-identical to the per-prime reference transform (:class:`~repro.fhe.ntt.
NttContext`) for all valid inputs.  "Faster but slightly off" is not a
trade-off this layer offers; the property-test suite
(``tests/fhe/test_kernels.py``) enforces the contract for every registered
backend.

Backends may precompute per-``(n, primes)`` *plans* (twiddle matrices,
moduli tiles, ...).  Plans are cached per backend instance behind a
lock and surfaced through :meth:`KernelBackend.plan_keys` /
:meth:`KernelBackend.clear_plans` so ``repro.fhe.ntt.clear_caches`` and
``registry_info`` stay accurate.
"""

from __future__ import annotations

import numpy as np

from ..modmath import (
    batched_mod_add,
    batched_mod_mul,
    batched_mod_neg,
    batched_mod_sub,
    shoup_mul,
)
from ..ntt import BatchedNttContext, get_batched_ntt_context


class KernelBackend:
    """Base class for pluggable FHE ring-kernel implementations.

    Subclasses must implement :meth:`forward` and :meth:`inverse`; the
    remaining kernels have default implementations built on the shared
    precomputed context tables, which subclasses may override when they can
    do better.  All methods take the ring degree ``n`` and the RNS prime
    chain ``primes`` explicitly so backends stay stateless per call and can
    be swapped mid-process without touching live polynomial objects.
    """

    #: Registry name; unique across registered backends.
    name: str = "abstract"

    # -- shared helpers ------------------------------------------------------

    def context(self, n: int, primes: tuple[int, ...]) -> BatchedNttContext:
        """Cached per-chain precomputed tables (moduli, Rescale inverses)."""
        return get_batched_ntt_context(n, tuple(primes))

    # -- required kernels ----------------------------------------------------

    def forward(
        self, n: int, primes: tuple[int, ...], values: np.ndarray
    ) -> np.ndarray:
        """Batched negacyclic forward NTT of ``(..., L, N)`` residues.

        Inputs must be reduced modulo their primes; outputs are fully
        reduced and bit-identical to the reference transform.
        """
        raise NotImplementedError

    def inverse(
        self, n: int, primes: tuple[int, ...], values: np.ndarray
    ) -> np.ndarray:
        """Batched negacyclic inverse NTT (including the ``1/N`` scaling)."""
        raise NotImplementedError

    # -- derived kernels (override when the backend can fuse) ----------------

    def negacyclic_multiply(
        self, n: int, primes: tuple[int, ...], a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Coefficient-domain product in Z_q[X]/(X^N + 1), per RNS row."""
        fa = self.forward(n, primes, a)
        fb = self.forward(n, primes, b)
        return self.inverse(n, primes, self.modmul(n, primes, fa, fb))

    def apply_galois(
        self,
        n: int,
        primes: tuple[int, ...],
        values: np.ndarray,
        galois_element: int,
    ) -> np.ndarray:
        """Apply ``a(X) -> a(X**g)`` to NTT-domain residues (a permutation)."""
        perm = self.context(n, primes).galois_permutation(galois_element)
        return np.ascontiguousarray(np.asarray(values)[..., perm])

    def modmul(
        self, n: int, primes: tuple[int, ...], a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Element-wise modular product of residue matrices."""
        ctx = self.context(n, primes)
        return batched_mod_mul(np.asarray(a), np.asarray(b), ctx.qs_full)

    def modmul_const(
        self,
        n: int,
        primes: tuple[int, ...],
        rows: np.ndarray,
        values: np.ndarray,
        values_shoup: np.ndarray,
    ) -> np.ndarray:
        """Multiply residues by fixed precomputed constants.

        ``values_shoup`` holds the Shoup quotients of ``values`` (see
        :func:`~repro.fhe.modmath.shoup_precompute`), letting the product
        skip the integer division entirely.  Bit-identical to
        :meth:`modmul` for canonical inputs.
        """
        ctx = self.context(n, primes)
        return shoup_mul(np.asarray(rows), values, values_shoup, ctx.qs_full)

    def modadd(
        self, n: int, primes: tuple[int, ...], a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Element-wise modular sum of residue matrices."""
        ctx = self.context(n, primes)
        return batched_mod_add(np.asarray(a), np.asarray(b), ctx.qs_full)

    def modsub(
        self, n: int, primes: tuple[int, ...], a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Element-wise modular difference of residue matrices."""
        ctx = self.context(n, primes)
        return batched_mod_sub(np.asarray(a), np.asarray(b), ctx.qs_full)

    def modneg(
        self, n: int, primes: tuple[int, ...], a: np.ndarray
    ) -> np.ndarray:
        """Element-wise modular negation of a residue matrix."""
        ctx = self.context(n, primes)
        return batched_mod_neg(np.asarray(a), ctx.qs_full)

    # -- plan cache introspection -------------------------------------------

    def plan_keys(self) -> list[tuple]:
        """Keys of backend-owned precomputed plans (empty when stateless)."""
        return []

    def clear_plans(self) -> None:
        """Drop backend-owned precomputed plans (no-op when stateless)."""
