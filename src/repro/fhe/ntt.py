"""Negacyclic number-theoretic transform (NTT) over RNS prime fields.

The NTT is the fundamental building block of the Rescale and KeySwitch HE
operations (paper Sec. III, Table I) and the performance bottleneck of the
whole accelerator.  This module implements the functional transform used by
the FHE substrate; its hardware cost model (``LAT_NTT = log2(N) * N /
(2 * nc_NTT)``, Eq. 4) lives in ``repro.fpga.modules``.

* :class:`NttContext` — the per-prime transform: standard iterative
  Cooley-Tukey butterflies with the 2N-th root ``psi`` merged into the
  twiddle factors (forward), and Gentleman-Sande with ``psi**-1``
  (inverse), fully reducing after every stage.  The ``reference`` kernel
  backend runs it row by row; it is the one correctness oracle.
* :class:`BatchedNttContext` — the per-chain tables of the element-wise
  kernels and the ring code: the ``(L, N)`` moduli and the Rescale
  inverses.
* :func:`declare_chain` — a chain and its special prime, declared once
  (by :class:`~repro.fhe.context.CkksContext`): the tables of every tuple
  of its primes are views of one set per chain, here and in the kernel
  backends' plans.
* :func:`galois_permutation` — the NTT-domain Galois permutations, which
  depend only on the ring degree: one array per ``(N, g)``.

HE call sites transform through :func:`repro.fhe.kernels.active_backend`
(``montgomery`` by default).  Contexts and permutations are cached in
explicit, inspectable registries (:func:`get_ntt_context` /
:func:`get_batched_ntt_context`, :func:`clear_caches`,
:func:`registry_info`), and every transform counts its per-row invocations
in the ``ntt_transform_{calls,rows}`` registry counters so NTT-pressure
reductions are measurable.
"""

from __future__ import annotations

import numpy as np

from ..obs.registry import REGISTRY as _OBS_REGISTRY
from .modmath import (
    BarrettConstant,
    find_root_of_unity,
    mod_add,
    mod_inverse,
    mod_mul,
    mod_sub,
)

_U64 = np.uint64
#: Shoup quotients use beta = 32: with q < 2**30 every lazy operand stays
#: below 4q <= 2**32 and all intermediate products fit in uint64.
_SHOUP_SHIFT = _U64(32)


def bit_reverse_indices(n: int) -> np.ndarray:
    """Return the bit-reversal permutation of ``range(n)`` (n a power of two)."""
    if n <= 0 or n & (n - 1):
        raise ValueError("n must be a positive power of two")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


# ---------------------------------------------------------------------------
# Transform accounting
# ---------------------------------------------------------------------------

#: The transform counters live in the obs metrics registry (``repro.obs``),
#: shared with the rest of the instrumentation stack; the handles are cached
#: here so the per-transform cost stays two integer adds.  Counters are
#: always live (not gated by the obs enable flag): the kernel tests and the
#: benchmark harness read the direction totals unconditionally.
_FWD_CALLS = _OBS_REGISTRY.counter("ntt_transform_calls", direction="forward")
_INV_CALLS = _OBS_REGISTRY.counter("ntt_transform_calls", direction="inverse")
_FWD_ROWS = _OBS_REGISTRY.counter("ntt_transform_rows", direction="forward")
_INV_ROWS = _OBS_REGISTRY.counter("ntt_transform_rows", direction="inverse")

#: Per-(direction, backend) labelled counter handles, created lazily the
#: first time a kernel backend performs a transform.
_BACKEND_COUNTERS: dict[tuple[str, str], tuple] = {}


def count_transform(direction: str, rows: int, backend: str) -> None:
    """Count one transform call covering ``rows`` length-N rows.

    Increments both the direction-only totals and ``backend``-labelled
    counters so metrics snapshots attribute NTT pressure to the kernel
    backend that actually executed it.
    """
    pair = _BACKEND_COUNTERS.get((direction, backend))
    if pair is None:
        pair = _BACKEND_COUNTERS[(direction, backend)] = (
            _OBS_REGISTRY.counter(
                "ntt_transform_calls", direction=direction, backend=backend
            ),
            _OBS_REGISTRY.counter(
                "ntt_transform_rows", direction=direction, backend=backend
            ),
        )
    pair[0].inc()
    pair[1].inc(rows)
    if direction == "forward":
        _FWD_CALLS.inc()
        _FWD_ROWS.inc(rows)
    else:
        _INV_CALLS.inc()
        _INV_ROWS.inc(rows)


class NttContext:
    """Precomputed tables for the negacyclic NTT modulo one RNS prime.

    Parameters
    ----------
    n:
        Ring degree (power of two).  Polynomials live in Z_q[X]/(X^N + 1).
    q:
        NTT-friendly prime with ``q = 1 (mod 2n)``.
    """

    def __init__(self, n: int, q: int) -> None:
        if n <= 1 or n & (n - 1):
            raise ValueError("ring degree must be a power of two > 1")
        self.n = n
        self.q = q
        self.barrett = BarrettConstant.for_modulus(q)
        psi = find_root_of_unity(2 * n, q)
        self.psi = psi
        self.psi_inv = mod_inverse(psi, q)
        self.n_inv = mod_inverse(n, q)

        rev = bit_reverse_indices(n)
        powers = np.empty(n, dtype=_U64)
        inv_powers = np.empty(n, dtype=_U64)
        acc = 1
        acc_inv = 1
        for i in range(n):
            powers[i] = acc
            inv_powers[i] = acc_inv
            acc = acc * psi % q
            acc_inv = acc_inv * self.psi_inv % q
        #: psi^i stored in bit-reversed order, as consumed by the butterflies.
        self.psi_bitrev = powers[rev].copy()
        self.psi_inv_bitrev = inv_powers[rev].copy()

    # -- transforms ---------------------------------------------------------

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT along the last axis.

        Accepts any leading batch shape; the last axis must have length
        ``self.n``.  Input coefficients must be reduced modulo ``q``.
        """
        a = np.ascontiguousarray(values, dtype=_U64).copy()
        if a.shape[-1] != self.n:
            raise ValueError(f"last axis must be {self.n}, got {a.shape[-1]}")
        batch_shape = a.shape[:-1]
        a = a.reshape(-1, self.n)
        count_transform("forward", a.shape[0], "reference")
        q, bc = self.q, self.barrett
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            twiddles = self.psi_bitrev[m : 2 * m]  # one per block
            blocks = a.reshape(-1, m, 2 * t)
            u = blocks[:, :, :t].copy()  # copy: assignments below alias blocks
            v = mod_mul(blocks[:, :, t:], twiddles[None, :, None], bc)
            blocks[:, :, :t] = mod_add(u, v, q)
            blocks[:, :, t:] = mod_sub(u, v, q)
            m *= 2
        return a.reshape(*batch_shape, self.n)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT along the last axis (exact inverse of
        :meth:`forward`, including the ``1/N`` scaling)."""
        a = np.ascontiguousarray(values, dtype=_U64).copy()
        if a.shape[-1] != self.n:
            raise ValueError(f"last axis must be {self.n}, got {a.shape[-1]}")
        batch_shape = a.shape[:-1]
        a = a.reshape(-1, self.n)
        count_transform("inverse", a.shape[0], "reference")
        q, bc = self.q, self.barrett
        t = 1
        m = self.n
        while m > 1:
            h = m // 2
            twiddles = self.psi_inv_bitrev[h : 2 * h]
            blocks = a.reshape(-1, h, 2 * t)
            u = blocks[:, :, :t].copy()
            v = blocks[:, :, t:].copy()
            blocks[:, :, :t] = mod_add(u, v, q)
            blocks[:, :, t:] = mod_mul(mod_sub(u, v, q), twiddles[None, :, None], bc)
            t *= 2
            m = h
        n_inv = np.full(1, self.n_inv, dtype=_U64)
        a = mod_mul(a, n_inv, bc)
        return a.reshape(*batch_shape, self.n)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient-domain polynomials in Z_q[X]/(X^N+1)."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(mod_mul(fa, fb, self.barrett))


class BatchedNttContext:
    """Precomputed tables for every prime of an RNS chain.

    Per-prime constants are stacked along a leading ``(L, ...)`` prime axis
    so kernels broadcast them over ``(..., L, N)`` residue matrices: the
    moduli, tiled, plus lazily built Rescale inverses and their Shoup
    quotients ``w' = floor(w * 2**32 / q)``.  Since q < 2**30, every Shoup
    product ``v * w'`` with ``v < 4q <= 2**32`` fits in uint64.

    ``chain`` is the context of a declared chain ``(q_1 .. q_L, P)`` holding
    every prime: a contiguous run of it (a prefix, one prime, ``P``) views
    the chain's moduli tile, and ``(q_1 .. q_l, P)`` views the first ``l``
    rows of the chain's ``P**-1 mod q_i`` tiles for its ModDown.
    """

    def __init__(
        self,
        n: int,
        primes: tuple[int, ...],
        chain: BatchedNttContext | None = None,
    ) -> None:
        if not primes:
            raise ValueError("need at least one prime")
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        level = len(self.primes)
        self.qs = np.array(self.primes, dtype=_U64).reshape(level, 1)
        # Fully-tiled (L, N) copies of the per-prime constants.  Broadcasting
        # an ``(L, 1)`` column over the slot axis forces stride-0 inner loops
        # in numpy (1.5-2x slower per pass on this substrate); the hot
        # KeySwitch/Rescale element-wise kernels use these contiguous tiles
        # instead.  Values are identical, so outputs stay bit-identical.
        # A contiguous run of a declared chain views the chain's tile.
        start = None if chain is None else _run_start(chain.primes, self.primes)
        if start is None:
            self.qs_full = np.ascontiguousarray(
                np.broadcast_to(self.qs, (level, n))
            )
        else:
            self.qs_full = chain.qs_full[start : start + level]
        self.qs_full_i64 = self.qs_full.view(np.int64)
        self._chain = chain
        self._rescale_inverses: np.ndarray | None = None
        self._rescale_inv_tiled: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def level(self) -> int:
        return len(self.primes)

    def galois_permutation(self, galois_element: int) -> np.ndarray:
        """:func:`galois_permutation` at this chain's ring degree."""
        return galois_permutation(self.n, galois_element)

    def rescale_inverses(self) -> np.ndarray:
        """``q_last^{-1} mod q_i`` for the leading primes, shaped ``(L-1, 1)``.

        Precomputed constants for the vectorized RNS Rescale (divide by the
        final chain prime and drop it).
        """
        if self.level < 2:
            raise ValueError("rescale needs at least two primes")
        if self._rescale_inverses is None:
            q_last = self.primes[-1]
            self._rescale_inverses = np.array(
                [mod_inverse(q_last, q) for q in self.primes[:-1]], dtype=_U64
            ).reshape(-1, 1)
        return self._rescale_inverses

    def rescale_inverses_tiled(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`rescale_inverses` plus their Shoup quotients, tiled to
        contiguous ``(L-1, N)`` arrays for the division-free Rescale
        constant multiply."""
        if self._rescale_inv_tiled is None and self._divides_by_chain_p():
            self._rescale_inv_tiled = tuple(
                t[: self.level - 1] for t in self._chain.rescale_inverses_tiled()
            )
        if self._rescale_inv_tiled is None:
            inv = self.rescale_inverses()
            shoup = (inv << _SHOUP_SHIFT) // self.qs[:-1]
            shape = (self.level - 1, self.n)
            self._rescale_inv_tiled = (
                np.ascontiguousarray(np.broadcast_to(inv, shape)),
                np.ascontiguousarray(np.broadcast_to(shoup, shape)),
            )
        return self._rescale_inv_tiled

    def _divides_by_chain_p(self) -> bool:
        """Whether this is ``(q_1 .. q_l, P)`` of the declared chain, so its
        Rescale (a ModDown) divides by the chain's last prime."""
        chain = self._chain
        return (
            chain is not None
            and self.level > 1
            and self.primes[-1] == chain.primes[-1]
            and self.primes[:-1] == chain.primes[: self.level - 1]
        )


def _run_start(chain: tuple[int, ...], primes: tuple[int, ...]) -> int | None:
    """Where ``primes`` starts as a contiguous run of ``chain``, if it is one."""
    start = chain.index(primes[0]) if primes[0] in chain else -1
    if start < 0 or chain[start : start + len(primes)] != primes:
        return None
    return start


# ---------------------------------------------------------------------------
# Declared chains
# ---------------------------------------------------------------------------

#: Declared ``(n, chain + (P,))`` tuples, in declaration order.
_CHAINS: dict[tuple[int, tuple[int, ...]], None] = {}


def declare_chain(n: int, primes: tuple[int, ...]) -> None:
    """Declare a chain followed by its special prime at ring degree ``n``.

    The batched contexts here and the kernel backends' plans then hold one
    table set for the whole tuple and serve every tuple of its primes
    (prefixes, single primes, ``P``, ``(q_1 .. q_l, P)``) as views of it.
    A tuple no declared chain covers keeps tables of its own.
    """
    _CHAINS[(n, tuple(int(q) for q in primes))] = None


def covering_chain(n: int, primes: tuple[int, ...]) -> tuple[int, ...] | None:
    """The first declared chain of degree ``n`` holding every prime of
    ``primes``, or ``None``."""
    for degree, chain in tuple(_CHAINS):
        if degree == n and set(primes) <= set(chain):
            return chain
    return None


# ---------------------------------------------------------------------------
# Context registry
# ---------------------------------------------------------------------------

#: Explicit, inspectable context caches (previously an unbounded lru_cache).
_NTT_REGISTRY: dict[tuple[int, int], NttContext] = {}
_BATCHED_REGISTRY: dict[tuple[int, tuple[int, ...]], BatchedNttContext] = {}
#: NTT-domain Galois permutations by ``(n, g)``, shared by every chain.
_GALOIS_REGISTRY: dict[tuple[int, int], np.ndarray] = {}


def get_ntt_context(n: int, q: int) -> NttContext:
    """Cached NTT context lookup — table setup costs O(N) per (n, q) pair."""
    key = (n, q)
    ctx = _NTT_REGISTRY.get(key)
    if ctx is None:
        ctx = _NTT_REGISTRY[key] = NttContext(n, q)
    return ctx


def get_batched_ntt_context(n: int, primes: tuple[int, ...]) -> BatchedNttContext:
    """Cached batched-context lookup for one RNS prime chain."""
    key = (n, tuple(primes))
    ctx = _BATCHED_REGISTRY.get(key)
    if ctx is None:
        chain = covering_chain(*key)
        ctx = _BATCHED_REGISTRY[key] = BatchedNttContext(
            n, key[1],
            None if chain in (None, key[1]) else get_batched_ntt_context(n, chain),
        )
    return ctx


def galois_permutation(n: int, galois_element: int) -> np.ndarray:
    """Index permutation realizing ``a(X) -> a(X**g)`` in the NTT domain.

    ``out[..., i] = in[..., perm[i]]`` — evaluation points are permuted,
    no arithmetic (and in particular no inverse/forward round trip) is
    required.  Forward output ``i`` evaluates ``a(psi**(2 * rev(i) + 1))``
    for every prime, ``rev`` being the bit reversal (the butterflies
    consume the powers of ``psi`` in bit-reversed order), so one array per
    ``(n, g)`` serves every chain of degree ``n``.
    """
    g = int(galois_element) % (2 * n)
    if g % 2 == 0:
        raise ValueError("Galois element must be odd")
    perm = _GALOIS_REGISTRY.get((n, g))
    if perm is None:
        rev = bit_reverse_indices(n)
        perm = _GALOIS_REGISTRY[(n, g)] = rev[(2 * rev + 1) * g % (2 * n) // 2]
    return perm


def clear_caches() -> None:
    """Drop every declared chain, cached NTT context, Galois permutation
    and kernel-backend plan — test helper.

    Covers both the registries owned by this module and the
    per-backend precomputed plans owned by ``repro.fhe.kernels`` (imported
    lazily; kernels imports this module at load time).
    """
    _CHAINS.clear()
    _NTT_REGISTRY.clear()
    _BATCHED_REGISTRY.clear()
    _GALOIS_REGISTRY.clear()
    from . import kernels

    kernels.clear_plans()


def registry_info() -> dict[str, object]:
    """Keys currently held by the context registries and backend plan
    caches (for inspection)."""
    from . import kernels

    return {
        "chains": list(_CHAINS),
        "ntt": sorted(_NTT_REGISTRY),
        "batched": sorted(_BATCHED_REGISTRY),
        "galois": sorted(_GALOIS_REGISTRY),
        "kernel_plans": kernels.plans_info(),
    }


def negacyclic_convolution_reference(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Schoolbook negacyclic convolution, used as a test oracle.

    O(N^2); intended only for small N in tests.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[-1]
    out = np.zeros(n, dtype=object)
    for i in range(n):
        for j in range(n):
            k = i + j
            term = int(a[i]) * int(b[j])
            if k >= n:
                out[k - n] = (out[k - n] - term) % q
            else:
                out[k] = (out[k] + term) % q
    return out.astype(np.uint64)
