"""Matrix NTT backend: each transform as two exact float64 BLAS products.

The registry name ``montgomery`` is historical: the backend first ran
Montgomery (REDC) butterflies, and the CLI flag, the CI matrix and the
benchmark records still carry that name.  It now runs the four-step NTT.

**Four steps.**  With ``N = N1 * N2`` and ``N1 = 2**floor(log2(N) / 2)``, a
residue row read row-major as an ``(N2, N1)`` matrix ``X`` transforms to

    Y = ((A @ X) * T) @ C.T   (mod q)

where ``A[r2, k2] = psi**(N1 * (2 * rev(r2) + 1) * k2)``, ``T[r2, k1] =
psi**((2 * rev(r2) + 1) * k1)`` and ``C[r1, k1] = psi**(2 * N2 * rev(r1) *
k1)``, ``rev`` reversing log2(N2) and log2(N1) bits.  Read row-major, ``Y``
is already in the reference's bit-reversed output order.  The inverse runs
the steps backwards with ``psi**-1``, ``X = A'.T @ ((Y @ C') * T')``, with
``1/N`` folded into ``A'``.

**Exactness.**  Each table entry ``w`` is split into two 15-bit limbs, kept
as the float64 pair ``(w - lo, lo)`` with ``lo = w mod 2**15``.  A limb
times a value of at most 30 bits is below ``2**45`` (times ``2**15`` for
the high limb), and a sum of at most 128 such products below ``2**52``, so
the BLAS products are exact whatever the summation order or FMA use.  Each
step then reduces with ``x - rint(x * (1/q)) * q``: the high limb's product
modulo ``2**15 * q`` first, then its sum with the low limb's modulo ``q``,
leaving every value in ``[-q/2 - 2, q/2 + 2]``.  The output adds ``q`` to
the negative ones, so it is canonical and bit-identical to the reference.
A plan past these bounds (``max(N1, N2) > 128``, i.e. ``N > 16384``, or a
prime of more than 30 bits) raises ``ValueError`` before building a table.

**Plans.**  A plan holds one table set per direction, built under the
plan's lock the first time that direction runs: the limbs of ``A``, ``T``
and ``C`` for every prime, stacked along a leading prime axis, so that
``np.matmul`` runs every (row, prime) block of a stack in one call per
product.  Plans of two or more primes also hold their moduli, reciprocals
and the high limb's ``2**15 * q`` pair as ``(L, N2, N1)`` tiles, because
numpy multiplies far faster by a contiguous operand than by a broadcast
``(L, 1, 1)`` column; single-prime plans use scalars.  A stack runs in
chunks of rows whose float temporaries hold at most :data:`CHUNK_ELEMS`
values each, so they stay in cache.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from ..ntt import bit_reverse_indices, count_transform, get_ntt_context
from .base import KernelBackend

_U64 = np.uint64
_LIMB_BITS = 15
_LIMB = float(1 << _LIMB_BITS)
_LO_MASK = _U64((1 << _LIMB_BITS) - 1)

#: Exactness bounds: sums of at most this many limb products, of values
#: below ``2**MAX_PRIME_BITS``, stay below ``2**52``.
MAX_SIDE = 128
MAX_PRIME_BITS = 30

#: Values per float temporary of one chunk of a stack's rows.
CHUNK_ELEMS = 1 << 15


class _Tables(NamedTuple):
    """One direction's operands, each a ``(high, low)`` pair of float64
    limbs stacked over the primes: the first product's, the twiddles and
    the second product's."""

    first: tuple[np.ndarray, np.ndarray]
    twiddle: tuple[np.ndarray, np.ndarray]
    second: tuple[np.ndarray, np.ndarray]


def _limbs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = np.ascontiguousarray(m)
    lo = m & _LO_MASK
    return (m - lo).astype(np.float64), lo.astype(np.float64)


def _left(limbs, x, hi, lo) -> None:
    np.matmul(limbs[0], x, out=hi)
    np.matmul(limbs[1], x, out=lo)


def _right(limbs, x, hi, lo) -> None:
    np.matmul(x, limbs[0], out=hi)
    np.matmul(x, limbs[1], out=lo)


def _reduce(hi, lo, out, tmp, consts) -> None:
    """``out = (hi + lo) mod q`` in ``[-q/2 - 2, q/2 + 2]``; ``hi`` is the
    high limb's product, a multiple of ``2**15`` (clobbered)."""
    qi_hi, q_hi, qi, q = consts[:4]
    np.multiply(hi, qi_hi, out=tmp)
    np.rint(tmp, out=tmp)
    tmp *= q_hi
    hi -= tmp
    hi += lo
    np.multiply(hi, qi, out=tmp)
    np.rint(tmp, out=tmp)
    tmp *= q
    np.subtract(hi, tmp, out=out)


class MontgomeryPlan:
    """Precomputed per-``(n, primes)`` tables of the matrix NTT (see the
    module docstring)."""

    def __init__(self, n: int, primes: tuple[int, ...]) -> None:
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        self.level = len(self.primes)
        self.n1 = 1 << ((n.bit_length() - 1) // 2)
        self.n2 = n // self.n1
        if max(self.n1, self.n2) > MAX_SIDE or max(self.primes) >> MAX_PRIME_BITS:
            raise ValueError(
                f"matrix NTT is exact up to N={MAX_SIDE ** 2} and "
                f"{MAX_PRIME_BITS}-bit primes; got N={n}, "
                f"{max(self.primes).bit_length()}-bit primes"
            )
        #: Rows of a stack per chunk.
        self.chunk = max(1, CHUNK_ELEMS // (self.level * n))
        #: ``1/(2**15 q)``, ``2**15 q``, ``1/q`` and ``q`` as float64, then
        #: ``q`` as uint64: scalars for one prime, else ``(L, N2, N1)`` tiles.
        qs = np.array(self.primes, dtype=np.float64)
        consts = (1 / (qs * _LIMB), qs * _LIMB, 1 / qs, qs)
        if self.level == 1:
            self.consts = tuple(float(c[0]) for c in consts) + (_U64(self.primes[0]),)
        else:
            shape = (self.level, self.n2, self.n1)
            self.consts = tuple(
                np.ascontiguousarray(np.broadcast_to(c.reshape(-1, 1, 1), shape))
                for c in consts + (np.array(self.primes, dtype=_U64),)
            )
        self._lock = threading.Lock()
        self._tables: dict[bool, _Tables] = {}

    def tables(self, inverse: bool) -> _Tables:
        """One direction's tables, built on its first use."""
        tab = self._tables.get(inverse)
        if tab is None:
            with self._lock:
                tab = self._tables.get(inverse)
                if tab is None:
                    tab = self._tables[inverse] = self._build(inverse)
        return tab

    def _build(self, inverse: bool) -> _Tables:
        n, n1, n2 = self.n, self.n1, self.n2
        contexts = [get_ntt_context(n, q) for q in self.primes]
        qs = np.array(self.primes, dtype=_U64).reshape(-1, 1)
        # psi**e for every prime and e < 2N, gathered from the reference
        # contexts' bit-reversed powers (psi**N = -1).
        rev = bit_reverse_indices(n)
        powers = np.stack([
            (ctx.psi_inv_bitrev if inverse else ctx.psi_bitrev)[rev]
            for ctx in contexts
        ])
        powers = np.concatenate([powers, qs - powers], axis=1)

        def table(exponent: np.ndarray) -> np.ndarray:
            return powers[:, exponent % (2 * n)]

        odd = 2 * bit_reverse_indices(n2) + 1
        a = table(n1 * np.outer(odd, np.arange(n2)))
        t = table(np.outer(odd, np.arange(n1)))
        c = table(2 * n2 * np.outer(bit_reverse_indices(n1), np.arange(n1)))
        if inverse:
            n_inv = np.array([ctx.n_inv for ctx in contexts], dtype=_U64)
            a = (a * n_inv.reshape(-1, 1, 1) % qs[:, :, None]).transpose(0, 2, 1)
            return _Tables(_limbs(c), _limbs(t), _limbs(a))
        return _Tables(_limbs(a), _limbs(t), _limbs(c.transpose(0, 2, 1)))

    def transform(self, values, inverse: bool) -> np.ndarray:
        """Forward (or inverse) NTT of ``(..., L, N)`` residues."""
        level, n = self.level, self.n
        a = np.asarray(values, dtype=_U64)
        if a.ndim < 2 or a.shape[-2:] != (level, n):
            raise ValueError(f"expected trailing shape {(level, n)}, got {a.shape}")
        src = a.reshape(-1, level, n).view(np.int64)
        rows = src.shape[0]
        tab = self.tables(inverse)
        first, second = (_right, _left) if inverse else (_left, _right)
        consts = self.consts
        out = np.empty(src.shape, dtype=_U64)
        chunk = min(rows, self.chunk)
        x = np.empty((chunk, level, self.n2, self.n1))
        tmp = np.empty_like(x)
        halves = np.empty((2,) + x.shape)
        for r in range(0, rows, chunk):
            m = min(chunk, rows - r)
            xs, ts, hi, lo = x[:m], tmp[:m], halves[0, :m], halves[1, :m]
            np.copyto(xs.reshape(m, level, n), src[r : r + m], casting="unsafe")
            first(tab.first, xs, hi, lo)
            _reduce(hi, lo, xs, ts, consts)
            np.multiply(xs, tab.twiddle[0], out=hi)
            np.multiply(xs, tab.twiddle[1], out=lo)
            _reduce(hi, lo, xs, ts, consts)
            second(tab.second, xs, hi, lo)
            _reduce(hi, lo, xs, ts, consts)
            # Canonical: negative values wrap as uint64, so adding q maps
            # them below q and leaves every other value above itself.
            o = out[r : r + m].reshape(xs.shape)
            np.copyto(o.view(np.int64), xs, casting="unsafe")
            wrapped = hi.view(_U64)
            np.add(o, consts[4], out=wrapped)
            np.minimum(o, wrapped, out=o)
        return out.reshape(a.shape)


class MontgomeryBackend(KernelBackend):
    """Matrix-NTT kernel backend (the default; the name is historical)."""

    name = "montgomery"

    def __init__(self) -> None:
        self._plans: dict[tuple[int, tuple[int, ...]], MontgomeryPlan] = {}
        self._lock = threading.Lock()

    def plan(self, n: int, primes: tuple[int, ...]) -> MontgomeryPlan:
        key = (n, tuple(primes))
        plan = self._plans.get(key)
        if plan is None:
            with self._lock:
                plan = self._plans.get(key)
                if plan is None:
                    plan = self._plans[key] = MontgomeryPlan(*key)
        return plan

    def _transform(self, n, primes, values, inverse: bool) -> np.ndarray:
        plan = self.plan(n, primes)
        out = plan.transform(values, inverse)
        direction = "inverse" if inverse else "forward"
        count_transform(direction, out.size // n, self.name)
        return out

    def forward(self, n, primes, values):
        return self._transform(n, primes, values, inverse=False)

    def inverse(self, n, primes, values):
        return self._transform(n, primes, values, inverse=True)

    def plan_keys(self) -> list[tuple]:
        return sorted(self._plans)

    def clear_plans(self) -> None:
        with self._lock:
            self._plans.clear()
