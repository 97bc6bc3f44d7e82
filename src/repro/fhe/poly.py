"""RNS polynomial arithmetic in ``R_Q = Z_Q[X]/(X^N + 1)``.

RNS-CKKS (paper Sec. II-A) decomposes the large ciphertext modulus ``Q`` into
``L`` word-sized primes ``q_1 .. q_L`` so every polynomial is stored as an
``(L, N)`` matrix of residues, one row per prime.  Rows are independent for
all basic operations — the parallelism the accelerator's *intra-operation*
parameter ``P_intra`` exploits (Sec. V-B, Fig. 4).

:class:`RnsPolynomial` is an immutable-by-convention value type; arithmetic
returns new objects.  Polynomials track whether they are in coefficient or
NTT (evaluation) domain; multiplication requires the NTT domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .modmath import centered_lift, centered_lift_fits, mod_inverse
from .ntt import get_batched_ntt_context

_U64 = np.uint64
#: The at-rest word: every functional prime is below ``2**30``, so a
#: canonical residue fits 32 bits (:data:`~repro.fhe.modmath
#: .MAX_MODULUS_BITS`).
_U32 = np.dtype(np.uint32)


@dataclass(frozen=True)
class RnsBasis:
    """An ordered chain of RNS primes for ring degree ``n``.

    The chain order matters: Rescale drops primes from the *end* of the
    chain, mirroring the modulus-switching chain of RNS-CKKS.
    """

    n: int
    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("RNS primes must be distinct")
        for q in self.primes:
            if (q - 1) % (2 * self.n) != 0:
                raise ValueError(f"prime {q} is not NTT-friendly for N={self.n}")

    @property
    def level(self) -> int:
        """Number of primes in the chain (the ciphertext level ``L``)."""
        return len(self.primes)

    @property
    def modulus(self) -> int:
        """The composite modulus ``Q = prod(q_i)`` as a Python int."""
        out = 1
        for q in self.primes:
            out *= q
        return out

    def drop_last(self) -> "RnsBasis":
        """Basis with the final prime removed (one Rescale step)."""
        if self.level <= 1:
            raise ValueError("cannot drop below one prime")
        return RnsBasis(self.n, self.primes[:-1])

    def prefix(self, level: int) -> "RnsBasis":
        """Basis truncated to the first ``level`` primes."""
        if not 1 <= level <= self.level:
            raise ValueError(f"level {level} out of range 1..{self.level}")
        return RnsBasis(self.n, self.primes[:level])

    def ntt(self):
        """The (cached) batched NTT context for this chain.

        Also carries the stacked moduli (``qs``, ``qs_full``) used by the
        vectorized polynomial arithmetic.
        """
        return get_batched_ntt_context(self.n, self.primes)


class RnsPolynomial:
    """A polynomial in ``R_Q`` stored as per-prime residue rows.

    Attributes
    ----------
    basis:
        The RNS basis; ``residues.shape == (basis.level, basis.n)``.
    residues:
        Array of residues, each row reduced modulo its prime: ``uint32``
        as held at rest (key-switching keys, cached plaintexts) and
        ``uint64`` otherwise.  Every arithmetic result is ``uint64``.
    is_ntt:
        ``True`` if rows are in the NTT (evaluation) domain.
    """

    __slots__ = ("basis", "residues", "is_ntt")

    def __init__(self, basis: RnsBasis, residues: np.ndarray, is_ntt: bool) -> None:
        if residues.dtype is not _U32:
            residues = np.asarray(residues, dtype=_U64)
        if residues.shape != (basis.level, basis.n):
            raise ValueError(
                f"expected residues of shape {(basis.level, basis.n)}, "
                f"got {residues.shape}"
            )
        self.basis = basis
        self.residues = residues
        self.is_ntt = is_ntt

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, basis: RnsBasis, is_ntt: bool = False) -> "RnsPolynomial":
        return cls(basis, np.zeros((basis.level, basis.n), dtype=_U64), is_ntt)

    @classmethod
    def from_coefficients(
        cls, basis: RnsBasis, coefficients: Sequence[int] | np.ndarray
    ) -> "RnsPolynomial":
        """Build from signed integer coefficients (coefficient domain).

        Coefficients may be arbitrary Python ints; each is reduced into every
        prime of the basis.
        """
        coeffs = np.asarray(coefficients, dtype=object)
        if coeffs.shape != (basis.n,):
            raise ValueError(f"expected {basis.n} coefficients, got {coeffs.shape}")
        try:
            # Word-sized coefficients (the common case: every valid CKKS
            # encoding fits int64): reduce all rows in one vectorized call.
            small = np.array([int(c) for c in coeffs], dtype=np.int64)
        except OverflowError:
            rows = np.empty((basis.level, basis.n), dtype=_U64)
            for i, q in enumerate(basis.primes):
                rows[i] = np.array([int(c) % q for c in coeffs], dtype=_U64)
            return cls(basis, rows, is_ntt=False)
        return cls.from_signed(basis, small)

    @classmethod
    def from_signed(cls, basis: RnsBasis, signed: np.ndarray) -> "RnsPolynomial":
        """Build from int64 coefficients (coefficient domain), reducing
        every coefficient into all primes with one ``np.mod``."""
        qs = np.array(basis.primes, dtype=np.int64).reshape(-1, 1)
        rows = np.mod(np.asarray(signed, dtype=np.int64), qs).astype(_U64)
        return cls(basis, rows, is_ntt=False)

    # -- domain conversions ---------------------------------------------------

    def to_ntt(self) -> "RnsPolynomial":
        if self.is_ntt:
            return self
        rows = kernels.active_backend().forward(
            self.basis.n, self.basis.primes, self.residues
        )
        return RnsPolynomial(self.basis, rows, is_ntt=True)

    def to_coefficient(self) -> "RnsPolynomial":
        if not self.is_ntt:
            return self
        rows = kernels.active_backend().inverse(
            self.basis.n, self.basis.primes, self.residues
        )
        return RnsPolynomial(self.basis, rows, is_ntt=False)

    # -- arithmetic -----------------------------------------------------------

    def _require_same_form(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ValueError("RNS bases differ")
        if self.is_ntt != other.is_ntt:
            raise ValueError("operands are in different domains")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._require_same_form(other)
        rows = kernels.active_backend().modadd(
            self.basis.n, self.basis.primes, self.residues, other.residues
        )
        return RnsPolynomial(self.basis, rows, self.is_ntt)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._require_same_form(other)
        rows = kernels.active_backend().modsub(
            self.basis.n, self.basis.primes, self.residues, other.residues
        )
        return RnsPolynomial(self.basis, rows, self.is_ntt)

    def __neg__(self) -> "RnsPolynomial":
        rows = kernels.active_backend().modneg(
            self.basis.n, self.basis.primes, self.residues
        )
        return RnsPolynomial(self.basis, rows, self.is_ntt)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Pointwise (NTT-domain) product; both operands must be in NTT form."""
        self._require_same_form(other)
        if not self.is_ntt:
            raise ValueError("polynomial multiplication requires NTT domain")
        rows = kernels.active_backend().modmul(
            self.basis.n, self.basis.primes, self.residues, other.residues
        )
        return RnsPolynomial(self.basis, rows, is_ntt=True)

    def scalar_multiply(self, scalar: int) -> "RnsPolynomial":
        """Multiply every coefficient by an integer scalar."""
        s = np.array(
            [int(scalar) % q for q in self.basis.primes], dtype=_U64
        ).reshape(-1, 1)
        rows = kernels.active_backend().modmul(
            self.basis.n, self.basis.primes, self.residues, s
        )
        return RnsPolynomial(self.basis, rows, self.is_ntt)

    # -- level management -----------------------------------------------------

    def drop_to_basis(self, basis: RnsBasis) -> "RnsPolynomial":
        """Restrict to a prefix basis by discarding the extra residue rows."""
        if basis.primes != self.basis.primes[: basis.level]:
            raise ValueError("target basis is not a prefix of the current basis")
        return RnsPolynomial(basis, self.residues[: basis.level].copy(), self.is_ntt)

    def rescale(self) -> "RnsPolynomial":
        """Exact RNS rescale: divide by the last prime and drop it.

        Implements the standard RNS-CKKS Rescale (paper Sec. II-A): for each
        remaining prime ``q_i``, ``c'_i = (c_i - c_last) * q_last^-1 mod q_i``,
        returned in the input's domain.  NTT-domain inputs take the
        NTT-resident path of :func:`rescale_polys`, in which only the dropped
        row leaves the evaluation domain; coefficient-domain inputs are
        computed directly.
        """
        if self.basis.level <= 1:
            raise ValueError("cannot rescale a level-1 polynomial")
        if self.is_ntt:
            return rescale_polys((self,))[0]
        new_basis = self.basis.drop_last()
        q_last = self.basis.primes[-1]
        last_row = self.residues[-1]
        # Centered lift of the last row so the rounding error stays small;
        # all remaining primes are handled in one stacked call.
        signed = _centred(last_row, q_last)
        lifted = np.mod(
            signed[None, :], new_basis.ntt().qs.astype(np.int64)
        ).astype(_U64)
        backend = kernels.active_backend()
        diff = backend.modsub(
            new_basis.n, new_basis.primes, self.residues[:-1], lifted
        )
        inv = self.basis.ntt().rescale_inverses()
        rows = backend.modmul(new_basis.n, new_basis.primes, diff, inv)
        return RnsPolynomial(new_basis, rows, is_ntt=False)

    # -- automorphisms ---------------------------------------------------------

    def galois_transform(self, galois_element: int) -> "RnsPolynomial":
        """Apply the ring automorphism ``X -> X^g`` in the input's domain.

        This is the algebraic core of the Rotate operation: sending slot
        contents around requires mapping ``a(X)`` to ``a(X^g)`` for
        ``g = 5^k mod 2N``, then key-switching back to the original key.
        """
        n = self.basis.n
        g = galois_element % (2 * n)
        if g % 2 == 0:
            raise ValueError("Galois element must be odd")
        if self.is_ntt:
            # In the NTT domain the automorphism is a pure permutation of
            # evaluation points — no inverse/forward round trip needed.
            rows = kernels.active_backend().apply_galois(
                n, self.basis.primes, self.residues, g
            )
            return RnsPolynomial(self.basis, rows, is_ntt=True)
        # Coefficient domain: X^i -> X^(i*g mod 2N), negated past X^N.
        idx = (np.arange(n, dtype=np.int64) * g) % (2 * n)
        target = np.where(idx < n, idx, idx - n)
        negate = idx >= n
        vals = self.residues
        negated = kernels.active_backend().modneg(n, self.basis.primes, vals)
        rows = np.empty(vals.shape, dtype=_U64)
        rows[:, target] = np.where(negate[None, :], negated, vals)
        return RnsPolynomial(self.basis, rows, is_ntt=False)

    # -- reconstruction ---------------------------------------------------------

    def to_integer_coefficients(self) -> list[int]:
        """CRT-reconstruct centered integer coefficients in ``(-Q/2, Q/2]``."""
        coeff = self.to_coefficient()
        big_q = self.basis.modulus
        # CRT via per-prime basis constants, on object (Python int) arrays.
        total = np.zeros(self.basis.n, dtype=object)
        for q, row in zip(self.basis.primes, coeff.residues):
            q_hat = big_q // q
            total += row.astype(object) * (q_hat * mod_inverse(q_hat % q, q))
        total %= big_q
        return np.where(total > big_q // 2, total - big_q, total).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        domain = "ntt" if self.is_ntt else "coeff"
        return f"RnsPolynomial(L={self.basis.level}, N={self.basis.n}, {domain})"


def rescale_polys(polys: tuple["RnsPolynomial", ...]) -> tuple["RnsPolynomial", ...]:
    """Rescale several same-basis polynomials with shared transforms.

    The NTT-resident rescale transforms one dropped row per polynomial and
    forward-transforms the ``(L-1)``-row lift; stacking the ``C``
    components of a ciphertext into one ``(C, L, N)`` batch halves the
    kernel-call count relative to per-component rescaling (the dominant
    per-call overhead at small ``N``), while the arithmetic — and therefore
    every output bit — is unchanged.

    Falls back to per-polynomial :meth:`RnsPolynomial.rescale` whenever the
    stacked path does not apply (coefficient-domain inputs or mixed bases).
    """
    if not polys:
        return ()
    basis = polys[0].basis
    stackable = basis.level > 1 and all(
        p.is_ntt and p.basis == basis for p in polys
    )
    if not stackable:
        return tuple(p.rescale() for p in polys)
    n = basis.n
    q_last = basis.primes[-1]
    new_basis = basis.drop_last()
    backend = kernels.active_backend()
    stacked = np.stack([p.residues for p in polys])  # (C, L, N)
    # Inverse-transform only the dropped rows (C rows, single-prime chain).
    signed = _centred(backend.inverse(n, (q_last,), stacked[:, -1:, :]), q_last)
    qs_i64 = new_basis.ntt().qs_full_i64
    if centered_lift_fits(q_last, new_basis.primes):
        lifted = centered_lift(signed, qs_i64)
    else:
        lifted = np.mod(signed, qs_i64).astype(_U64)
    lifted = backend.forward(n, new_basis.primes, lifted)
    diff = backend.modsub(n, new_basis.primes, stacked[:, :-1, :], lifted)
    inv_full, inv_shoup = basis.ntt().rescale_inverses_tiled()
    rows = backend.modmul_const(n, new_basis.primes, diff, inv_full, inv_shoup)
    return tuple(
        RnsPolynomial(new_basis, np.ascontiguousarray(rows[c]), is_ntt=True)
        for c in range(len(polys))
    )


def rescale_twice(
    polys: tuple["RnsPolynomial", ...],
) -> tuple["RnsPolynomial", ...]:
    """Divide NTT-domain polynomials over one basis by its last two primes:
    bit-identical to :func:`rescale_polys` applied twice, with inverse
    transforms of the two dropped rows and one forward transform of the
    kept rows.

    With ``b, a`` the last two primes, the first rescale leaves row ``b``
    as ``y_b = (x_b - lift_a) * a^-1`` (``lift_a`` the centred lift of
    the inverse-transformed row ``a``) and the second subtracts the
    centred lift of ``INTT(y_b)``.  The NTT and the reductions are linear,
    so ``INTT(y_b) = (INTT(x_b) - lift_a) * a^-1 mod b`` is formed in the
    coefficient domain from the inverse-transformed rows, and every
    kept row is ``(x_i - NTT(lift_a + a * lift_b)) * a^-1 * b^-1 mod q_i``:
    one forward transform of ``L - 2`` rows, where the two rescales
    transform ``L - 1`` and ``L - 2``.  The combined lift is below
    ``a * b / 2`` in magnitude, so it stays exact in int64.

    Hybrid key switching divides by the special prime ``P`` (ModDown) and a
    Rescale by ``q_l``: over ``(q_1 .. q_l, P)`` this is both divisions in
    one (each giant step of :meth:`~repro.fhe.ops.Evaluator
    .multiply_diagonals`).
    """
    basis = polys[0].basis
    if basis.level <= 2:
        raise ValueError("dividing by two primes needs at least three")
    if not all(p.is_ntt and p.basis == basis for p in polys):
        raise ValueError("expected NTT-domain polynomials over one basis")
    n = basis.n
    q_b, q_a = basis.primes[-2:]
    new_primes = basis.primes[:-2]
    backend = kernels.active_backend()
    stacked = np.stack([p.residues for p in polys])  # (C, L, N)
    # One kernel call per prime: a Rescale's single-prime plan serves it.
    lift_a = _centred(backend.inverse(n, (q_a,), stacked[:, -1:]), q_a)
    diff_b = backend.modsub(
        n, (q_b,), backend.inverse(n, (q_b,), stacked[:, -2:-1]),
        np.mod(lift_a, q_b).astype(_U64),
    )
    a_inv_b = basis.ntt().rescale_inverses()[-1:]  # a^-1 mod b, (1, 1)
    lift_b = _centred(backend.modmul(n, (q_b,), diff_b, a_inv_b), q_b)
    combined = lift_a + np.int64(q_a) * lift_b
    qs_i64 = get_batched_ntt_context(n, new_primes).qs_full_i64
    lifted = backend.forward(
        n, new_primes, np.mod(combined, qs_i64).astype(_U64)
    )
    diff = backend.modsub(n, new_primes, stacked[:, :-2], lifted)
    # Times a^-1, then b^-1: the constants of the two Rescales.
    inv_a, shoup_a = basis.ntt().rescale_inverses_tiled()
    inv_b, shoup_b = basis.drop_last().ntt().rescale_inverses_tiled()
    rows = backend.modmul_const(n, new_primes, diff, inv_a[:-1], shoup_a[:-1])
    rows = backend.modmul_const(n, new_primes, rows, inv_b, shoup_b)
    new_basis = RnsBasis(n, new_primes)
    return tuple(
        RnsPolynomial(new_basis, np.ascontiguousarray(rows[c]), is_ntt=True)
        for c in range(len(polys))
    )


def _centred(rows: np.ndarray, q: int) -> np.ndarray:
    """Canonical residues mod ``q`` as int64 centred representatives."""
    signed = rows.astype(np.int64)
    return np.where(rows > q // 2, signed - np.int64(q), signed)
