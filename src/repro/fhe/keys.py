"""Key material for RNS-CKKS: the secret key and key-switching keys.

The client encrypts and decrypts with the secret key, so no public key
exists; the accelerator receives only the key-switching keys.  Each key
draws from its own :func:`~repro.fhe.sampling.key_stream`.

Key switching (paper: the *KeySwitch* module backing both Relinearize and
Rotate — the dominant HE operation, Table I OP5) is implemented in the
hybrid style: keys are generated over the extended modulus ``p * Q_l`` with a
special prime ``p``, and the switched result is divided by ``p``, keeping the
added noise at the error-sampler scale.

Because the RNS gadget constants ``D_i = (Q_l / q_i) * [(Q_l / q_i)^-1]_{q_i}``
depend on the ciphertext level ``l``, one :class:`KeySwitchKey` is generated
per level at which switching will occur.  With the paper's ``L = 7`` this is
a handful of small keys, mirroring how an FPGA deployment would preload
per-level key material into off-chip DRAM (Sec. VI-A: "KeySwitch keys ...
are also stored in off-chip memory").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modmath import batched_mod_add, batched_mod_mul
from .poly import RnsBasis, RnsPolynomial
from .sampling import (
    GALOIS, RELIN, SECRET, key_stream, sample_gaussian, sample_ternary,
    sample_uniform,
)

_U64 = np.uint64


def _signed_to_basis(signed: np.ndarray, basis: RnsBasis) -> RnsPolynomial:
    rows = np.empty((basis.level, basis.n), dtype=_U64)
    for i, q in enumerate(basis.primes):
        rows[i] = np.mod(signed, np.int64(q)).astype(_U64)
    return RnsPolynomial(basis, rows, is_ntt=False)


@dataclass(frozen=True)
class SecretKey:
    """Ternary secret, kept as signed coefficients for cheap basis lifts."""

    signed_coeffs: np.ndarray  # int64, shape (N,)

    def to_basis(self, basis: RnsBasis, ntt: bool = True) -> RnsPolynomial:
        poly = _signed_to_basis(self.signed_coeffs, basis)
        return poly.to_ntt() if ntt else poly


@dataclass(frozen=True)
class KeySwitchKey:
    """Per-level key-switching key toward secret ``s`` from target ``s'``.

    ``b[i] + a[i]*s = e_i + p * D_i * s'`` over the extended basis
    ``(q_1..q_l, p)``, stored once as the NTT-domain stack
    ``stacked_ba[0] = b`` and ``stacked_ba[1] = a``, shaped
    ``(2, level, ext_level, N)`` so one broadcast multiply per digit covers
    both key halves of the KeySwitch inner product.  The stack is held in
    32-bit words (every prime is below ``2**30``), whatever array built
    the key; products with it name ``uint64``.
    """

    level: int
    basis: RnsBasis  # extended basis including the special prime (last)
    stacked_ba: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "stacked_ba", self.stacked_ba.astype(np.uint32, copy=False)
        )

    @property
    def b(self) -> tuple[RnsPolynomial, ...]:
        """The ``b[i]`` halves, as views into :attr:`stacked_ba`."""
        return tuple(
            RnsPolynomial(self.basis, row, is_ntt=True)
            for row in self.stacked_ba[0]
        )

    @property
    def a(self) -> tuple[RnsPolynomial, ...]:
        """The ``a[i]`` halves, as views into :attr:`stacked_ba`."""
        return tuple(
            RnsPolynomial(self.basis, row, is_ntt=True)
            for row in self.stacked_ba[1]
        )


@dataclass
class GaloisKeys:
    """Key-switching keys for rotations, indexed by (step, level)."""

    keys: dict[tuple[int, int], KeySwitchKey] = field(default_factory=dict)

    def get(self, step: int, level: int) -> KeySwitchKey:
        try:
            return self.keys[(step, level)]
        except KeyError:
            raise KeyError(
                f"no Galois key for rotation step {step} at level {level}; "
                "generate it via KeyGenerator.generate_galois_keys"
            ) from None


class KeyGenerator:
    """Generates all key material for a :class:`~repro.fhe.context.CkksContext`.

    Parameters
    ----------
    chain_primes:
        The RNS modulus chain ``q_1 .. q_L`` (largest level first dropped last).
    special_prime:
        Hybrid key-switching prime ``p``.
    poly_degree:
        Ring degree ``N``.
    seed:
        Context seed; each key draws from its own :func:`key_stream`.
    error_std:
        Gaussian error standard deviation.
    """

    def __init__(
        self,
        chain_primes: tuple[int, ...],
        special_prime: int,
        poly_degree: int,
        seed: int,
        error_std: float = 3.2,
    ) -> None:
        self.chain_primes = chain_primes
        self.special_prime = special_prime
        self.n = poly_degree
        self.seed = seed
        self.error_std = error_std
        self.secret_key = SecretKey(
            signed_coeffs=sample_ternary(poly_degree, key_stream(seed, SECRET))
        )
        #: The NTT-form secret per extended level, transformed once for
        #: every key generated at that level.
        self._extended_secrets: dict[int, RnsPolynomial] = {}

    # -- bases ------------------------------------------------------------------

    def chain_basis(self, level: int) -> RnsBasis:
        return RnsBasis(self.n, self.chain_primes[:level])

    def extended_basis(self, level: int) -> RnsBasis:
        return RnsBasis(self.n, self.chain_primes[:level] + (self.special_prime,))

    # -- key switching ----------------------------------------------------------------

    def _generate_kswitch_key(
        self, target_signed: np.ndarray, level: int, rng: np.random.Generator
    ) -> KeySwitchKey:
        """Key that moves a component decryptable under ``target`` back to ``s``.

        ``target_signed`` are the signed coefficients of ``s'`` (e.g. ``s^2``
        for relinearization, ``s(X^g)`` for rotation); ``rng`` is the key's
        own stream.
        """
        ext = self.extended_basis(level)
        s = self._extended_secrets.get(level)
        if s is None:
            s = self._extended_secrets[level] = self.secret_key.to_basis(ext)
        s_prime = _signed_to_basis(target_signed, ext).to_ntt()
        p = self.special_prime
        stacked = np.empty((2, level, ext.level, ext.n), dtype=np.uint32)
        for i, q_i in enumerate(self.chain_primes[:level]):
            a_i = sample_uniform(ext, rng)
            e_i = sample_gaussian(ext, rng, self.error_std).to_ntt()
            stacked[0, i] = (-(a_i * s) + e_i).residues
            # ``p * D_i`` is ``p mod q_i`` modulo q_i and 0 modulo every
            # other prime of the extended basis: the gadget is one row.
            gadget = batched_mod_mul(s_prime.residues[i], p % q_i, q_i)
            stacked[0, i, i] = batched_mod_add(stacked[0, i, i], gadget, q_i)
            stacked[1, i] = a_i.residues
        return KeySwitchKey(level=level, basis=ext, stacked_ba=stacked)

    def generate_relin_keys(
        self, levels: list[int] | None = None
    ) -> dict[int, KeySwitchKey]:
        """Relinearization keys (target ``s^2``) for each requested level."""
        levels = levels if levels is not None else range(1, len(self.chain_primes) + 1)
        # Square the secret in a wide-enough basis: coefficients of s^2 are
        # bounded by N, far below any prime, so one prime suffices to lift.
        basis = self.chain_basis(1)
        s = self.secret_key.to_basis(basis)
        s_sq = (s * s).to_coefficient()
        q0 = basis.primes[0]
        row = s_sq.residues[0].astype(np.int64)
        signed = np.where(row > q0 // 2, row - q0, row)
        return {
            lvl: self._generate_kswitch_key(
                signed, lvl, key_stream(self.seed, RELIN, lvl)
            )
            for lvl in levels
        }

    def generate_galois_keys(
        self, pairs: list[tuple[int, int]]
    ) -> GaloisKeys:
        """Rotation keys for exactly the requested ``(step, level)`` pairs.

        ``step`` is a left-rotation amount in slots; the Galois element is
        ``5^step mod 2N``.
        """
        out = GaloisKeys()
        n = self.n
        rotated: dict[int, np.ndarray] = {}
        for step, lvl in pairs:
            g = pow(5, step % (n // 2), 2 * n)
            if g not in rotated:
                rotated[g] = _apply_galois_signed(
                    self.secret_key.signed_coeffs, g, n
                )
            out.keys[(step, lvl)] = self._generate_kswitch_key(
                rotated[g], lvl, key_stream(self.seed, GALOIS, g, lvl)
            )
        return out


def _apply_galois_signed(signed: np.ndarray, galois_element: int, n: int) -> np.ndarray:
    """``X -> X^g`` on a signed coefficient vector (exact, no modulus)."""
    idx = (np.arange(n, dtype=np.int64) * galois_element) % (2 * n)
    target = np.where(idx < n, idx, idx - n)
    sign = np.where(idx < n, 1, -1)
    out = np.zeros(n, dtype=np.int64)
    out[target] = signed * sign
    return out
