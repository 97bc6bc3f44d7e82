"""CKKS encoder: canonical-embedding batching of complex/real vectors.

Batching (paper Sec. II-A) packs up to ``N/2`` message values into the
"slots" of a single plaintext polynomial so every HE operation acts SIMD-wise
on all slots, and Rotate cyclically moves values between slots.

The encoder uses the canonical embedding: a slot vector ``z`` of length
``N/2`` is placed (with conjugate symmetry) at the odd powers of the
primitive 2N-th complex root of unity, ordered along the orbit of 5 modulo
2N so that the Galois automorphism ``X -> X^(5^r)`` realizes a cyclic slot
rotation by ``r``.  Both directions are O(N log N) via an FFT with a twist.
"""

from __future__ import annotations

import numpy as np

from .poly import RnsBasis, RnsPolynomial


class CkksEncoder:
    """Encode/decode between complex slot vectors and RNS plaintexts.

    Parameters
    ----------
    poly_degree:
        Ring degree ``N``; the encoder exposes ``N // 2`` slots.
    """

    def __init__(self, poly_degree: int) -> None:
        if poly_degree < 8 or poly_degree & (poly_degree - 1):
            raise ValueError("poly_degree must be a power of two >= 8")
        self.n = poly_degree
        self.slot_count = poly_degree // 2
        n = poly_degree
        # Orbit of 5 mod 2N: slot j sits at root exponent 5^j mod 2N.
        exps = np.empty(self.slot_count, dtype=np.int64)
        acc = 1
        for j in range(self.slot_count):
            exps[j] = acc
            acc = acc * 5 % (2 * n)
        #: FFT bin index l such that root exponent = 2l + 1.
        self._slot_to_bin = (exps - 1) // 2
        # zeta = exp(i*pi/N), the primitive 2N-th root used by the twist.
        j = np.arange(n)
        self._twist = np.exp(1j * np.pi * j / n)
        self._untwist = np.conj(self._twist)

    # -- slot-vector <-> real coefficient vector --------------------------------

    def _embed(self, slots: np.ndarray) -> np.ndarray:
        """Inverse canonical embedding: slots -> real polynomial coefficients."""
        u = np.zeros(self.n, dtype=np.complex128)
        u[self._slot_to_bin] = slots
        u[self.n - 1 - self._slot_to_bin] = np.conj(slots)
        coeffs = np.fft.fft(u) / self.n * self._untwist
        return coeffs.real

    def _evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Canonical embedding: real coefficients -> slot values."""
        u = self.n * np.fft.ifft(coeffs * self._twist)
        return u[self._slot_to_bin]

    # -- public API ---------------------------------------------------------------

    def encode(
        self, values: np.ndarray, scale: float, basis: RnsBasis
    ) -> RnsPolynomial:
        """Encode a slot vector at the given scale into an RNS plaintext.

        ``values`` may be shorter than the slot count (zero-padded) and may be
        real or complex.  The result is in the coefficient domain.
        """
        if basis.n != self.n:
            raise ValueError("basis ring degree does not match encoder")
        vec = np.asarray(values, dtype=np.complex128).ravel()
        if vec.size > self.slot_count:
            raise ValueError(
                f"{vec.size} values exceed {self.slot_count} slots"
            )
        slots = np.zeros(self.slot_count, dtype=np.complex128)
        slots[: vec.size] = vec
        real_coeffs = self._embed(slots) * scale
        if np.max(np.abs(real_coeffs)) >= 2**62:
            raise OverflowError("scaled message too large for exact rounding")
        return RnsPolynomial.from_signed(
            basis, np.rint(real_coeffs).astype(np.int64)
        )

    def decode(self, plaintext: RnsPolynomial, scale: float) -> np.ndarray:
        """Decode an RNS plaintext back to its complex slot vector."""
        if plaintext.basis.n != self.n:
            raise ValueError("plaintext ring degree does not match encoder")
        coeffs = np.array(
            plaintext.to_integer_coefficients(), dtype=np.float64
        )
        return self._evaluate(coeffs / scale)

    def decode_real(self, plaintext: RnsPolynomial, scale: float) -> np.ndarray:
        """Decode and return the real parts of the slots."""
        return self.decode(plaintext, scale).real
