"""Plaintext and ciphertext value types for RNS-CKKS."""

from __future__ import annotations

from dataclasses import dataclass

from .poly import RnsBasis, RnsPolynomial


@dataclass(frozen=True)
class Plaintext:
    """An encoded (unencrypted) message: one RNS polynomial plus its scale."""

    poly: RnsPolynomial
    scale: float

    @property
    def level(self) -> int:
        return self.poly.basis.level

    @property
    def basis(self) -> RnsBasis:
        return self.poly.basis


@dataclass(frozen=True)
class Ciphertext:
    """An RLWE ciphertext: 2 (or 3, pre-relinearization) polynomial components.

    Decryption evaluates ``sum_k components[k] * s^k`` and decodes at
    ``scale``.  The ciphertext level is the RNS basis level of its
    components; Rescale lowers it by one.
    """

    components: tuple[RnsPolynomial, ...]
    scale: float

    def __post_init__(self) -> None:
        if not 2 <= len(self.components) <= 3:
            raise ValueError("ciphertext must have 2 or 3 components")
        basis = self.components[0].basis
        for c in self.components[1:]:
            if c.basis != basis:
                raise ValueError("ciphertext components must share one basis")

    @property
    def level(self) -> int:
        return self.components[0].basis.level

    @property
    def basis(self) -> RnsBasis:
        return self.components[0].basis

    @property
    def size(self) -> int:
        return len(self.components)

    @property
    def lineage_id(self) -> str | None:
        """Provenance ID attached by :mod:`repro.obs.lineage`.

        ``None`` unless an active :class:`~repro.obs.lineage
        .LineageTracker` has seen this ciphertext.  Stored as a side-band
        attribute so untracked ciphertexts pay nothing and equality/
        hashing of the frozen dataclass are unaffected.
        """
        return getattr(self, "_lineage_id", None)

    @property
    def is_linear(self) -> bool:
        """True when the ciphertext has two components (no pending relin)."""
        return len(self.components) == 2
