"""CKKS parameter sets and security estimation.

The paper (Sec. VII-A, "HE Parameters selection") fixes ``L = 7`` to support
the multiplication depth of the two 5-layer networks and selects:

* FxHENN-MNIST:   ``N = 8192``,  30-bit primes, ``log2 Q = 210`` → 128-bit
* FxHENN-CIFAR10: ``N = 16384``, 36-bit primes, ``log2 Q = 252`` → 192-bit

Security follows the homomorphicencryption.org standard tables [Albrecht17];
:func:`security_bits` reproduces the classical-hardness lookup used to make
the paper's 128/192-bit claims.

The functional FHE fast path supports word sizes up to 30 bits (see
``repro.fhe.modmath``).  Parameter sets with wider words (the CIFAR-10
preset) are fully usable by the *performance model* — which only consumes
``poly_degree``, ``level`` and ``prime_bits`` — and expose
:meth:`CkksParameters.functional_variant` to obtain an arithmetic-compatible
30-bit sibling for ground-truth encrypted execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .modmath import MAX_MODULUS_BITS, generate_ntt_primes

# Maximum log2(Q) for classical security at (128, 192, 256) bits, per the
# HE standard (Albrecht et al.), ternary secret distribution.
_SECURITY_TABLE: dict[int, tuple[int, int, int]] = {
    1024: (27, 19, 14),
    2048: (54, 37, 29),
    4096: (109, 75, 58),
    8192: (218, 152, 118),
    16384: (438, 305, 237),
    32768: (881, 611, 476),
}

_SECURITY_LEVELS = (128, 192, 256)


def max_coeff_modulus_bits(poly_degree: int, security: int = 128) -> int:
    """Largest permitted ``log2 Q`` for the given ring degree and security."""
    if security not in _SECURITY_LEVELS:
        raise ValueError(f"security must be one of {_SECURITY_LEVELS}")
    if poly_degree not in _SECURITY_TABLE:
        raise ValueError(f"no standard entry for N={poly_degree}")
    return _SECURITY_TABLE[poly_degree][_SECURITY_LEVELS.index(security)]


def security_bits(poly_degree: int, coeff_modulus_bits: int) -> int:
    """Highest standard security level met by ``(N, log2 Q)``, or 0 if none."""
    if poly_degree not in _SECURITY_TABLE:
        raise ValueError(f"no standard entry for N={poly_degree}")
    achieved = 0
    for level, budget in zip(_SECURITY_LEVELS, _SECURITY_TABLE[poly_degree]):
        if coeff_modulus_bits <= budget:
            achieved = max(achieved, level)
    return achieved


@dataclass(frozen=True)
class CkksParameters:
    """An RNS-CKKS parameter set.

    Attributes
    ----------
    poly_degree:
        Ring degree ``N`` (power of two).  Slot count is ``N // 2``.
    prime_bits:
        Word size of each RNS prime ``q_i``.
    level:
        ``L``, the number of RNS primes in the ciphertext modulus chain.
    scale_bits:
        ``log2`` of the CKKS encoding scale Δ; normally equal to
        ``prime_bits`` so Rescale keeps the scale stationary.
    special_prime_bits:
        Word size of the key-switching special prime ``p`` (hybrid
        key-switching raises to ``p * Q`` and divides by ``p``).
    error_std:
        Standard deviation of the discrete Gaussian error sampler.
    """

    poly_degree: int
    prime_bits: int
    level: int
    scale_bits: int | None = None
    special_prime_bits: int | None = None
    error_std: float = 3.2

    def __post_init__(self) -> None:
        if self.poly_degree < 8 or self.poly_degree & (self.poly_degree - 1):
            raise ValueError("poly_degree must be a power of two >= 8")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.scale_bits is None:
            object.__setattr__(self, "scale_bits", self.prime_bits)
        if self.special_prime_bits is None:
            object.__setattr__(self, "special_prime_bits", self.prime_bits)

    @property
    def slot_count(self) -> int:
        return self.poly_degree // 2

    @property
    def coeff_modulus_bits(self) -> int:
        """``log2 Q`` of the full ciphertext modulus chain."""
        return self.prime_bits * self.level

    @property
    def scale(self) -> float:
        return float(2 ** self.scale_bits)

    @property
    def is_functional(self) -> bool:
        """Whether the word size fits the exact-arithmetic fast path."""
        return (
            self.prime_bits <= MAX_MODULUS_BITS
            and self.special_prime_bits <= MAX_MODULUS_BITS
        )

    def functional_variant(self, prime_bits: int = 30) -> "CkksParameters":
        """A sibling parameter set with words narrowed for exact execution.

        Documented substitution (DESIGN.md): the CIFAR-10 preset's 36-bit
        words exceed the numpy-uint64 product bound; narrowing the words
        changes only arithmetic precision, not the HE-operation trace or
        any quantity consumed by the performance model.
        """
        return replace(
            self, prime_bits=prime_bits, scale_bits=prime_bits,
            special_prime_bits=prime_bits,
        )

    def security_level(self) -> int:
        """Standard security (bits) including the key-switching prime.

        Key-switching keys live modulo ``Q * P``, so the largest modulus in
        use, which the standard's table bounds, counts ``P`` too.
        """
        return security_bits(
            self.poly_degree, self.coeff_modulus_bits + self.special_prime_bits
        )

    def security_summary(self) -> dict[str, int | None]:
        """``log_q``, ``log_qp`` and ``security_level``: the latter is
        :meth:`security_level`, or None where the standard's table gives
        no level or has no entry for ``N``."""
        log_qp = self.coeff_modulus_bits + self.special_prime_bits
        level = None
        if self.poly_degree in _SECURITY_TABLE:
            level = self.security_level() or None
        return {
            "log_q": self.coeff_modulus_bits,
            "log_qp": log_qp,
            "security_level": level,
        }


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def fxhenn_mnist_params() -> CkksParameters:
    """Paper FxHENN-MNIST parameters: N=8192, 30-bit q_i, L=7 (Q: 210 bits)."""
    return CkksParameters(poly_degree=8192, prime_bits=30, level=7)


def fxhenn_cifar10_params() -> CkksParameters:
    """Paper FxHENN-CIFAR10 parameters: N=16384, 36-bit q_i, L=7 (Q: 252 bits).

    Model-only word size; use :meth:`CkksParameters.functional_variant` for
    encrypted execution (see DESIGN.md substitutions).
    """
    return CkksParameters(poly_degree=16384, prime_bits=36, level=7)


def tiny_test_params(poly_degree: int = 512, level: int = 4) -> CkksParameters:
    """Small parameters for fast unit tests (not secure; test-only).

    The scale is set two bits below the prime width so that messages up to
    magnitude ~4 survive at the lowest level (the chain's final prime must
    still exceed ``scale * |message|``).
    """
    return CkksParameters(
        poly_degree=poly_degree, prime_bits=28, level=level, scale_bits=26
    )


@lru_cache(maxsize=None)
def _prime_chain_cached(
    poly_degree: int, prime_bits: int, level: int, special_prime_bits: int
) -> tuple[tuple[int, ...], int]:
    # The special prime must differ from the chain primes; generate one extra
    # prime at the special width and take the first not already used.
    chain = generate_ntt_primes(prime_bits, level, poly_degree)
    extras = generate_ntt_primes(special_prime_bits, level + 1, poly_degree)
    special = next(p for p in extras if p not in chain)
    return tuple(chain), special


def build_prime_chain(params: CkksParameters) -> tuple[tuple[int, ...], int]:
    """Return ``(chain_primes, special_prime)`` for a functional parameter set."""
    if not params.is_functional:
        raise ValueError(
            f"{params.prime_bits}-bit words exceed the functional fast path; "
            "call .functional_variant() first (performance modeling does not "
            "require functional primes)"
        )
    return _prime_chain_cached(
        params.poly_degree, params.prime_bits, params.level,
        params.special_prime_bits,
    )
