"""Tests for RNS polynomial arithmetic, rescale and Galois transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.modmath import generate_ntt_primes
from repro.fhe.poly import RnsBasis, RnsPolynomial

N = 64
PRIMES = tuple(generate_ntt_primes(24, 4, N))


def _basis(level: int = 4) -> RnsBasis:
    return RnsBasis(N, PRIMES[:level])


def _random_poly(basis: RnsBasis, seed: int, bound: int | None = None) -> RnsPolynomial:
    rng = np.random.default_rng(seed)
    bound = bound if bound is not None else min(basis.primes) // 2
    coeffs = rng.integers(-bound, bound, basis.n)
    return RnsPolynomial.from_coefficients(basis, coeffs.tolist())


# -- basis -----------------------------------------------------------------------


def test_basis_modulus_is_product():
    basis = _basis(3)
    expected = PRIMES[0] * PRIMES[1] * PRIMES[2]
    assert basis.modulus == expected


def test_basis_rejects_duplicates():
    with pytest.raises(ValueError):
        RnsBasis(N, (PRIMES[0], PRIMES[0]))


def test_basis_rejects_non_ntt_prime():
    with pytest.raises(ValueError):
        RnsBasis(N, (97,))  # 97 - 1 not divisible by 128


def test_basis_drop_and_prefix():
    basis = _basis(4)
    assert basis.drop_last().primes == PRIMES[:3]
    assert basis.prefix(2).primes == PRIMES[:2]
    with pytest.raises(ValueError):
        basis.prefix(5)
    with pytest.raises(ValueError):
        RnsBasis(N, PRIMES[:1]).drop_last()


# -- construction / reconstruction -------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_integer_coefficient_roundtrip(seed):
    basis = _basis(3)
    rng = np.random.default_rng(seed)
    half = basis.modulus // 2
    coeffs = [int(c) for c in rng.integers(-1000, 1000, basis.n)]
    poly = RnsPolynomial.from_coefficients(basis, coeffs)
    assert poly.to_integer_coefficients() == coeffs
    assert all(-half < c <= half for c in poly.to_integer_coefficients())


def test_large_coefficients_wrap_mod_q():
    basis = _basis(2)
    big_q = basis.modulus
    coeffs = [big_q + 5] + [0] * (basis.n - 1)
    poly = RnsPolynomial.from_coefficients(basis, coeffs)
    assert poly.to_integer_coefficients()[0] == 5


def test_shape_validation():
    basis = _basis(2)
    with pytest.raises(ValueError):
        RnsPolynomial(basis, np.zeros((3, N), dtype=np.uint64), False)
    with pytest.raises(ValueError):
        RnsPolynomial.from_coefficients(basis, [1, 2, 3])


# -- ring arithmetic -----------------------------------------------------------------


def test_add_sub_neg_match_integer_semantics():
    basis = _basis(3)
    a = _random_poly(basis, 1, bound=500)
    b = _random_poly(basis, 2, bound=500)
    ai = a.to_integer_coefficients()
    bi = b.to_integer_coefficients()
    assert (a + b).to_integer_coefficients() == [x + y for x, y in zip(ai, bi)]
    assert (a - b).to_integer_coefficients() == [x - y for x, y in zip(ai, bi)]
    assert (-a).to_integer_coefficients() == [-x for x in ai]


def test_multiply_requires_ntt_domain():
    basis = _basis(2)
    a = _random_poly(basis, 3)
    with pytest.raises(ValueError):
        _ = a * a


def test_multiply_matches_negacyclic_reference():
    basis = _basis(2)
    rng = np.random.default_rng(9)
    ai = [int(c) for c in rng.integers(-10, 10, basis.n)]
    bi = [int(c) for c in rng.integers(-10, 10, basis.n)]
    a = RnsPolynomial.from_coefficients(basis, ai)
    b = RnsPolynomial.from_coefficients(basis, bi)
    prod = (a.to_ntt() * b.to_ntt()).to_coefficient()
    # Schoolbook negacyclic convolution over the integers.
    expected = [0] * basis.n
    for i, x in enumerate(ai):
        for j, y in enumerate(bi):
            k = i + j
            if k >= basis.n:
                expected[k - basis.n] -= x * y
            else:
                expected[k] += x * y
    assert prod.to_integer_coefficients() == expected


def test_domain_mismatch_raises():
    basis = _basis(2)
    a = _random_poly(basis, 5)
    with pytest.raises(ValueError):
        _ = a + a.to_ntt()


def test_scalar_multiply():
    basis = _basis(2)
    a = _random_poly(basis, 6, bound=100)
    ai = a.to_integer_coefficients()
    assert a.scalar_multiply(7).to_integer_coefficients() == [7 * x for x in ai]


# -- rescale ---------------------------------------------------------------------------


def test_rescale_divides_by_last_prime():
    """Rescale(c) ~ round(c / q_last): error <= 1/2 + rounding slack."""
    basis = _basis(3)
    q_last = basis.primes[-1]
    rng = np.random.default_rng(11)
    coeffs = [int(c) * q_last + int(r) for c, r in zip(
        rng.integers(-1000, 1000, basis.n), rng.integers(-q_last // 2, q_last // 2, basis.n)
    )]
    poly = RnsPolynomial.from_coefficients(basis, coeffs)
    rescaled = poly.rescale()
    assert rescaled.basis.level == 2
    result = rescaled.to_integer_coefficients()
    for got, original in zip(result, coeffs):
        assert abs(got - original / q_last) <= 1.0


def test_rescale_exact_multiples():
    basis = _basis(2)
    q_last = basis.primes[-1]
    coeffs = [3 * q_last, -5 * q_last] + [0] * (basis.n - 2)
    poly = RnsPolynomial.from_coefficients(basis, coeffs)
    assert poly.rescale().to_integer_coefficients()[:2] == [3, -5]


def test_rescale_preserves_domain():
    basis = _basis(3)
    poly = _random_poly(basis, 13).to_ntt()
    assert poly.rescale().is_ntt
    assert not _random_poly(basis, 13).rescale().is_ntt


def test_rescale_level_one_raises():
    basis = _basis(1)
    with pytest.raises(ValueError):
        _random_poly(basis, 14).rescale()


# -- Galois ------------------------------------------------------------------------------


def test_galois_identity_element():
    basis = _basis(2)
    a = _random_poly(basis, 15)
    assert np.array_equal(a.galois_transform(1).residues, a.residues)


def test_galois_composition():
    """g1 then g2 == g1*g2 (automorphism group structure)."""
    basis = _basis(2)
    a = _random_poly(basis, 16)
    g1 = pow(5, 3, 2 * N)
    g2 = pow(5, 7, 2 * N)
    lhs = a.galois_transform(g1).galois_transform(g2)
    rhs = a.galois_transform(g1 * g2 % (2 * N))
    assert np.array_equal(lhs.residues, rhs.residues)


def test_galois_on_monomial():
    """X -> X^g maps X^1 to (+/-) X^(g mod N) with negacyclic sign."""
    basis = _basis(1)
    coeffs = [0, 1] + [0] * (basis.n - 2)
    a = RnsPolynomial.from_coefficients(basis, coeffs)
    g = 5
    out = a.galois_transform(g).to_integer_coefficients()
    expected = [0] * basis.n
    expected[5] = 1
    assert out == expected


def test_galois_rejects_even_element():
    basis = _basis(1)
    with pytest.raises(ValueError):
        _random_poly(basis, 17).galois_transform(2)


def test_drop_to_basis():
    basis = _basis(4)
    a = _random_poly(basis, 18)
    dropped = a.drop_to_basis(_basis(2))
    assert dropped.basis.level == 2
    assert np.array_equal(dropped.residues, a.residues[:2])
    with pytest.raises(ValueError):
        a.drop_to_basis(RnsBasis(N, (PRIMES[1],)))


# -- residues at rest ------------------------------------------------------------


def test_uint32_residues_are_held_as_given():
    """Residues at rest (keys, cached plaintexts) stay 32-bit words without
    a copy; any other integer array is held as uint64."""
    basis = _basis(2)
    rows = np.ones((2, N), dtype=np.uint32)
    assert RnsPolynomial(basis, rows, is_ntt=True).residues is rows
    wide = RnsPolynomial(basis, rows.astype(np.int64), is_ntt=True)
    assert wide.residues.dtype == np.uint64


@pytest.mark.parametrize("bits", [28, 30])
def test_no_residue_product_wraps_in_32_bits(bits):
    """Products of uint32 operands at ``q - 1`` equal Python-int arithmetic
    in every product path: ``(q - 1)**2`` passes ``2**32``, so a multiply
    run in the operands' own word wraps, whatever the dtype of its ``out``.
    The product sum runs past its uint64 budget, so its mid-sum fold runs
    too."""
    from repro.fhe import kernels
    from repro.fhe.ops import _U64_MAX, _product_sum

    q = generate_ntt_primes(bits, 1, N)[0]
    basis = RnsBasis(N, (q,))
    top = np.full((1, N), q - 1, dtype=np.uint32)
    other = top.copy()
    other[0, N // 2:] = np.random.default_rng(bits).integers(0, q, N // 2)

    def expected(terms: int = 1) -> list[int]:
        return [terms * (q - 1) * int(b) % q for b in other[0]]

    terms = _U64_MAX // (q - 1) ** 2 + 2
    total = _product_sum([(top, other)] * terms, basis.ntt())
    assert total[0].tolist() == expected(terms)
    assert total.dtype == np.uint64
    for name in kernels.available_backends():
        product = kernels.get_backend(name).modmul(N, (q,), top, other)
        assert product[0].tolist() == expected(), name
        assert product.dtype == np.uint64
    poly = RnsPolynomial(basis, top, True) * RnsPolynomial(basis, other, True)
    assert poly.residues[0].tolist() == expected()
    assert poly.residues.dtype == np.uint64
