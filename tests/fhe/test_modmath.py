"""Unit and property tests for the modular arithmetic kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.modmath import (
    MAX_MODULUS_BITS,
    BarrettConstant,
    ModulusError,
    barrett_reduce,
    batched_mod_neg,
    find_primitive_root,
    find_root_of_unity,
    generate_ntt_primes,
    is_prime,
    mod_add,
    mod_inverse,
    mod_mul,
    mod_sub,
)

MODULI = st.integers(min_value=3, max_value=(1 << MAX_MODULUS_BITS) - 1)


# -- Barrett reduction --------------------------------------------------------


@given(q=MODULI, data=st.data())
@settings(max_examples=200)
def test_barrett_scalar_matches_mod(q, data):
    bc = BarrettConstant.for_modulus(q)
    x = data.draw(st.integers(min_value=0, max_value=(1 << (2 * bc.k)) - 1))
    assert barrett_reduce(x, bc) == x % q


@given(q=MODULI, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_barrett_vector_matches_mod(q, seed):
    bc = BarrettConstant.for_modulus(q)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, 64, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, q, 64, dtype=np.int64).astype(np.uint64)
    prod = a * b
    expected = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(barrett_reduce(prod, bc).astype(object), expected)


def test_barrett_rejects_out_of_range_modulus():
    with pytest.raises(ModulusError):
        BarrettConstant.for_modulus(1 << MAX_MODULUS_BITS)
    with pytest.raises(ModulusError):
        BarrettConstant.for_modulus(2)


# -- vector ops ---------------------------------------------------------------


@given(q=MODULI, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_mod_add_sub_neg(q, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, 32, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, q, 32, dtype=np.int64).astype(np.uint64)
    assert np.array_equal(mod_add(a, b, q), (a.astype(object) + b) % q)
    assert np.array_equal(mod_sub(a, b, q), (a.astype(object) - b) % q)
    assert np.array_equal(
        batched_mod_neg(a, np.uint64(q)), (-a.astype(object)) % q
    )


@given(q=MODULI, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_mod_mul(q, seed):
    bc = BarrettConstant.for_modulus(q)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, 32, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, q, 32, dtype=np.int64).astype(np.uint64)
    assert np.array_equal(mod_mul(a, b, bc), (a.astype(object) * b) % q)


def test_mod_inverse():
    q = generate_ntt_primes(28, 1, 64)[0]
    for a in (1, 2, 12345, q - 1):
        assert a * mod_inverse(a, q) % q == 1
    with pytest.raises(ZeroDivisionError):
        mod_inverse(0, q)


# -- primality / prime generation ------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False), (1, False), (2, True), (3, True), (4, False),
        (97, True), (561, False),  # Carmichael number
        (7919, True), (1 << 29, False), ((1 << 29) - 3, True),
        ((1 << 29) - 1, False),  # 536870911 = 233 * 1103 * 2089
    ],
)
def test_is_prime_known_values(n, expected):
    assert is_prime(n) is expected


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2, 2000):
        assert is_prime(n) == trial(n), n


@pytest.mark.parametrize("bits,count,n", [(20, 3, 64), (28, 5, 512), (30, 8, 8192)])
def test_generate_ntt_primes(bits, count, n):
    primes = generate_ntt_primes(bits, count, n)
    assert len(primes) == count
    assert len(set(primes)) == count
    for q in primes:
        assert q.bit_length() == bits
        assert (q - 1) % (2 * n) == 0
        assert is_prime(q)
    # Largest-first ordering.
    assert primes == sorted(primes, reverse=True)


def test_generate_ntt_primes_rejects_wide_words():
    with pytest.raises(ModulusError):
        generate_ntt_primes(36, 1, 1024)


def test_generate_ntt_primes_rejects_bad_degree():
    with pytest.raises(ValueError):
        generate_ntt_primes(28, 1, 100)


# -- roots of unity ----------------------------------------------------------------


def test_primitive_root_generates_group():
    q = 257
    g = find_primitive_root(q)
    seen = {pow(g, k, q) for k in range(q - 1)}
    assert len(seen) == q - 1


def test_find_root_of_unity_properties():
    n = 128
    q = generate_ntt_primes(24, 1, n)[0]
    root = find_root_of_unity(2 * n, q)
    assert pow(root, 2 * n, q) == 1
    assert pow(root, n, q) == q - 1  # primitive: psi^N = -1


def test_find_root_of_unity_requires_divisibility():
    with pytest.raises(ModulusError):
        find_root_of_unity(64, 97)  # 64 does not divide 96
