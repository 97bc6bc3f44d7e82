"""Tests for the negacyclic NTT: roundtrips, convolution theorem, batching."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.modmath import generate_ntt_primes
from repro.fhe.ntt import (
    NttContext,
    bit_reverse_indices,
    get_ntt_context,
    negacyclic_convolution_reference,
)


def _context(n: int, bits: int = 24) -> NttContext:
    q = generate_ntt_primes(bits, 1, n)[0]
    return NttContext(n, q)


# -- bit reversal -------------------------------------------------------------


def test_bit_reverse_is_involution():
    for n in (2, 8, 64, 1024):
        rev = bit_reverse_indices(n)
        assert np.array_equal(rev[rev], np.arange(n))


def test_bit_reverse_known_order():
    assert bit_reverse_indices(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


def test_bit_reverse_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        bit_reverse_indices(12)


# -- transform roundtrips -------------------------------------------------------


@pytest.mark.parametrize("n", [8, 16, 128, 1024])
def test_roundtrip(n):
    ctx = _context(n)
    rng = np.random.default_rng(1)
    a = rng.integers(0, ctx.q, n, dtype=np.int64).astype(np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)
    assert np.array_equal(ctx.forward(ctx.inverse(a)), a)


def test_roundtrip_batched():
    ctx = _context(64)
    rng = np.random.default_rng(2)
    a = rng.integers(0, ctx.q, (3, 5, 64), dtype=np.int64).astype(np.uint64)
    back = ctx.inverse(ctx.forward(a))
    assert back.shape == a.shape
    assert np.array_equal(back, a)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(seed):
    ctx = get_ntt_context(128, generate_ntt_primes(24, 1, 128)[0])
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ctx.q, 128, dtype=np.int64).astype(np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)


# -- algebraic structure -----------------------------------------------------------


def test_forward_is_linear():
    ctx = _context(64)
    rng = np.random.default_rng(3)
    a = rng.integers(0, ctx.q, 64, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, ctx.q, 64, dtype=np.int64).astype(np.uint64)
    lhs = ctx.forward((a + b) % np.uint64(ctx.q))
    rhs = (ctx.forward(a) + ctx.forward(b)) % np.uint64(ctx.q)
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("n", [8, 32])
def test_convolution_theorem(n):
    """Pointwise NTT product == schoolbook negacyclic convolution."""
    ctx = _context(n)
    rng = np.random.default_rng(4)
    a = rng.integers(0, ctx.q, n, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, ctx.q, n, dtype=np.int64).astype(np.uint64)
    assert np.array_equal(
        ctx.negacyclic_multiply(a, b), negacyclic_convolution_reference(a, b, ctx.q)
    )


def test_negacyclic_wraparound_sign():
    """X^(N-1) * X == -1 in Z_q[X]/(X^N + 1)."""
    n = 16
    ctx = _context(n)
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    a[n - 1] = 1
    b[1] = 1
    prod = ctx.negacyclic_multiply(a, b)
    expected = np.zeros(n, dtype=np.uint64)
    expected[0] = ctx.q - 1
    assert np.array_equal(prod, expected)


def test_constant_polynomial_transform():
    """NTT of a constant is that constant in every evaluation point."""
    n = 32
    ctx = _context(n)
    a = np.zeros(n, dtype=np.uint64)
    a[0] = 7
    assert np.array_equal(ctx.forward(a), np.full(n, 7, dtype=np.uint64))


def test_forward_rejects_wrong_length():
    ctx = _context(16)
    with pytest.raises(ValueError):
        ctx.forward(np.zeros(8, dtype=np.uint64))


def test_context_cache_returns_same_object():
    q = generate_ntt_primes(24, 1, 64)[0]
    assert get_ntt_context(64, q) is get_ntt_context(64, q)


def test_galois_permutations_are_shared_by_every_chain_of_one_degree():
    from repro.fhe.ntt import clear_caches, get_batched_ntt_context, registry_info

    a = get_batched_ntt_context(64, tuple(generate_ntt_primes(24, 2, 64)))
    b = get_batched_ntt_context(64, tuple(generate_ntt_primes(28, 3, 64)))
    g = pow(5, 3, 128)
    assert a.galois_permutation(g) is b.galois_permutation(g)
    assert (64, g) in registry_info()["galois"]
    clear_caches()
    assert registry_info()["galois"] == []


def test_registry_is_inspectable_and_clearable():
    from repro.fhe.ntt import (
        clear_caches,
        get_batched_ntt_context,
        registry_info,
    )

    q = generate_ntt_primes(24, 1, 64)[0]
    primes = tuple(generate_ntt_primes(24, 2, 64))
    get_ntt_context(64, q)
    batched = get_batched_ntt_context(64, primes)
    info = registry_info()
    assert (64, q) in info["ntt"]
    assert (64, primes) in info["batched"]
    assert get_batched_ntt_context(64, primes) is batched
    clear_caches()
    info = registry_info()
    assert info["ntt"] == [] and info["batched"] == []
    # Repopulates transparently after a clear.
    assert get_ntt_context(64, q) is get_ntt_context(64, q)


def test_declared_chain_contexts_view_the_chain_tiles(monkeypatch):
    """A contiguous run of a declared chain views the chain's moduli tile,
    ``qs_full_i64`` views ``qs_full``, and each ``(q_1 .. q_l, P)``
    context's ModDown inverses are the first ``l`` rows of the chain's;
    every value equals that of a context built on its own."""
    from repro.fhe import ntt

    n = 64
    chain = tuple(generate_ntt_primes(24, 5, n))
    monkeypatch.setattr(ntt, "_CHAINS", {})
    monkeypatch.setattr(ntt, "_BATCHED_REGISTRY", {})
    ntt.declare_chain(n, chain)
    full = ntt.get_batched_ntt_context(n, chain)
    moddown = chain[:2] + chain[-1:]
    for primes in (chain[:3], chain[1:2], chain[-1:], moddown):
        ctx = ntt.get_batched_ntt_context(n, primes)
        own = ntt.BatchedNttContext(n, primes)
        assert np.array_equal(ctx.qs_full, own.qs_full)
        assert np.array_equal(ctx.qs_full_i64, own.qs_full_i64)
        assert np.shares_memory(ctx.qs_full_i64, ctx.qs_full)
        assert np.shares_memory(ctx.qs_full, full.qs_full) == (primes != moddown)
        if len(primes) > 1:
            for got, want, tile in zip(
                ctx.rescale_inverses_tiled(),
                own.rescale_inverses_tiled(),
                full.rescale_inverses_tiled(),
            ):
                assert np.array_equal(got, want)
                assert np.shares_memory(got, tile) == (primes == moddown)
