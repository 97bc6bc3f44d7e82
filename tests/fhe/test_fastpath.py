"""Property tests: the production ring paths are bit-identical to their oracles.

The production paths (stacked NTT through the active kernel backend,
NTT-domain Galois, NTT-resident Rescale, vectorized KeySwitch, plaintext
caching) are pinned, bit for bit, to the per-prime transforms, to the
coefficient-domain ring operations, to a per-digit KeySwitch written out
below and to the schoolbook negacyclic convolution.  No tolerances
anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksContext, Evaluator, fastpath, kernels, ops, tiny_test_params
from repro.fhe.modmath import generate_ntt_primes
from repro.fhe.ntt import get_ntt_context, negacyclic_convolution_reference
from repro.fhe.poly import RnsBasis, RnsPolynomial, rescale_polys


def _primes(n: int, count: int = 3, bits: int = 24) -> tuple[int, ...]:
    return tuple(generate_ntt_primes(bits, count, n))


def _random_rows(rng, primes, n):
    return np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )


# -- stacked NTT vs per-row reference --------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_forward_matches_per_row(seed):
    n = 64
    primes = _primes(n)
    rows = _random_rows(np.random.default_rng(seed), primes, n)
    got = kernels.active_backend().forward(n, primes, rows)
    expected = np.stack(
        [get_ntt_context(n, q).forward(rows[i]) for i, q in enumerate(primes)]
    )
    assert np.array_equal(got, expected)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_inverse_matches_per_row(seed):
    n = 64
    primes = _primes(n)
    rows = _random_rows(np.random.default_rng(seed), primes, n)
    got = kernels.active_backend().inverse(n, primes, rows)
    expected = np.stack(
        [get_ntt_context(n, q).inverse(rows[i]) for i, q in enumerate(primes)]
    )
    assert np.array_equal(got, expected)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_batched_roundtrip_3d(seed):
    """(B, L, N) stacks transform per matrix exactly like (L, N) slices."""
    n = 32
    primes = _primes(n)
    backend = kernels.active_backend()
    rng = np.random.default_rng(seed)
    stack = np.stack([_random_rows(rng, primes, n) for _ in range(4)])
    fwd = backend.forward(n, primes, stack)
    for b in range(4):
        assert np.array_equal(fwd[b], backend.forward(n, primes, stack[b]))
    assert np.array_equal(backend.inverse(n, primes, fwd), stack)


@pytest.mark.parametrize("n", [16, 256, 2048])
def test_batched_matches_per_row_across_sizes(n):
    primes = _primes(n, count=4, bits=28)
    backend = kernels.active_backend()
    rows = _random_rows(np.random.default_rng(n), primes, n)
    got = backend.forward(n, primes, rows)
    expected = np.stack(
        [get_ntt_context(n, q).forward(rows[i]) for i, q in enumerate(primes)]
    )
    assert np.array_equal(got, expected)
    assert np.array_equal(backend.inverse(n, primes, got), rows)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_batched_product_matches_convolution_reference(seed):
    """Forward -> pointwise -> inverse equals the schoolbook negacyclic
    convolution on every RNS row."""
    n = 16
    primes = _primes(n)
    basis = RnsBasis(n, primes)
    rng = np.random.default_rng(seed)
    a_rows = _random_rows(rng, primes, n)
    b_rows = _random_rows(rng, primes, n)
    a = RnsPolynomial(basis, a_rows, is_ntt=False)
    b = RnsPolynomial(basis, b_rows, is_ntt=False)
    prod = (a.to_ntt() * b.to_ntt()).to_coefficient()
    for i, q in enumerate(primes):
        ref = negacyclic_convolution_reference(a_rows[i], b_rows[i], q)
        assert np.array_equal(prod.residues[i], ref.astype(np.uint64))


# -- NTT-domain Galois vs coefficient-domain automorphism -------------------------


def _galois_matches_coefficient_path(n, seed, g):
    primes = _primes(n)
    rows = _random_rows(np.random.default_rng(seed), primes, n)
    poly = RnsPolynomial(RnsBasis(n, primes), rows, is_ntt=False).to_ntt()
    fast = poly.galois_transform(g)
    oracle = poly.to_coefficient().galois_transform(g).to_ntt()
    assert fast.is_ntt
    assert np.array_equal(fast.residues, oracle.residues)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    step=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=20, deadline=None)
def test_ntt_domain_galois_matches_coefficient_path(seed, step):
    _galois_matches_coefficient_path(64, seed, pow(5, step, 128))


def test_conjugation_galois_matches():
    _galois_matches_coefficient_path(32, 9, 2 * 32 - 1)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_ntt_rescale_matches_coefficient_rescale_poly(seed):
    """The NTT-resident rescale of stacked components equals the
    coefficient-domain rescale of each, round-tripped."""
    n = 64
    primes = _primes(n, count=4)
    basis = RnsBasis(n, primes)
    rng = np.random.default_rng(seed)
    polys = tuple(
        RnsPolynomial(basis, _random_rows(rng, primes, n), is_ntt=True)
        for _ in range(2)
    )
    for fast, poly in zip(rescale_polys(polys), polys):
        oracle = poly.to_coefficient().rescale().to_ntt()
        assert np.array_equal(fast.residues, oracle.residues)


# -- evaluator-level fast paths ---------------------------------------------------


@pytest.fixture(scope="module")
def ctx():
    context = CkksContext(tiny_test_params(poly_degree=256, level=5), seed=7)
    context.ensure_relin_keys()
    context.ensure_galois_keys([1, 2])
    return context


@pytest.fixture(scope="module")
def ct(ctx):
    rng = np.random.default_rng(11)
    return ctx.encrypt_values(rng.uniform(-1, 1, ctx.slot_count))


def _residues(ciphertext):
    return [c.to_ntt().residues.copy() for c in ciphertext.components]


def _per_digit_key_switch(component, key):
    """KeySwitch oracle: lift and transform one decomposition digit at a
    time, accumulate with modular ring ops, then rescale by the special
    prime."""
    basis, ext = component.basis, key.basis
    d = component.to_coefficient()
    acc0 = RnsPolynomial.zero(ext, is_ntt=True)
    acc1 = RnsPolynomial.zero(ext, is_ntt=True)
    for i, q_i in enumerate(basis.primes):
        row = d.residues[i].astype(np.int64)
        signed = np.where(row > q_i // 2, row - q_i, row)
        rows = np.stack(
            [np.mod(signed, np.int64(q_j)).astype(np.uint64) for q_j in ext.primes]
        )
        lifted = RnsPolynomial(ext, rows, is_ntt=False).to_ntt()
        acc0 = acc0 + lifted * key.b[i]
        acc1 = acc1 + lifted * key.a[i]
    return tuple(p.to_coefficient().rescale().to_ntt() for p in (acc0, acc1))


@pytest.mark.parametrize("step", [1, 2])
def test_keyswitch_matches_per_digit_oracle(ctx, ct, step, monkeypatch):
    ev = Evaluator(ctx)
    fast = ev.rotate(ct, step)
    monkeypatch.setattr(ops, "_key_switch", _per_digit_key_switch)
    slow = ev.rotate(ct, step)
    for f, s in zip(_residues(fast), _residues(slow)):
        assert np.array_equal(f, s)


def test_relinearize_matches_legacy(ctx, ct, monkeypatch):
    ev = Evaluator(ctx)
    sq = ev.square(ct)
    fast = ev.relinearize(sq)
    monkeypatch.setattr(ops, "_key_switch", _per_digit_key_switch)
    slow = ev.relinearize(sq)
    for f, s in zip(_residues(fast), _residues(slow)):
        assert np.array_equal(f, s)


def test_fastpath_rescale_matches_coefficient_rescale(ctx, ct):
    ev = Evaluator(ctx)
    prod = ev.multiply_plain(ct, ctx.encode(np.ones(ctx.slot_count)))
    fast = ev.rescale(prod)
    oracle = [
        c.to_coefficient().rescale().to_ntt().residues for c in prod.components
    ]
    for f, s in zip(_residues(fast), oracle):
        assert np.array_equal(f, s)


def test_encode_cached_returns_identical_plaintext(ctx):
    ev = Evaluator(ctx)
    values = np.linspace(-1, 1, ctx.slot_count)
    ctx.clear_plaintext_cache()
    calls = []

    def supplier():
        calls.append(1)
        return values

    first = ev.encode_cached(supplier, level=3, scale=ctx.scale, cache_key="k")
    second = ev.encode_cached(supplier, level=3, scale=ctx.scale, cache_key="k")
    assert second is first  # memoized on the context
    assert len(calls) == 1  # supplier only evaluated on the miss
    plain = ctx.encode(values, level=3, scale=ctx.scale)
    assert np.array_equal(first.poly.residues, plain.poly.to_ntt().residues)
    ctx.clear_plaintext_cache()
    assert len(ctx.plaintext_cache) == 0


def test_encode_cached_respects_disabled_flag(ctx):
    ev = Evaluator(ctx)
    values = np.ones(ctx.slot_count)
    ctx.clear_plaintext_cache()
    with fastpath.overridden(plaintext_cache=False):
        ev.encode_cached(values, level=3, scale=ctx.scale, cache_key="k2")
    assert len(ctx.plaintext_cache) == 0


def test_fastpath_config_toggles():
    assert fastpath.get_config() == fastpath.FastPathConfig(
        plaintext_cache=True, hoisted_rotations=True
    )
    with fastpath.overridden(hoisted_rotations=False) as cfg:
        assert cfg.plaintext_cache and not cfg.hoisted_rotations
    assert fastpath.get_config().hoisted_rotations


def test_encode_cached_bit_identity_across_rescale_boundary(ctx):
    """Regression: a weight cached at one (level, scale) must never be
    served at another after Rescale.  Encode the same vector under one
    cache key on both sides of a rescale boundary and check each result is
    bit-identical to an uncached encode at that exact (level, scale)."""
    ev = Evaluator(ctx)
    values = np.linspace(-0.5, 0.5, ctx.slot_count)
    ctx.clear_plaintext_cache()

    ct = ctx.encrypt_values(np.ones(ctx.slot_count))
    before = ev.encode_cached(
        values, level=ct.level, scale=ct.scale, cache_key="w"
    )
    ct2 = ev.rescale(ev.multiply_plain(ct, before))
    assert (ct2.level, ct2.scale) != (ct.level, ct.scale)

    after = ev.encode_cached(
        values, level=ct2.level, scale=ct2.scale, cache_key="w"
    )
    # The post-rescale request must NOT return the pre-rescale entry...
    assert after is not before
    assert (after.level, after.scale) == (ct2.level, ct2.scale)
    # ...and must be bit-identical to a cold encode at the new pair.
    oracle = ctx.encode(values, level=ct2.level, scale=ct2.scale)
    assert np.array_equal(after.poly.residues, oracle.poly.to_ntt().residues)
    # Both entries coexist (distinct full keys), so neither side re-encodes.
    assert ev.encode_cached(
        values, level=ct.level, scale=ct.scale, cache_key="w"
    ) is before
    assert ev.encode_cached(
        values, level=ct2.level, scale=ct2.scale, cache_key="w"
    ) is after
    ctx.clear_plaintext_cache()


def test_encode_cached_canonicalizes_default_level(ctx):
    """``level=None`` and the explicit full-chain level share one entry."""
    ev = Evaluator(ctx)
    values = np.ones(ctx.slot_count)
    ctx.clear_plaintext_cache()
    implicit = ev.encode_cached(
        values, level=None, scale=ctx.scale, cache_key="b"
    )
    explicit = ev.encode_cached(
        values, level=ctx.params.level, scale=ctx.scale, cache_key="b"
    )
    assert explicit is implicit
    assert len(ctx.plaintext_cache) == 1
    ctx.clear_plaintext_cache()


def test_encode_cached_heals_poisoned_entry(ctx):
    """An entry whose payload contradicts its key is dropped and rebuilt."""
    from repro.fhe.ciphertext import Plaintext

    ev = Evaluator(ctx)
    values = np.ones(ctx.slot_count)
    ctx.clear_plaintext_cache()
    stale = ctx.encode(values, level=2, scale=ctx.scale)
    stale = Plaintext(poly=stale.poly.to_ntt(), scale=stale.scale)
    ctx.plaintext_cache[("p", 3, ctx.scale)] = stale
    healed = ev.encode_cached(values, level=3, scale=ctx.scale, cache_key="p")
    assert healed is not stale
    assert healed.level == 3
    oracle = ctx.encode(values, level=3, scale=ctx.scale)
    assert np.array_equal(healed.poly.residues, oracle.poly.to_ntt().residues)
    ctx.clear_plaintext_cache()


def test_plaintext_cache_is_bounded_lru():
    """The context cache evicts least-recently-used entries at capacity."""
    params = tiny_test_params(poly_degree=64, level=3)
    small = CkksContext(params, seed=1, plaintext_cache_entries=2)
    ev = Evaluator(small)
    values = np.ones(small.slot_count)
    ev.encode_cached(values, level=2, scale=small.scale, cache_key="a")
    ev.encode_cached(values, level=2, scale=small.scale, cache_key="b")
    ev.encode_cached(values, level=2, scale=small.scale, cache_key="c")
    assert len(small.plaintext_cache) == 2
    assert ("a", 2, small.scale) not in small.plaintext_cache
    assert small.plaintext_cache.stats().evictions == 1
