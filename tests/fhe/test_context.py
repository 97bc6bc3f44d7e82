"""Tests for encryption, decryption and key provisioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, fxhenn_cifar10_params, tiny_test_params
from repro.hecnn import tiny_mnist_model


def test_encrypt_decrypt_roundtrip(ctx):
    rng = np.random.default_rng(10)
    values = rng.uniform(-5, 5, ctx.slot_count)
    ct = ctx.encrypt_values(values)
    out = ctx.decrypt_values(ct)
    assert np.allclose(out, values, atol=1e-3)


def test_fresh_ciphertext_shape(ctx):
    ct = ctx.encrypt_values(np.ones(4))
    assert ct.size == 2
    assert ct.level == ctx.params.level
    assert ct.scale == ctx.scale


def test_encrypt_at_lower_level(ctx):
    values = np.array([1.0, -2.0, 3.0])
    ct = ctx.encrypt_values(values, level=2)
    assert ct.level == 2
    assert np.allclose(ctx.decrypt_values(ct)[:3], values, atol=1e-3)


def test_encryption_is_randomized(ctx):
    pt = ctx.encode(np.ones(4))
    ct1 = ctx.encrypt(pt)
    ct2 = ctx.encrypt(pt)
    assert not np.array_equal(
        ct1.components[0].residues, ct2.components[0].residues
    )
    assert np.allclose(ctx.decrypt_values(ct1), ctx.decrypt_values(ct2), atol=1e-3)


def test_decrypt_with_wrong_key_garbles(small_params):
    a = CkksContext(small_params, seed=1)
    b = CkksContext(small_params, seed=2)
    values = np.full(8, 3.0)
    ct = a.encrypt_values(values)
    wrong = b.decrypt_values(ct)[:8]
    assert not np.allclose(wrong, values, atol=1.0)


def test_deterministic_under_seed(small_params):
    a = CkksContext(small_params, seed=99)
    b = CkksContext(small_params, seed=99)
    ct_a = a.encrypt_values(np.ones(4))
    ct_b = b.encrypt_values(np.ones(4))
    assert np.array_equal(ct_a.components[0].residues, ct_b.components[0].residues)


def test_keys_and_ciphertexts_do_not_depend_on_provisioning():
    """The secret key, each key-switching key and encryption draw from
    their own streams: provisioning a superset of keys, in another order,
    leaves every shared key and every input ciphertext bit-identical."""
    params = tiny_test_params(poly_degree=512, level=7)
    model = tiny_mnist_model(seed=3, params=params)
    image = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    exact = CkksContext(params, seed=11)
    model.provision_keys(exact)
    wide = CkksContext(params, seed=11)
    wide.ensure_rotation_keys(
        [(5, 7), (1, 3)] + list(reversed(model.rotation_keys()))
    )
    wide.ensure_rotation_keys([(3, 2)])
    wide.ensure_relin_keys(sorted(range(1, 8), reverse=True))
    assert set(exact.galois_keys.keys) < set(wide.galois_keys.keys)
    assert set(exact.relin_keys) < set(wide.relin_keys)
    for pair, key in exact.galois_keys.keys.items():
        assert np.array_equal(
            key.stacked_ba, wide.galois_keys.keys[pair].stacked_ba
        )
    for level, key in exact.relin_keys.items():
        assert np.array_equal(key.stacked_ba, wide.relin_keys[level].stacked_ba)
    for ct_exact, ct_wide in zip(
        model.encrypt_input(exact, image), model.encrypt_input(wide, image),
        strict=True,
    ):
        for a, b in zip(ct_exact.components, ct_wide.components):
            assert np.array_equal(a.residues, b.residues)


def test_model_only_params_rejected():
    with pytest.raises(ValueError):
        CkksContext(fxhenn_cifar10_params())


def test_ensure_keys_idempotent(ctx):
    before = dict(ctx.relin_keys)
    ctx.ensure_relin_keys()
    assert {k: id(v) for k, v in ctx.relin_keys.items()} == {
        k: id(v) for k, v in before.items()
    }
    before_galois = dict(ctx.galois_keys.keys)
    ctx.ensure_galois_keys([1, 2])
    assert {k: id(v) for k, v in ctx.galois_keys.keys.items()} == {
        k: id(v) for k, v in before_galois.items()
    }


def test_empty_level_list_provisions_no_keys(small_params):
    """An empty level list means no level; only ``None`` means all."""
    ctx = CkksContext(small_params, seed=5)
    ctx.ensure_relin_keys([])
    ctx.ensure_galois_keys([1], levels=[])
    assert ctx.relin_keys == {}
    assert ctx.galois_keys.keys == {}
    assert ctx.keygen.generate_relin_keys([]) == {}


def test_galois_key_lookup_error(ctx):
    with pytest.raises(KeyError, match="no Galois key"):
        ctx.galois_keys.get(3331, 1)


def test_noise_budget_survives_depth(small_params):
    """A fresh encryption decrypts accurately even at the lowest level."""
    ctx = CkksContext(small_params, seed=5)
    values = np.linspace(-1, 1, 16)
    ct = ctx.encrypt_values(values, level=1)
    assert np.allclose(ctx.decrypt_values(ct)[:16], values, atol=1e-3)
