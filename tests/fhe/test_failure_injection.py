"""Failure-injection tests: tampering and misuse must not go unnoticed.

CKKS offers no integrity protection, so tampering cannot raise — but it
must visibly destroy the plaintext (no silent partial corruption that
could be mistaken for a valid result), and API misuse (wrong keys, wrong
contexts, wrong levels) must raise immediately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, Ciphertext, Evaluator, tiny_test_params
from repro.fhe.poly import RnsPolynomial


def _tamper(ct: Ciphertext, component: int, seed: int = 0) -> Ciphertext:
    """Flip one residue word of one component."""
    rng = np.random.default_rng(seed)
    poly = ct.components[component]
    residues = poly.residues.copy()
    row = rng.integers(0, residues.shape[0])
    col = rng.integers(0, residues.shape[1])
    residues[row, col] ^= np.uint64(1 << 20)
    tampered = RnsPolynomial(poly.basis, residues, poly.is_ntt)
    comps = list(ct.components)
    comps[component] = tampered
    return Ciphertext(components=tuple(comps), scale=ct.scale)


@pytest.mark.parametrize("component", [0, 1])
def test_tampered_ciphertext_garbles_plaintext(ctx, component):
    values = np.linspace(-1, 1, 32)
    ct = ctx.encrypt_values(values)
    tampered = _tamper(ct, component)
    out = ctx.decrypt_values(tampered)[:32]
    # A single flipped NTT-domain word spreads across all slots.
    assert not np.allclose(out, values, atol=0.1)


def test_tampered_ciphertext_still_structurally_valid(ctx):
    ct = _tamper(ctx.encrypt_values(np.ones(4)), 0)
    assert ct.size == 2  # structure intact; only the content is destroyed


def test_wrong_context_decryption_garbles(small_params):
    a = CkksContext(small_params, seed=100)
    b = CkksContext(small_params, seed=200)
    values = np.full(16, 2.5)
    out = b.decrypt_values(a.encrypt_values(values))[:16]
    assert not np.allclose(out, values, atol=1.0)


def test_keys_from_another_context_rejected_or_garble(small_params):
    """Rotating with a foreign context's Galois keys must not yield the
    correct rotation."""
    a = CkksContext(small_params, seed=1)
    b = CkksContext(small_params, seed=2)
    b.ensure_galois_keys([1])
    # Graft b's keys into a (simulating a key mix-up).
    a.galois_keys = b.galois_keys
    ev = Evaluator(a)
    values = np.linspace(-1, 1, 16)
    out = a.decrypt_values(ev.rotate(a.encrypt_values(values), 1))[:16]
    assert not np.allclose(out, np.roll(values, -1)[:16], atol=0.1)


def test_key_level_mismatch_raises(ctx, evaluator):
    """A key generated for one level cannot switch a ciphertext at
    another (the RNS gadget constants differ)."""
    from repro.fhe.ops import _key_switch

    ct = ctx.encrypt_values(np.ones(4), level=2)
    key = ctx.galois_keys.get(1, 3)  # wrong level on purpose
    with pytest.raises(ValueError, match="level"):
        _key_switch(ct.components[1], ((None, key),))


def test_mixed_ring_degree_rejected(ctx):
    other = CkksContext(tiny_test_params(poly_degree=256, level=4), seed=5)
    ct_small = other.encrypt_values(np.ones(4))
    ev = Evaluator(ctx)
    big = ctx.encrypt_values(np.ones(4))
    with pytest.raises(ValueError):
        ev.add(big, ct_small)


def test_component_count_mismatch_rejected(ctx, evaluator):
    two = ctx.encrypt_values(np.ones(4))
    three = evaluator.square(ctx.encrypt_values(np.ones(4)))
    with pytest.raises(ValueError):
        evaluator.add(two, three)


def test_ciphertext_structure_validation():
    with pytest.raises(ValueError, match="2 or 3"):
        Ciphertext(components=(), scale=1.0)


def test_scale_corruption_decodes_wrong(ctx):
    values = np.full(8, 3.0)
    ct = ctx.encrypt_values(values)
    wrong = Ciphertext(components=ct.components, scale=ct.scale * 2)
    out = ctx.decrypt_values(wrong)[:8]
    assert np.allclose(out, values / 2, atol=0.01)  # off by the scale lie
