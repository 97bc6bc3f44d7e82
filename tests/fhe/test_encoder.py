"""Tests for the CKKS canonical-embedding encoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.encoder import CkksEncoder
from repro.fhe.modmath import generate_ntt_primes
from repro.fhe.poly import RnsBasis

N = 128
SCALE = float(2**24)


@pytest.fixture(scope="module")
def basis() -> RnsBasis:
    return RnsBasis(N, tuple(generate_ntt_primes(26, 3, N)))


@pytest.fixture(scope="module")
def encoder() -> CkksEncoder:
    return CkksEncoder(N)


def test_encode_decode_roundtrip(encoder, basis):
    rng = np.random.default_rng(0)
    values = rng.uniform(-10, 10, encoder.slot_count)
    pt = encoder.encode(values, SCALE, basis)
    out = encoder.decode_real(pt, SCALE)
    assert np.allclose(out, values, atol=1e-4)


def test_encode_holds_the_rounded_integers(encoder, basis):
    """Encoding reduces exactly the rounded scaled coefficients into every
    prime: CRT decoding gives those integers back."""
    values = np.random.default_rng(13).uniform(-3, 3, encoder.slot_count)
    poly = encoder.encode(values, SCALE, basis)
    coeffs = np.rint(encoder._embed(values.astype(np.complex128)) * SCALE)
    assert poly.to_integer_coefficients() == [int(c) for c in coeffs]


def test_encode_decode_complex(encoder, basis):
    rng = np.random.default_rng(1)
    values = rng.uniform(-1, 1, encoder.slot_count) + 1j * rng.uniform(
        -1, 1, encoder.slot_count
    )
    pt = encoder.encode(values, SCALE, basis)
    out = encoder.decode(pt, SCALE)
    assert np.allclose(out, values, atol=1e-4)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(seed):
    enc = CkksEncoder(64)
    bas = RnsBasis(64, tuple(generate_ntt_primes(26, 2, 64)))
    rng = np.random.default_rng(seed)
    values = rng.uniform(-100, 100, enc.slot_count)
    out = enc.decode_real(enc.encode(values, SCALE, bas), SCALE)
    assert np.allclose(out, values, atol=1e-3)


def test_short_vector_zero_pads(encoder, basis):
    values = np.array([1.0, 2.0, 3.0])
    out = encoder.decode_real(encoder.encode(values, SCALE, basis), SCALE)
    assert np.allclose(out[:3], values, atol=1e-5)
    assert np.allclose(out[3:], 0.0, atol=1e-5)


def test_encoding_is_additively_homomorphic(encoder, basis):
    """encode(a) + encode(b) decodes to a + b (linearity of the embedding)."""
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, encoder.slot_count)
    b = rng.uniform(-1, 1, encoder.slot_count)
    pa = encoder.encode(a, SCALE, basis)
    pb = encoder.encode(b, SCALE, basis)
    out = encoder.decode_real(pa + pb, SCALE)
    assert np.allclose(out, a + b, atol=1e-4)


def test_galois_rotation_shifts_slots(encoder, basis):
    """The 5^r automorphism on the plaintext cyclically rotates slots by r."""
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, encoder.slot_count)
    pt = encoder.encode(values, SCALE, basis)
    for step in (1, 3, 17):
        g = pow(5, step, 2 * N)
        rotated = pt.galois_transform(g)
        out = encoder.decode_real(rotated, SCALE)
        assert np.allclose(out, np.roll(values, -step), atol=1e-4), step


def test_too_many_values_rejected(encoder, basis):
    with pytest.raises(ValueError):
        encoder.encode(np.zeros(encoder.slot_count + 1), SCALE, basis)


def test_mismatched_basis_rejected(encoder):
    other = RnsBasis(64, tuple(generate_ntt_primes(26, 1, 64)))
    with pytest.raises(ValueError):
        encoder.encode(np.zeros(4), SCALE, other)


def test_encoder_rejects_bad_degree():
    with pytest.raises(ValueError):
        CkksEncoder(100)


def test_precision_improves_with_scale(basis):
    """Higher scale => lower quantization error (CKKS precision knob)."""
    enc = CkksEncoder(N)
    rng = np.random.default_rng(4)
    values = rng.uniform(-1, 1, enc.slot_count)
    errs = []
    for bits in (12, 20, 26):
        scale = float(2**bits)
        out = enc.decode_real(enc.encode(values, scale, basis), scale)
        errs.append(np.max(np.abs(out - values)))
    assert errs[0] > errs[1] > errs[2]
