"""Tests for the ciphertext/plaintext wire format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import (
    SerializationError,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    ciphertext_wire_size,
    plaintext_from_bytes,
    plaintext_to_bytes,
)


def test_ciphertext_roundtrip(ctx):
    rng = np.random.default_rng(0)
    values = rng.uniform(-2, 2, ctx.slot_count)
    ct = ctx.encrypt_values(values)
    data = ciphertext_to_bytes(ct)
    back = ciphertext_from_bytes(data)
    assert back.scale == ct.scale
    assert back.level == ct.level
    for a, b in zip(ct.components, back.components):
        assert np.array_equal(a.residues, b.residues)
        assert a.is_ntt == b.is_ntt
    # Most importantly: it still decrypts correctly.
    assert np.allclose(ctx.decrypt_values(back), values, atol=1e-3)


def test_three_component_roundtrip(ctx, evaluator):
    ct = evaluator.square(ctx.encrypt_values(np.ones(4)))
    back = ciphertext_from_bytes(ciphertext_to_bytes(ct))
    assert back.size == 3


def test_reduced_level_roundtrip(ctx, evaluator):
    ct = evaluator.multiply_values_rescale(
        ctx.encrypt_values(np.ones(4)), np.ones(ctx.slot_count)
    )
    back = ciphertext_from_bytes(ciphertext_to_bytes(ct))
    assert back.level == ct.level
    assert back.basis.primes == ct.basis.primes


def test_plaintext_roundtrip(ctx):
    pt = ctx.encode(np.array([1.5, -2.5, 0.25]))
    back = plaintext_from_bytes(plaintext_to_bytes(pt))
    assert np.allclose(ctx.decode(back)[:3], [1.5, -2.5, 0.25], atol=1e-5)


def test_wire_size_formula(ctx):
    ct = ctx.encrypt_values(np.ones(4))
    data = ciphertext_to_bytes(ct)
    assert len(data) == ciphertext_wire_size(
        ctx.params.poly_degree, ct.level, num_polys=2
    )


def test_kind_mismatch_rejected(ctx):
    ct = ctx.encrypt_values(np.ones(4))
    pt = ctx.encode(np.ones(4))
    with pytest.raises(SerializationError, match="kind"):
        plaintext_from_bytes(ciphertext_to_bytes(ct))
    with pytest.raises(SerializationError, match="kind"):
        ciphertext_from_bytes(plaintext_to_bytes(pt))


def test_corruption_detected(ctx):
    data = ciphertext_to_bytes(ctx.encrypt_values(np.ones(4)))
    with pytest.raises(SerializationError, match="magic"):
        ciphertext_from_bytes(b"XXXX" + data[4:])
    with pytest.raises(SerializationError, match="truncated|length"):
        ciphertext_from_bytes(data[:-8])
    with pytest.raises(SerializationError, match="length"):
        ciphertext_from_bytes(data + b"\0" * 8)
    with pytest.raises(SerializationError, match="truncated"):
        ciphertext_from_bytes(data[:10])


def test_version_check(ctx):
    data = bytearray(ciphertext_to_bytes(ctx.encrypt_values(np.ones(4))))
    data[4] = 99  # version byte
    with pytest.raises(SerializationError, match="version"):
        ciphertext_from_bytes(bytes(data))


def _n_component_payload(ctx, count):
    """A payload of ``count`` components with an alternating NTT pattern
    (exercises every bit position across multiple bitmap bytes)."""
    from repro.fhe.poly import RnsPolynomial
    from repro.fhe.serialization import _KIND_CIPHERTEXT, _pack

    base = ctx.encrypt_values(np.ones(4)).components[0]
    polys = [
        RnsPolynomial(base.basis, base.residues.copy(), is_ntt=(i % 3 == 0))
        for i in range(count)
    ]
    return polys, _pack(polys, 2.0**20, _KIND_CIPHERTEXT)


def test_many_components_roundtrip_flag_bitmap(ctx):
    """Counts beyond the old 32-bit flag field must round-trip, with
    every per-component domain flag preserved."""
    from repro.fhe.serialization import _KIND_CIPHERTEXT, _unpack

    polys, data = _n_component_payload(ctx, 40)
    back, scale = _unpack(data, _KIND_CIPHERTEXT)
    assert scale == 2.0**20
    assert len(back) == 40
    for want, got in zip(polys, back):
        assert got.is_ntt == want.is_ntt
        assert np.array_equal(got.residues, want.residues)


def test_component_count_beyond_header_field_rejected(ctx):
    from repro.fhe.serialization import MAX_COMPONENTS

    with pytest.raises(SerializationError, match="num_polys"):
        _n_component_payload(ctx, MAX_COMPONENTS + 1)


def test_max_component_count_roundtrips(ctx):
    from repro.fhe.serialization import (
        MAX_COMPONENTS,
        _KIND_CIPHERTEXT,
        _unpack,
    )

    _, data = _n_component_payload(ctx, MAX_COMPONENTS)
    back, _ = _unpack(data, _KIND_CIPHERTEXT)
    assert len(back) == MAX_COMPONENTS


def test_wire_size_matches_three_component_ciphertext(ctx, evaluator):
    ct = evaluator.square(ctx.encrypt_values(np.ones(4)))
    assert len(ciphertext_to_bytes(ct)) == ciphertext_wire_size(
        ctx.params.poly_degree, ct.level, num_polys=3
    )


def test_plaintext_wire_size_matches_bytes(ctx):
    from repro.fhe import plaintext_wire_size

    pt = ctx.encode(np.ones(4))
    assert len(plaintext_to_bytes(pt)) == plaintext_wire_size(
        ctx.params.poly_degree, pt.poly.basis.level
    )


def test_wire_size_validation():
    with pytest.raises(SerializationError):
        ciphertext_wire_size(512, 4, num_polys=0)
    with pytest.raises(SerializationError):
        ciphertext_wire_size(512, 4, num_polys=256)
    with pytest.raises(SerializationError):
        ciphertext_wire_size(0, 4)
    with pytest.raises(SerializationError):
        ciphertext_wire_size(512, 0)


def test_truncated_flag_bitmap_detected(ctx):
    data = ciphertext_to_bytes(ctx.encrypt_values(np.ones(4)))
    from repro.fhe.serialization import _HEADER

    with pytest.raises(SerializationError, match="flag|truncated"):
        ciphertext_from_bytes(data[: _HEADER.size])


def test_cached_plaintext_serializes_as_its_uint64_twin(small_params):
    """A cached plaintext holds 32-bit words, but the wire format keeps 8
    bytes per residue: its bytes equal those of the same residues held as
    uint64, and the wire sizes do not move."""
    from repro.fhe import (
        CkksContext, Evaluator, Plaintext, RnsPolynomial, plaintext_wire_size,
    )

    ctx = CkksContext(small_params, seed=5)
    pt = Evaluator(ctx).encode_cached(
        np.ones(4), level=None, scale=ctx.scale, cache_key="wire"
    )
    assert ctx.plaintext_cache.get(("wire", pt.level, pt.scale)) is pt
    assert pt.poly.residues.dtype == np.uint32
    twin = Plaintext(
        poly=RnsPolynomial(pt.basis, pt.poly.residues.astype(np.uint64), True),
        scale=pt.scale,
    )
    data = plaintext_to_bytes(pt)
    assert data == plaintext_to_bytes(twin)
    assert len(data) == plaintext_wire_size(512, 4) == 16_441
    assert ciphertext_wire_size(512, 4) == 32_825
    back = plaintext_from_bytes(data)
    assert np.array_equal(back.poly.residues, pt.poly.residues)
    assert back.poly.residues.dtype == np.uint64
