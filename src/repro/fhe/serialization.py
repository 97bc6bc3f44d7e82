"""Wire formats for ciphertexts and plaintexts.

The paper's deployment model (Sec. I) has the client encrypt locally and
ship ciphertexts to the accelerator host, which returns encrypted results.
This module provides the byte-level formats for that boundary:

* a compact binary format for :class:`~repro.fhe.ciphertext.Ciphertext`
  and :class:`~repro.fhe.ciphertext.Plaintext` — a fixed little-endian
  header (magic, version, geometry, scale) followed by a per-component
  NTT-domain flag bitmap and the raw residue words;
* helpers computing the exact wire sizes *without materializing bytes*,
  used by the Table VI model-size accounting, by the cluster partitioner's
  inter-device transfer charges, and by bandwidth estimates.

Format version 2 replaced the version-1 fixed 32-bit domain-flag word
with a variable-length bitmap of ``ceil(num_polys / 8)`` bytes, so any
component count up to the 255 the ``num_polys`` byte can express
round-trips; counts beyond that raise :class:`SerializationError` at
pack time instead of corrupting the header.

Secret keys are deliberately *not* serializable here: they never leave the
client in the paper's threat model.
"""

from __future__ import annotations

import struct

import numpy as np

from .ciphertext import Ciphertext, Plaintext
from .poly import RnsBasis, RnsPolynomial

_MAGIC = b"FXHN"
_VERSION = 2
# magic, version, kind, num_polys, n, level, scale (f64)
_HEADER = struct.Struct("<4sBBBxIId")
_KIND_CIPHERTEXT = 1
_KIND_PLAINTEXT = 2
#: Hard cap of the one-byte ``num_polys`` header field.
MAX_COMPONENTS = 255


class SerializationError(ValueError):
    """Raised on malformed or incompatible serialized data."""


def _flags_bytes(num_polys: int) -> int:
    """Size of the NTT-domain flag bitmap: one bit per component."""
    return -(-num_polys // 8)


def _pack(polys: list[RnsPolynomial], scale: float, kind: int) -> bytes:
    if len(polys) > MAX_COMPONENTS:
        raise SerializationError(
            f"cannot serialize {len(polys)} components; the num_polys "
            f"header field holds at most {MAX_COMPONENTS}"
        )
    basis = polys[0].basis
    flags = bytearray(_flags_bytes(len(polys)))
    for i, poly in enumerate(polys):
        if poly.basis != basis:
            raise SerializationError("components must share one basis")
        if poly.is_ntt:
            flags[i // 8] |= 1 << (i % 8)
    header = _HEADER.pack(
        _MAGIC, _VERSION, kind, len(polys), basis.n, basis.level, scale
    )
    prime_block = struct.pack(f"<{basis.level}Q", *basis.primes)
    body = b"".join(
        np.ascontiguousarray(p.residues, dtype="<u8").tobytes() for p in polys
    )
    return header + bytes(flags) + prime_block + body


def _unpack(data: bytes, expected_kind: int) -> tuple[list[RnsPolynomial], float]:
    if len(data) < _HEADER.size:
        raise SerializationError("truncated header")
    magic, version, kind, num_polys, n, level, scale = _HEADER.unpack(
        data[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise SerializationError("bad magic")
    if version != _VERSION:
        raise SerializationError(f"unsupported version {version}")
    if kind != expected_kind:
        raise SerializationError("wrong payload kind")
    if num_polys < 1:
        raise SerializationError("payload must carry at least one component")
    offset = _HEADER.size
    flag_bytes = _flags_bytes(num_polys)
    if len(data) < offset + flag_bytes:
        raise SerializationError("truncated flag bitmap")
    flags = data[offset : offset + flag_bytes]
    offset += flag_bytes
    prime_bytes = level * 8
    if len(data) < offset + prime_bytes:
        raise SerializationError("truncated prime block")
    primes = struct.unpack(f"<{level}Q", data[offset : offset + prime_bytes])
    offset += prime_bytes
    basis = RnsBasis(n, tuple(int(q) for q in primes))
    poly_bytes = level * n * 8
    expected_len = offset + num_polys * poly_bytes
    if len(data) != expected_len:
        raise SerializationError(
            f"payload length {len(data)} != expected {expected_len}"
        )
    polys = []
    for i in range(num_polys):
        chunk = data[offset : offset + poly_bytes]
        residues = np.frombuffer(chunk, dtype="<u8").reshape(level, n).copy()
        is_ntt = bool(flags[i // 8] >> (i % 8) & 1)
        polys.append(RnsPolynomial(basis, residues, is_ntt=is_ntt))
        offset += poly_bytes
    return polys, scale


def ciphertext_to_bytes(ct: Ciphertext) -> bytes:
    """Serialize a ciphertext to the wire format."""
    return _pack(list(ct.components), ct.scale, _KIND_CIPHERTEXT)


def ciphertext_from_bytes(data: bytes) -> Ciphertext:
    """Parse a ciphertext from the wire format (validates structure)."""
    polys, scale = _unpack(data, _KIND_CIPHERTEXT)
    if not 2 <= len(polys) <= 3:
        raise SerializationError("ciphertext must have 2 or 3 components")
    return Ciphertext(components=tuple(polys), scale=scale)


def plaintext_to_bytes(pt: Plaintext) -> bytes:
    """Serialize an encoded plaintext to the wire format."""
    return _pack([pt.poly], pt.scale, _KIND_PLAINTEXT)


def plaintext_from_bytes(data: bytes) -> Plaintext:
    """Parse an encoded plaintext from the wire format."""
    polys, scale = _unpack(data, _KIND_PLAINTEXT)
    if len(polys) != 1:
        raise SerializationError("plaintext must have exactly one polynomial")
    return Plaintext(poly=polys[0], scale=scale)


def ciphertext_wire_size(
    poly_degree: int, level: int, num_polys: int = 2
) -> int:
    """Exact serialized size of a payload with the given geometry.

    Computed from the format alone — no residue arrays are materialized —
    so it is cheap enough for the cluster partitioner to price every
    candidate inter-device cut.  Raises :class:`SerializationError` for
    geometries the format cannot express, mirroring :func:`_pack`.
    """
    if num_polys < 1 or num_polys > MAX_COMPONENTS:
        raise SerializationError(
            f"num_polys must be in [1, {MAX_COMPONENTS}], got {num_polys}"
        )
    if poly_degree < 1 or level < 1:
        raise SerializationError("poly_degree and level must be >= 1")
    return (
        _HEADER.size
        + _flags_bytes(num_polys)
        + level * 8
        + num_polys * level * poly_degree * 8
    )


def plaintext_wire_size(poly_degree: int, level: int) -> int:
    """Exact serialized size of one encoded plaintext."""
    return ciphertext_wire_size(poly_degree, level, num_polys=1)
