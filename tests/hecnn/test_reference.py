"""Tests for the plaintext reference CNN."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hecnn import (
    ConvSpec,
    DenseSpec,
    PlainConv2d,
    PlainDense,
    PlainNetwork,
    PlainSquare,
)


def test_conv_spec_geometry():
    spec = ConvSpec(
        in_channels=1, out_channels=5, kernel_size=5, stride=2, padding=1,
        in_size=28,
    )
    assert spec.out_size == 13
    assert spec.out_positions == 169
    assert spec.kernel_offsets == 25
    assert spec.output_count == 845
    assert spec.macs == 169 * 25 * 5  # paper Table IV: 2.11e4


def test_conv_spec_cifar_geometry():
    spec = ConvSpec(
        in_channels=3, out_channels=83, kernel_size=8, stride=2, padding=0,
        in_size=32,
    )
    assert spec.out_size == 13
    assert spec.kernel_offsets == 192
    assert spec.output_count == 14027


def test_conv_identity_kernel():
    """A 1x1 kernel with weight 1 reproduces the (strided) input."""
    spec = ConvSpec(
        in_channels=1, out_channels=1, kernel_size=1, stride=1, padding=0,
        in_size=4,
    )
    conv = PlainConv2d(spec, np.ones((1, 1, 1, 1)), np.zeros(1))
    img = np.arange(16, dtype=float).reshape(1, 4, 4)
    assert np.allclose(conv.forward(img), img.reshape(-1))


def test_conv_against_manual_window():
    rng = np.random.default_rng(0)
    spec = ConvSpec(
        in_channels=2, out_channels=3, kernel_size=3, stride=2, padding=1,
        in_size=6,
    )
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    conv = PlainConv2d(spec, w, b)
    img = rng.normal(size=(2, 6, 6))
    out = conv.forward(img).reshape(3, spec.out_size, spec.out_size)
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)))
    for m in range(3):
        for oy in range(spec.out_size):
            for ox in range(spec.out_size):
                window = padded[:, 2 * oy : 2 * oy + 3, 2 * ox : 2 * ox + 3]
                assert out[m, oy, ox] == pytest.approx(np.sum(window * w[m]) + b[m])


def test_conv_output_is_map_major():
    """out[m * P + p] ordering matches the packed slot layout."""
    spec = ConvSpec(
        in_channels=1, out_channels=2, kernel_size=1, stride=1, padding=0,
        in_size=2,
    )
    w = np.zeros((2, 1, 1, 1))
    w[0] = 1.0
    w[1] = 10.0
    conv = PlainConv2d(spec, w, np.zeros(2))
    img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    out = conv.forward(img)
    assert np.allclose(out[:4], [1, 2, 3, 4])  # map 0
    assert np.allclose(out[4:], [10, 20, 30, 40])  # map 1


def test_conv_shape_validation():
    spec = ConvSpec(
        in_channels=1, out_channels=2, kernel_size=3, stride=1, padding=0,
        in_size=8,
    )
    with pytest.raises(ValueError):
        PlainConv2d(spec, np.zeros((2, 1, 3, 4)), np.zeros(2))
    conv = PlainConv2d(spec, np.zeros((2, 1, 3, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 7, 7)))


def test_square():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(PlainSquare().forward(x), [4.0, 0.0, 9.0])


def test_dense_matches_matmul():
    rng = np.random.default_rng(1)
    spec = DenseSpec(in_features=12, out_features=5)
    w = rng.normal(size=(5, 12))
    b = rng.normal(size=5)
    x = rng.normal(size=12)
    assert np.allclose(PlainDense(spec, w, b).forward(x), w @ x + b)


def test_dense_validation():
    spec = DenseSpec(in_features=4, out_features=2)
    with pytest.raises(ValueError):
        PlainDense(spec, np.zeros((2, 5)), np.zeros(2))
    dense = PlainDense(spec, np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        dense.forward(np.zeros(5))


def test_network_composition():
    spec = DenseSpec(in_features=3, out_features=3)
    w = np.eye(3)
    net = PlainNetwork([PlainDense(spec, w, np.zeros(3)), PlainSquare()])
    out = net.forward(np.array([1.0, -3.0, 2.0]))
    assert np.allclose(out, [1.0, 9.0, 4.0])
