"""Plaintext (cleartext) CNN reference implementation.

The encrypted inference pipeline must decrypt to exactly what this forward
pass computes (up to CKKS precision).  Layers mirror the LoLa/CryptoNets
topology used by the paper: convolution, square activation, dense.

Kept deliberately simple and numpy-only — this is the functional oracle, not
a training framework.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution layer (NCHW, single image)."""

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    in_size: int  # input spatial height == width

    @property
    def out_size(self) -> int:
        return (self.in_size + 2 * self.padding - self.kernel_size) // self.stride + 1

    @property
    def out_positions(self) -> int:
        return self.out_size * self.out_size

    @property
    def kernel_offsets(self) -> int:
        """Number of (channel, ky, kx) kernel positions — one packed
        ciphertext per offset in the LoLa convolution representation."""
        return self.in_channels * self.kernel_size * self.kernel_size

    @property
    def output_count(self) -> int:
        return self.out_channels * self.out_positions

    @property
    def macs(self) -> int:
        """Plain-CNN multiply-accumulate count (paper Table IV, "MACs")."""
        return self.out_positions * self.kernel_offsets * self.out_channels


@dataclass(frozen=True)
class DenseSpec:
    """Geometry of a fully connected layer."""

    in_features: int
    out_features: int

    @property
    def macs(self) -> int:
        return self.in_features * self.out_features


class PlainConv2d:
    """Valid/same 2-D convolution over one image, channel-major output.

    The output is flattened as ``out[c * P + p]`` (map-major, position-minor)
    to match the packed slot layout of the encrypted pipeline.  The input
    may be that flattening too (a mid-network conv's input), and is then
    read back as ``(C, H, W)``.
    """

    def __init__(self, spec: ConvSpec, weights: np.ndarray, bias: np.ndarray) -> None:
        expected_w = (spec.out_channels, spec.in_channels, spec.kernel_size, spec.kernel_size)
        if weights.shape != expected_w:
            raise ValueError(f"weights must have shape {expected_w}, got {weights.shape}")
        if bias.shape != (spec.out_channels,):
            raise ValueError(f"bias must have shape ({spec.out_channels},)")
        self.spec = spec
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)

    def forward(self, image: np.ndarray) -> np.ndarray:
        s = self.spec
        if image.shape == (s.in_channels * s.in_size * s.in_size,):
            image = image.reshape(s.in_channels, s.in_size, s.in_size)
        if image.shape != (s.in_channels, s.in_size, s.in_size):
            raise ValueError(
                f"image must have shape {(s.in_channels, s.in_size, s.in_size)}"
            )
        padded = np.pad(
            image, ((0, 0), (s.padding, s.padding), (s.padding, s.padding))
        )
        out = np.empty((s.out_channels, s.out_size, s.out_size))
        for m in range(s.out_channels):
            for oy in range(s.out_size):
                for ox in range(s.out_size):
                    window = padded[
                        :,
                        oy * s.stride : oy * s.stride + s.kernel_size,
                        ox * s.stride : ox * s.stride + s.kernel_size,
                    ]
                    out[m, oy, ox] = np.sum(window * self.weights[m]) + self.bias[m]
        return out.reshape(-1)  # map-major flattening


class PlainSquare:
    """Elementwise square — the polynomial activation of CryptoNets/LoLa."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x * x


@dataclass(frozen=True)
class PoolSpec:
    """Geometry of a non-overlapping average pooling layer.

    Operates on a map-major flattened tensor of ``channels`` maps of
    ``in_size x in_size`` positions; window and stride are both ``k``.
    """

    channels: int
    in_size: int
    k: int

    def __post_init__(self) -> None:
        if self.in_size % self.k:
            raise ValueError("in_size must be divisible by the pool size k")

    @property
    def out_size(self) -> int:
        return self.in_size // self.k

    @property
    def in_positions(self) -> int:
        return self.in_size * self.in_size

    @property
    def out_positions(self) -> int:
        return self.out_size * self.out_size

    @property
    def output_count(self) -> int:
        return self.channels * self.out_positions


class PlainAveragePool:
    """Non-overlapping k x k average pooling on map-major flattened input."""

    def __init__(self, spec: PoolSpec) -> None:
        self.spec = spec

    def forward(self, x: np.ndarray) -> np.ndarray:
        s = self.spec
        if x.shape != (s.channels * s.in_positions,):
            raise ValueError(
                f"input must have {s.channels * s.in_positions} values"
            )
        maps = x.reshape(s.channels, s.in_size, s.in_size)
        pooled = maps.reshape(
            s.channels, s.out_size, s.k, s.out_size, s.k
        ).mean(axis=(2, 4))
        return pooled.reshape(-1)


class PlainDense:
    """Fully connected layer ``y = W x + b``."""

    def __init__(self, spec: DenseSpec, weights: np.ndarray, bias: np.ndarray) -> None:
        if weights.shape != (spec.out_features, spec.in_features):
            raise ValueError(
                f"weights must have shape {(spec.out_features, spec.in_features)}"
            )
        if bias.shape != (spec.out_features,):
            raise ValueError(f"bias must have shape ({spec.out_features},)")
        self.spec = spec
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.spec.in_features,):
            raise ValueError(f"input must have {self.spec.in_features} features")
        return self.weights @ x + self.bias


class PlainNetwork:
    """Sequential container over the plain layers."""

    def __init__(self, layers: list) -> None:
        self.layers = list(layers)

    def forward(self, image: np.ndarray) -> np.ndarray:
        x = image
        for layer in self.layers:
            x = layer.forward(x)
        return x
