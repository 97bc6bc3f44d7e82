"""Synthetic datasets and deterministic weight initialization.

Documented substitution (DESIGN.md): the paper evaluates on MNIST and
CIFAR-10 with LoLa's trained models, neither of which is available offline.
Accuracy is a training property orthogonal to the accelerator framework; the
latency/resource evaluation depends only on layer *shapes* and HE
parameters.  We therefore generate synthetic images with the correct shapes
and value ranges, and seeded Glorot-style weights, so that:

* encrypted inference can be validated against the plaintext reference
  (bit-for-bit the same computation), and
* every operation trace, HOP count and model-size figure is produced by the
  same layer geometry the paper uses.
"""

from __future__ import annotations

import numpy as np


def synthetic_mnist_image(seed: int = 0) -> np.ndarray:
    """A 1x28x28 image with MNIST-like statistics (values in [0, 1]).

    Draws a sparse blob pattern rather than uniform noise so activations
    have realistic dynamic range for CKKS precision checks.
    """
    rng = np.random.default_rng(seed)
    img = np.zeros((28, 28))
    for _ in range(6):
        cy, cx = rng.integers(4, 24, 2)
        yy, xx = np.mgrid[0:28, 0:28]
        img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / rng.uniform(4, 12))
    img = np.clip(img / img.max(), 0.0, 1.0)
    return img[None, :, :]


def synthetic_cifar10_image(seed: int = 0) -> np.ndarray:
    """A 3x32x32 image with CIFAR-like statistics (values in [0, 1])."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1, (3, 8, 8))
    img = np.kron(base, np.ones((4, 4)))  # blocky texture
    img += rng.normal(0, 0.08, img.shape)
    return np.clip(img, 0.0, 1.0)


def glorot_weights(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights; keeps activations in CKKS-friendly range."""
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def small_bias(count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, count)
