"""Tests for synthetic data and weight generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hecnn import (
    glorot_weights,
    small_bias,
    synthetic_cifar10_image,
    synthetic_mnist_image,
)


def test_mnist_image_shape_and_range():
    img = synthetic_mnist_image(seed=0)
    assert img.shape == (1, 28, 28)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img.max() == pytest.approx(1.0)  # normalized


def test_cifar_image_shape_and_range():
    img = synthetic_cifar10_image(seed=0)
    assert img.shape == (3, 32, 32)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_images_deterministic_and_distinct():
    a = synthetic_mnist_image(seed=5)
    b = synthetic_mnist_image(seed=5)
    c = synthetic_mnist_image(seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_glorot_weights_bounds():
    rng = np.random.default_rng(0)
    w = glorot_weights((100, 845), rng)
    limit = np.sqrt(6.0 / (100 + 845))
    assert w.shape == (100, 845)
    assert np.max(np.abs(w)) <= limit


def test_small_bias():
    rng = np.random.default_rng(0)
    b = small_bias(10, rng)
    assert b.shape == (10,)
    assert np.max(np.abs(b)) <= 0.05
