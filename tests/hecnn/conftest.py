"""Fixtures for the HE-CNN tests: a tiny functional model + context."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, Evaluator, tiny_test_params
from repro.hecnn import fxhenn_cifar10_model, fxhenn_mnist_model, tiny_mnist_model


@pytest.fixture(scope="session")
def tiny_params():
    return tiny_test_params(poly_degree=512, level=7)


@pytest.fixture(scope="session")
def tiny_model(tiny_params):
    return tiny_mnist_model(seed=3, params=tiny_params)


@pytest.fixture(scope="session")
def tiny_ctx(tiny_params, tiny_model) -> CkksContext:
    ctx = CkksContext(tiny_params, seed=11)
    tiny_model.provision_keys(ctx)
    return ctx


@pytest.fixture(scope="session")
def mnist_model():
    """Full-size FxHENN-MNIST (trace-only in most tests)."""
    return fxhenn_mnist_model(seed=0)


@pytest.fixture(scope="session")
def cifar_model():
    """Full-size FxHENN-CIFAR10 (trace-only)."""
    return fxhenn_cifar10_model(seed=0)


@pytest.fixture()
def tiny_image() -> np.ndarray:
    return np.random.default_rng(5).uniform(0, 1, (1, 8, 8))


@pytest.fixture()
def encoded_plaintexts(monkeypatch):
    """A function running ``model`` on ``image`` layer by layer and
    returning, per layer, the distinct ``(cache_key, level)`` pairs its
    real forward pass encoded (``Evaluator.encode_cached`` is logged)."""
    log: list[tuple] = []
    real = Evaluator.encode_cached

    def encode_cached(self, values, level, scale, cache_key=None):
        log.append((cache_key, level))
        return real(self, values, level, scale, cache_key)

    monkeypatch.setattr(Evaluator, "encode_cached", encode_cached)

    def run(model, ctx, image) -> list[set[tuple]]:
        evaluator = Evaluator(ctx)
        state = model.encrypt_input(ctx, image)
        per_layer = []
        for layer in model.layers:
            log.clear()
            state = layer.forward(evaluator, state)
            per_layer.append(set(log))
        return per_layer

    return run
