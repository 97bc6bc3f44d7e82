"""Fixtures for the DSE core tests: cached traces and devices."""

from __future__ import annotations

import pytest

from repro.fpga import acu9eg, acu15eg
from repro.hecnn import fxhenn_cifar10_model, fxhenn_mnist_model, tiny_mnist_model


@pytest.fixture(scope="session")
def mnist_trace():
    return fxhenn_mnist_model().trace()


@pytest.fixture(scope="session")
def cifar_trace():
    return fxhenn_cifar10_model().trace()


@pytest.fixture(scope="session")
def tiny_trace():
    return tiny_mnist_model().trace()


@pytest.fixture(scope="session")
def dev9():
    return acu9eg()


@pytest.fixture(scope="session")
def dev15():
    return acu15eg()
