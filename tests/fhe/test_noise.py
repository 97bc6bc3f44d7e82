"""Tests for noise estimation: the bound must be conservative yet tight."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import (
    CkksContext,
    Evaluator,
    NoiseEstimator,
    depth_capacity,
    fxhenn_mnist_params,
    kernels,
    measured_noise_bits,
    tiny_test_params,
)


@pytest.fixture(scope="module")
def noise_ctx():
    ctx = CkksContext(tiny_test_params(512, 5), seed=9)
    ctx.ensure_relin_keys()
    ctx.ensure_galois_keys([1, 2])
    return ctx


@pytest.fixture()
def estimator(noise_ctx):
    return NoiseEstimator.for_context(noise_ctx)


@pytest.mark.parametrize("seed", range(1, 13))
@pytest.mark.parametrize("poly_degree", [512, 2048])
def test_fresh_bound_is_conservative(poly_degree, seed):
    """The fresh rule at both ring sizes the networks run at: eight
    messages under each of twelve context seeds."""
    ctx = CkksContext(tiny_test_params(poly_degree, 7), seed=seed)
    bound = NoiseEstimator.for_context(ctx).fresh(1.0)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        x = rng.uniform(-1, 1, ctx.slot_count)
        measured = measured_noise_bits(ctx, ctx.encrypt_values(x), x)
        assert bound.error_bits <= measured  # never over-promise
        assert measured - bound.error_bits < 5  # but stay within a few bits


def test_bound_tracks_operation_chain(noise_ctx, estimator):
    """The estimated precision stays below the measurement along a chain
    of PCmult, square and rotate operations."""
    rng = np.random.default_rng(1)
    ev = Evaluator(noise_ctx)
    x = rng.uniform(-1, 1, noise_ctx.slot_count)
    ct = noise_ctx.encrypt_values(x)
    bound = estimator.fresh(1.0)

    w = rng.uniform(-1, 1, noise_ctx.slot_count)
    ct = ev.multiply_values_rescale(ct, w)
    x = x * w
    bound = estimator.multiply_values_rescale(bound, 1.0)
    assert bound.error_bits <= measured_noise_bits(noise_ctx, ct, x)

    ct = ev.square_relinearize_rescale(ct)
    x = x * x
    bound = estimator.square_relinearize_rescale(bound)
    assert bound.error_bits <= measured_noise_bits(noise_ctx, ct, x)

    ct = ev.rotate(ct, 2)
    x = np.roll(x, -2)
    bound = estimator.rotate(bound)
    assert bound.error_bits <= measured_noise_bits(noise_ctx, ct, x)
    assert bound.level == ct.level
    assert bound.scale == pytest.approx(ct.scale)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_conservative_property(seed):
    """Property: for random messages/weights, fresh + PCmult bounds hold."""
    ctx = _shared_ctx()
    est = NoiseEstimator.for_context(ctx)
    ev = Evaluator(ctx)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, ctx.slot_count)
    w = rng.uniform(-1, 1, ctx.slot_count)
    ct = ev.multiply_values_rescale(ctx.encrypt_values(x), w)
    bound = est.multiply_values_rescale(est.fresh(1.0), 1.0)
    assert bound.error_bits <= measured_noise_bits(ctx, ct, x * w)


_CTX_CACHE = {}


def _shared_ctx():
    if "ctx" not in _CTX_CACHE:
        _CTX_CACHE["ctx"] = CkksContext(tiny_test_params(512, 4), seed=31)
    return _CTX_CACHE["ctx"]


def test_add_combines_bounds(estimator):
    a = estimator.fresh(1.0)
    b = estimator.fresh(2.0)
    c = estimator.add(a, b)
    assert c.error == pytest.approx(a.error + b.error)
    assert c.message == 3.0


def test_add_rejects_mismatched(estimator):
    a = estimator.fresh(1.0)
    b = estimator.rescale(estimator.multiply_plain(a, 1.0))
    with pytest.raises(ValueError):
        estimator.add(a, b)


def test_error_grows_monotonically(estimator):
    bound = estimator.fresh(1.0)
    errors = [bound.error]
    for _ in range(3):
        bound = estimator.multiply_values_rescale(bound, 1.0)
        errors.append(bound.error)
    assert errors == sorted(errors)


def test_error_bits_of_zero_error():
    from repro.fhe.noise import NoiseBound

    b = NoiseBound(error=0.0, message=1.0, level=3, scale=2.0**26)
    assert b.error_bits == float("inf")


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_bounds_conservative_under_every_backend(backend):
    """The analytic bounds are backend-agnostic claims: whatever kernel
    backend executes the NTTs (including the hoisted-rotation fold fast
    path), ``measured_noise_bits`` must never fall below the bound."""
    with kernels.using_backend(backend):
        ctx = CkksContext(tiny_test_params(512, 5), seed=13)
        ctx.ensure_relin_keys()
        # Composite steps 3/5/6/7 let the fold of [4, 2, 1] run as one
        # hoisted Halevi-Shoup group.
        ctx.ensure_galois_keys([1, 2, 3, 4, 5, 6, 7])
        est = NoiseEstimator.for_context(ctx)
        ev = Evaluator(ctx)
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, ctx.slot_count)
        w = rng.uniform(-1, 1, ctx.slot_count)

        ct = ctx.encrypt_values(x)
        bound = est.fresh(1.0)
        assert bound.error_bits <= measured_noise_bits(ctx, ct, x)

        ct = ev.multiply_values_rescale(ct, w)
        x = x * w
        bound = est.multiply_values_rescale(bound, 1.0)
        assert bound.error_bits <= measured_noise_bits(ctx, ct, x)

        ct = ev.square_relinearize_rescale(ct)
        x = x * x
        bound = est.square_relinearize_rescale(bound)
        assert bound.error_bits <= measured_noise_bits(ctx, ct, x)

        # Hoisted rotate-and-sum fold.
        ct = ev.rotate_fold(ct, [4, 2, 1])
        x = sum(np.roll(x, -j) for j in range(8))
        for _ in range(3):  # three logical rotate-and-add steps
            bound = est.add(bound, est.rotate(bound))
        assert bound.error_bits <= measured_noise_bits(ctx, ct, x)
        assert bound.level == ct.level


def test_depth_capacity_paper_claim():
    """Paper Sec. VII-A: L=7 'to support the multiplication depth of the
    two 5-layer networks' — the analytic budget must certify depth >= 5."""
    assert depth_capacity(fxhenn_mnist_params()) >= 5


def test_depth_capacity_shrinks_with_level():
    deep = depth_capacity(tiny_test_params(512, 6))
    shallow = depth_capacity(tiny_test_params(512, 3))
    assert deep > shallow
