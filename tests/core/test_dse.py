"""Tests for the exhaustive design space exploration."""

from __future__ import annotations

import pytest

from repro.core import (
    DesignSpace,
    InfeasibleDesignError,
    enumerate_feasible,
    explore,
)


def test_space_size_is_a_few_thousand():
    """Paper Sec. VI-B: 'a few thousand design points'."""
    space = DesignSpace()
    assert 1000 < space.size() < 10_000
    assert space.size() == len(list(space.points()))


def test_space_validation():
    with pytest.raises(ValueError):
        DesignSpace(max_intra=0)


def test_explore_finds_feasible_optimum(mnist_trace, dev9):
    result = explore(mnist_trace, dev9)
    assert result.evaluated == DesignSpace().size()
    assert 0 < result.feasible <= result.evaluated
    assert result.best.is_feasible()
    # The optimum dominates every other feasible point on latency.
    for sol in enumerate_feasible(mnist_trace, dev9):
        assert result.best.latency_cycles <= sol.latency_cycles


def test_explore_respects_dsp_limit(mnist_trace, dev9):
    tight = explore(mnist_trace, dev9, dsp_limit=600)
    assert tight.best.dsp_usage <= 600
    loose = explore(mnist_trace, dev9)
    assert loose.best.latency_cycles <= tight.best.latency_cycles


def test_explore_respects_bram_limit(mnist_trace, dev9):
    tight = explore(mnist_trace, dev9, bram_limit=400)
    assert tight.best.bram_peak <= 400
    loose = explore(mnist_trace, dev9)
    assert loose.best.latency_cycles <= tight.best.latency_cycles


def test_infeasible_raises(mnist_trace, dev9):
    with pytest.raises(InfeasibleDesignError):
        explore(mnist_trace, dev9, bram_limit=5)


def test_more_resources_never_hurt(mnist_trace, dev9, dev15):
    """The bigger device's optimum is at least as fast (DSE sanity)."""
    r9 = explore(mnist_trace, dev9)
    r15 = explore(mnist_trace, dev15)
    assert r15.best.latency_seconds <= r9.best.latency_seconds


def test_mnist_latency_in_paper_regime(mnist_trace, dev9, dev15):
    """Table VII: FxHENN-MNIST at 0.24 s (ACU9EG) / 0.19 s (ACU15EG).

    Our model must land within 3x of the paper's absolute numbers and
    preserve the device ordering.
    """
    lat9 = explore(mnist_trace, dev9).best.latency_seconds
    lat15 = explore(mnist_trace, dev15).best.latency_seconds
    assert 0.24 / 3 < lat9 < 0.24 * 3
    assert 0.19 / 3 < lat15 < 0.19 * 3
    assert lat15 < lat9


def test_cifar_latency_in_paper_regime(cifar_trace, dev9, dev15):
    """Table VII: FxHENN-CIFAR10 at 254 s (ACU9EG) / 54.1 s (ACU15EG)."""
    lat9 = explore(cifar_trace, dev9).best.latency_seconds
    lat15 = explore(cifar_trace, dev15).best.latency_seconds
    assert 254 / 5 < lat9 < 254 * 5
    assert 54.1 / 5 < lat15 < 54.1 * 5
    assert lat15 < lat9  # the URAM-rich device wins decisively
    assert lat9 / lat15 > 1.5


def test_enumerate_feasible_consistency(mnist_trace, dev9):
    sols = enumerate_feasible(mnist_trace, dev9, bram_limit=700)
    assert sols
    assert all(s.is_feasible(bram_limit=700) for s in sols)


def test_pruned_explore_identical_to_naive(mnist_trace, dev9):
    """DSP pre-check + latency lower-bound pruning are exact: same best
    solution, same evaluated/feasible counts as the unpruned scan."""
    naive = explore(mnist_trace, dev9, prune=False)
    pruned = explore(mnist_trace, dev9, prune=True)
    assert pruned.best == naive.best
    assert pruned.evaluated == naive.evaluated
    assert pruned.feasible == naive.feasible


def test_pruned_explore_identical_under_limits(mnist_trace, dev9):
    naive = explore(mnist_trace, dev9, prune=False, bram_limit=700)
    pruned = explore(mnist_trace, dev9, prune=True, bram_limit=700)
    assert pruned == naive


def test_enumerate_prune_flag_is_exact(mnist_trace, dev9):
    assert enumerate_feasible(mnist_trace, dev9, prune=True) == (
        enumerate_feasible(mnist_trace, dev9, prune=False)
    )
