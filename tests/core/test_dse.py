"""Tests for the exhaustive design space exploration.

``explore`` and ``enumerate_feasible`` price the whole space as arrays;
:func:`_oracle` is the per-point scan they must equal: every point built,
evaluated by the scalar model and compared with ``_better``, in scan order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    DesignSolution,
    DesignSpace,
    InfeasibleDesignError,
    enumerate_feasible,
    explore,
)
from repro.core.dse import _better
from repro.fpga import acu9eg, acu15eg, zcu104


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
    with pytest.raises(InfeasibleDesignError):
        explore(mnist_trace, dev9, dsp_limit=1)
    with pytest.raises(InfeasibleDesignError, match="DSP<= 0"):
        explore(mnist_trace, dev9, dsp_limit=0)
    empty = DesignSpace(nc_ntt_choices=())
    assert empty.size() == 0
    assert enumerate_feasible(mnist_trace, dev9, space=empty) == []
    with pytest.raises(InfeasibleDesignError):
        explore(mnist_trace, dev9, space=empty)


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


def _oracle(trace, device, space, dsp_limit=None, bram_limit=None):
    """The exhaustive per-point scan.

    Returns the best solution (``None`` if no point fits), the feasible
    solutions in scan order, the count of points over the DSP limit, and
    each incumbent's ``(latency_cycles, scanned, feasible)``.
    """
    effective_dsp = dsp_limit if dsp_limit is not None else device.dsp_slices
    best, feasible, over_dsp, incumbents = None, [], 0, []
    for scanned, point in enumerate(space.points(), start=1):
        over_dsp += point.dsp_usage() > effective_dsp
        solution = DesignSolution.evaluate(
            point, trace, device, bram_limit=bram_limit
        )
        if not solution.is_feasible(dsp_limit=dsp_limit, bram_limit=bram_limit):
            continue
        feasible.append(solution)
        if best is None or _better(solution, best):
            best = solution
            incumbents.append((best.latency_cycles, scanned, len(feasible)))
    return best, feasible, over_dsp, incumbents


def _check_against_oracle(trace, device, space, **limits):
    """``explore`` and ``enumerate_feasible`` equal the oracle: the same
    winner, counts, incumbent events and feasible list.  Returns the
    result and its ``dse_incumbent`` events (``None`` if infeasible)."""
    best, feasible, over_dsp, incumbents = _oracle(
        trace, device, space, **limits
    )
    assert enumerate_feasible(trace, device, space=space, **limits) == feasible
    if best is None:
        with pytest.raises(InfeasibleDesignError):
            explore(trace, device, space=space, **limits)
        return None
    with obs.observed():
        obs.reset()
        result = explore(trace, device, space=space, **limits)
        events = obs.FLIGHT.events("dse_incumbent")
    assert result.best == best
    assert (
        result.evaluated, result.feasible, result.dsp_pruned,
        result.improvements,
    ) == (space.size(), len(feasible), over_dsp, len(incumbents))
    assert [
        (e["latency_cycles"], e["scanned"], e["feasible"]) for e in events
    ] == incumbents
    return result, events


@pytest.fixture(scope="session")
def traces(mnist_trace, cifar_trace, tiny_trace):
    return {"mnist": mnist_trace, "cifar10": cifar_trace, "tiny": tiny_trace}


DEVICES = {"acu9eg": acu9eg(), "acu15eg": acu15eg(), "zcu104": zcu104()}
ORACLE_CASES = [
    *(
        pytest.param(net, dev, DesignSpace(), {}, id=f"{net}-{dev}")
        for net in ("mnist", "cifar10", "tiny")
        for dev in DEVICES
    ),
    pytest.param(
        "mnist", "acu9eg", DesignSpace(), {"bram_limit": 700},
        id="mnist-acu9eg-bram700",
    ),
    pytest.param(
        "mnist", "acu9eg", DesignSpace(),
        {"dsp_limit": 1500, "bram_limit": 300},
        id="mnist-acu9eg-dsp1500-bram300",
    ),
    pytest.param(
        "cifar10", "acu15eg", DesignSpace(), {"dsp_limit": 2000},
        id="cifar10-acu15eg-dsp2000",
    ),
    *(
        pytest.param(net, "acu9eg", space, {}, id=f"{net}-{name}")
        for net in ("mnist", "cifar10")
        for name, space in (
            ("nc2", DesignSpace(nc_ntt_choices=(2,))),
            ("nc842-intra9-inter5", DesignSpace(
                nc_ntt_choices=(8, 4, 2), max_intra=9, max_inter=5
            )),
            ("intra3-inter2", DesignSpace(max_intra=3, max_inter=2)),
        )
    ),
]


@pytest.mark.parametrize("network,device,space,limits", ORACLE_CASES)
def test_explore_matches_oracle(traces, network, device, space, limits):
    assert _check_against_oracle(
        traces[network], DEVICES[device], space, **limits
    ) is not None


def test_pruned_explore_identical_to_naive(mnist_trace, dev9):
    """The whole-space evaluation, which replaced the pruned scan, finds
    the naive per-point scan's design with the same counts."""
    naive, feasible, _, _ = _oracle(mnist_trace, dev9, DesignSpace())
    result = explore(mnist_trace, dev9)
    assert result.best == naive
    assert result.evaluated == DesignSpace().size()
    assert result.feasible == len(feasible)


def test_enumerate_prune_flag_is_exact(mnist_trace, dev9):
    """``enumerate_feasible`` lists the naive scan's feasible designs, in
    its order."""
    _, feasible, _, _ = _oracle(mnist_trace, dev9, DesignSpace())
    assert enumerate_feasible(mnist_trace, dev9) == feasible


def test_repeated_choices_keep_the_first_copy(mnist_trace, dev9):
    """Every point of ``(4, 4)`` appears twice with equal keys: the first
    copy wins, and no point of the second copy counts as an improvement."""
    space = DesignSpace(nc_ntt_choices=(4, 4))
    result, events = _check_against_oracle(mnist_trace, dev9, space)
    single, single_events = _check_against_oracle(
        mnist_trace, dev9, DesignSpace(nc_ntt_choices=(4,))
    )
    assert result.best == single.best
    assert result.feasible == 2 * single.feasible
    assert events and all(e["scanned"] <= space.size() // 2 for e in events)
    assert [e["scanned"] for e in events] == [
        e["scanned"] for e in single_events
    ]


@settings(max_examples=40, deadline=None)
@given(
    network=st.sampled_from(["mnist", "tiny"]),
    device=st.sampled_from(sorted(DEVICES)),
    nc_choices=st.lists(st.sampled_from((2, 4, 8)), max_size=3),
    max_intra=st.integers(1, 3),
    max_inter=st.integers(1, 2),
    dsp_limit=st.none() | st.integers(300, 4000),
    bram_limit=st.none() | st.integers(100, 1500),
)
def test_explore_matches_oracle_on_random_spaces(
    traces, network, device, nc_choices, max_intra, max_inter,
    dsp_limit, bram_limit,
):
    space = DesignSpace(tuple(nc_choices), max_intra, max_inter)
    _check_against_oracle(
        traces[network], DEVICES[device], space,
        dsp_limit=dsp_limit, bram_limit=bram_limit,
    )
