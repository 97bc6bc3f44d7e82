"""Regression tests: DSE scan statistics reach the obs registry.

Pinned here: ``enumerate_feasible`` used to collect no scan statistics at
all, so the Fig. 9 sweep path published nothing to the ``dse_points_*``
counters; and ``explore``'s counters must equal its result telemetry.
"""

from __future__ import annotations

from repro import obs
from repro.core import DesignSpace, enumerate_feasible, explore


def test_explore_counters_match_result_telemetry(mnist_trace, dev9):
    with obs.observed():
        obs.reset()
        result = explore(mnist_trace, dev9)
    reg = obs.get_registry()
    assert reg.counter("dse_points_scanned").value == result.evaluated
    assert reg.counter("dse_points_feasible").value == result.feasible
    assert reg.counter("dse_points_dsp_pruned").value == result.dsp_pruned
    assert (
        reg.counter("dse_incumbent_improvements").value
        == result.improvements
    )
    assert result.evaluated == DesignSpace().size()


def test_enumerate_feasible_publishes_scan_stats(mnist_trace, dev9):
    with obs.observed():
        obs.reset()
        solutions = enumerate_feasible(mnist_trace, dev9)
    reg = obs.get_registry()
    assert reg.counter("dse_points_scanned").value == DesignSpace().size()
    assert reg.counter("dse_points_feasible").value == len(solutions)
    assert reg.counter("dse_points_dsp_pruned").value > 0
    # The sweep path has no incumbent, so no improvements — the counter
    # exists but stays at zero.
    assert reg.counter("dse_incumbent_improvements").value == 0
