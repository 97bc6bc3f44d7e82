"""Tests for the network-level simulator and model validation."""

from __future__ import annotations

import pytest

from repro.core import FxHennFramework, explore
from repro.fpga import acu9eg
from repro.hecnn import fxhenn_mnist_model
from repro.sim import AcceleratorSimulator


@pytest.fixture(scope="module")
def mnist_sim():
    trace = fxhenn_mnist_model().trace()
    design = FxHennFramework().generate(trace, acu9eg())
    report = AcceleratorSimulator(acu9eg()).simulate(trace, design.solution)
    return trace, design, report


def test_simulation_covers_all_layers(mnist_sim):
    trace, _, report = mnist_sim
    assert [l.name for l in report.layers] == [lt.name for lt in trace.layers]
    assert report.network == trace.name
    assert report.device == "ACU9EG"


def test_simulated_total_matches_analytic(mnist_sim):
    """The discrete simulation validates Eqs. 1-3 end to end: totals agree
    within pipeline fill/drain effects (<15%)."""
    _, design, report = mnist_sim
    assert report.analytic_cycles == design.solution.latency_cycles
    assert abs(report.relative_error) < 0.15


def test_dominant_layer_agrees_tightly(mnist_sim):
    """Fc1 dominates MNIST latency; on a long pipeline the fill effects
    vanish and simulation matches the formula within 5%."""
    _, _, report = mnist_sim
    fc1 = next(l for l in report.layers if l.name == "Fc1")
    assert abs(fc1.relative_error) < 0.05


def test_simulation_never_faster_than_bound(mnist_sim):
    """Fill/drain can only add cycles for the KS-dominated layers."""
    _, _, report = mnist_sim
    for layer in report.layers:
        if layer.kind == "KS" and layer.analytic_cycles > 10**6:
            assert layer.simulated_cycles >= 0.95 * layer.analytic_cycles


def test_simulated_seconds(mnist_sim):
    _, design, report = mnist_sim
    secs = report.simulated_cycles / design.device.clock_hz
    assert 0.5 * design.latency_seconds < secs < 2 * design.latency_seconds


def test_spill_budget_slows_simulation(mnist_sim):
    trace, design, _ = mnist_sim
    sim = AcceleratorSimulator(acu9eg())
    fc1 = trace.layer("Fc1")
    rich = sim.simulate_layer(fc1, design.solution.point, 8192, 30, bram_budget=10_000)
    poor = sim.simulate_layer(fc1, design.solution.point, 8192, 30, bram_budget=300)
    assert poor > rich


def test_bram_limited_design_simulates_at_its_limit():
    """A design explored under ``bram_limit`` keeps that budget: the
    simulator spills at the limit the layers were priced at, not at the
    device's BRAM."""
    trace = fxhenn_mnist_model().trace()
    solution = explore(trace, acu9eg(), bram_limit=400).best
    assert solution.bram_budget == 400
    assert solution.is_feasible()
    report = AcceleratorSimulator(acu9eg()).simulate(trace, solution)
    assert report.analytic_cycles == solution.latency_cycles
    assert abs(report.relative_error) < 0.25
