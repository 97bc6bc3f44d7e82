"""Tests for the energy/efficiency accounting used by Table VII."""

from __future__ import annotations

import pytest

from repro.fpga import PlatformResult, energy_efficiency, speedup


def test_energy_joules():
    r = PlatformResult(platform="X", tdp_watts=10.0, latency_seconds=0.2)
    assert r.energy_joules == pytest.approx(2.0)


def test_speedup_and_efficiency():
    fpga = PlatformResult(platform="FPGA", tdp_watts=10.0, latency_seconds=0.24)
    cpu = PlatformResult(platform="CPU", tdp_watts=880.0, latency_seconds=2.2)
    assert speedup(fpga, cpu) == pytest.approx(2.2 / 0.24)
    assert energy_efficiency(fpga, cpu) == pytest.approx(
        (880 * 2.2) / (10 * 0.24)
    )


def test_paper_headline_mnist_efficiency():
    """The paper's 806.96x energy-efficiency claim for FxHENN-MNIST on
    ACU9EG vs LoLa on an 8x110 W Azure VM follows from their numbers."""
    fx = PlatformResult(platform="ACU9EG", tdp_watts=10, latency_seconds=0.24)
    lola = PlatformResult(platform="Azure", tdp_watts=8 * 110, latency_seconds=2.2)
    assert energy_efficiency(fx, lola) == pytest.approx(806.67, rel=0.01)


def test_validation():
    with pytest.raises(ValueError):
        PlatformResult(platform="X", tdp_watts=0, latency_seconds=1)
    with pytest.raises(ValueError):
        PlatformResult(platform="X", tdp_watts=1, latency_seconds=0)


def test_cluster_energy_sums_stage_occupancy():
    from repro.fpga import cluster_energy_per_inference

    # Two 10 W stages busy 0.1 s each plus a 20 W stage busy 0.05 s.
    stages = [(10.0, 0.1), (10.0, 0.1), (20.0, 0.05)]
    assert cluster_energy_per_inference(stages) == pytest.approx(3.0)


def test_cluster_energy_idle_stage_costs_nothing():
    from repro.fpga import cluster_energy_per_inference

    assert cluster_energy_per_inference([(10.0, 0.0)]) == 0.0


def test_cluster_energy_validation():
    from repro.fpga import cluster_energy_per_inference

    with pytest.raises(ValueError):
        cluster_energy_per_inference([(0.0, 0.1)])
    with pytest.raises(ValueError):
        cluster_energy_per_inference([(10.0, -0.1)])


def test_cluster_energy_matches_plan_accounting():
    """The plan's per-inference energy equals summing its stages by hand."""
    from repro.cluster import Fleet, FleetPlanner
    from repro.fpga import acu9eg
    from repro.hecnn import fxhenn_mnist_model

    plan = FleetPlanner().plan(
        fxhenn_mnist_model().trace(), Fleet.homogeneous(acu9eg(), 2)
    )
    want = sum(
        s.device.tdp_watts * s.compute_seconds for s in plan.stages
    )
    assert plan.energy_per_inference_joules == pytest.approx(want)
