"""End-to-end wiring: probes fire from the evaluator, network, DSE, sim."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import DesignSpace, FxHennFramework, explore
from repro.fhe import ntt
from repro.fpga import acu9eg
from repro.sim import AcceleratorSimulator


@pytest.fixture(scope="module")
def mnist_trace():
    from repro.hecnn import fxhenn_mnist_model

    return fxhenn_mnist_model().trace()


def test_evaluator_ops_emit_spans_and_gauges(ctx, evaluator, rng):
    values = rng.uniform(-1, 1, ctx.params.poly_degree // 2)
    with obs.observed():
        obs.reset()
        ct = ctx.encrypt_values(values)
        pt = ctx.encode(np.full_like(values, 0.5), level=ct.level)
        ct2 = evaluator.multiply_plain(ct, pt)
        ct2 = evaluator.rescale(ct2)
        evaluator.add(ct2, ct2)
    reg = obs.get_registry()
    assert reg.counter("he_ops_total", op="PCmult").value == 1
    assert reg.counter("he_ops_total", op="Rescale").value == 1
    assert reg.counter("he_ops_total", op="CCadd").value == 1
    # Post-op ciphertext state gauges track the rescale output.
    assert reg.gauge("ciphertext_level", op="Rescale").value == ct2.level
    assert reg.gauge("ciphertext_scale_log2", op="Rescale").value > 0
    cats = {e["cat"] for e in obs.get_tracer().events()}
    assert cats == {"he_op"}
    names = {e["name"] for e in obs.get_tracer().events()}
    assert {"PCmult", "Rescale", "CCadd"} <= names


def test_evaluator_disabled_emits_nothing(ctx, evaluator, rng):
    values = rng.uniform(-1, 1, ctx.params.poly_degree // 2)
    assert not obs.enabled()
    ct = ctx.encrypt_values(values)
    evaluator.add(ct, ct)
    assert obs.get_tracer().events() == []
    assert obs.get_registry().counter("he_ops_total", op="CCadd").value == 0


def test_transform_counters_count_into_registry():
    """Each transform bumps the direction totals and the counters labelled
    with the backend that ran it, even with observability off."""
    reg = obs.get_registry()
    totals = reg.counter("ntt_transform_rows", direction="forward")
    calls = reg.counter("ntt_transform_calls", direction="forward")
    mont = reg.counter(
        "ntt_transform_rows", direction="forward", backend="montgomery"
    )
    before = (totals.value, calls.value, mont.value)
    ntt.count_transform("forward", 7, "montgomery")
    assert (totals.value, calls.value, mont.value) == (
        before[0] + 7, before[1] + 1, before[2] + 7
    )


def test_noise_profile_publishes_per_layer_gauges():
    from repro.fhe import CkksContext, tiny_test_params
    from repro.hecnn import tiny_mnist_model

    params = tiny_test_params(poly_degree=512, level=7)
    model = tiny_mnist_model(seed=0, params=params)
    context = CkksContext(params, seed=1)
    with obs.observed():
        obs.reset()
        profile = model.noise_profile(context)
    assert [name for name, _ in profile] == [ly.name for ly in model.layers]
    reg = obs.get_registry()
    for name, bound in profile:
        gauge = reg.gauge("noise_budget_bits", layer=name)
        assert gauge.value == pytest.approx(bound.error_bits)
    # Budgets only shrink as levels are consumed.
    bits = [bound.error_bits for _, bound in profile]
    assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:]))


def test_dse_result_carries_scan_statistics(mnist_trace):
    dev = acu9eg()
    result = explore(mnist_trace, dev)
    space = DesignSpace().size()
    assert result.evaluated == space
    assert result.dsp_pruned + result.bound_pruned < space
    assert result.dsp_pruned > 0  # most of the default space is DSP-infeasible
    assert result.improvements >= 1
    naive = explore(mnist_trace, dev, prune=False)
    assert naive.dsp_pruned == 0 and naive.bound_pruned == 0
    assert naive == result  # telemetry fields excluded from equality


def test_dse_progress_callback_sees_incumbents(mnist_trace):
    events = []
    result = explore(mnist_trace, acu9eg(), progress=events.append)
    assert len(events) == result.improvements
    assert all(e["event"] == "incumbent" for e in events)
    latencies = [e["latency_cycles"] for e in events]
    assert latencies == sorted(latencies, reverse=True)
    assert latencies[-1] == result.best.latency_cycles


def test_dse_publishes_registry_counters_when_enabled(mnist_trace):
    with obs.observed():
        obs.reset()
        result = explore(mnist_trace, acu9eg())
    reg = obs.get_registry()
    assert reg.counter("dse_points_scanned").value == result.evaluated
    assert reg.counter("dse_points_feasible").value == result.feasible
    assert reg.counter("dse_points_dsp_pruned").value == result.dsp_pruned
    spans = [e for e in obs.get_tracer().events() if e["cat"] == "dse"]
    assert len(spans) == 1
    assert spans[0]["args"]["scanned"] == result.evaluated


def test_simulator_emits_layer_spans(mnist_trace):
    dev = acu9eg()
    design = FxHennFramework().generate(mnist_trace, dev)
    sim = AcceleratorSimulator(dev)
    with obs.observed():
        obs.reset()
        report = sim.simulate(mnist_trace, design.solution)
    events = obs.get_tracer().events()
    layer_events = [e for e in events if e["cat"] == "sim_layer"]
    assert len(layer_events) == len(report.layers)
    for event, layer in zip(layer_events, report.layers):
        assert event["name"] == layer.name
        assert event["args"]["simulated_cycles"] == layer.simulated_cycles
        assert event["args"]["analytic_cycles"] == layer.analytic_cycles
    h = obs.get_registry().histogram("sim_relative_error")
    assert h.count == len(report.layers)
