"""Elastic fleet autoscaler: control loop, spin-up costs, billing."""

from __future__ import annotations

import pytest

from repro import obs
from repro.caching import LruCache
from repro.fpga import acu15eg
from repro.obs.flight import FLIGHT
from repro.obs.registry import REGISTRY
from repro.serve import (
    AutoscalerConfig,
    FleetAutoscaler,
    SchedulerConfig,
    Slo,
    SpinUpCostModel,
    held_fraction,
    p99_windows,
    uniform_arrivals,
)
from repro.serve.records import RequestResult, ServeReport

#: Small deterministic overload: 120 uniform arrivals at 4/s against a
#: 1-node capacity of 8 lanes / 6.19 s ~ 1.3/s, so the queue crosses
#: ``queue_high`` within a few control ticks and drains after arrivals
#: stop — one scale-up, one scale-down, all inside ~60 virtual seconds.
_SLOS = (Slo("p99", "p99_latency_s", 500.0, window=50),)


def _policy(**overrides) -> AutoscalerConfig:
    base = dict(
        min_nodes=1, max_nodes=2, evaluate_every_s=2.0, cooldown_s=6.0,
        scale_up_after=2, scale_down_after=3, queue_high=20, queue_low=2,
    )
    base.update(overrides)
    return AutoscalerConfig(**base)


def _scaler(planner, contexts, **policy_overrides) -> FleetAutoscaler:
    return FleetAutoscaler(
        acu15eg(), policy=_policy(**policy_overrides), planner=planner,
        contexts=contexts, config=SchedulerConfig(max_lanes=8),
        slos=_SLOS,
    )


@pytest.fixture(scope="module")
def planner():
    from repro.cluster import FleetPlanner

    return FleetPlanner()


@pytest.fixture()
def elastic(planner):
    """One full elastic session, with observability snapshots."""
    contexts = LruCache(8, name="context", flight=True)
    scaler = _scaler(planner, contexts)
    with obs.observed():
        obs.reset()
        before = REGISTRY.counter("dse_points_scanned").value
        report = scaler.run(uniform_arrivals(120, 4.0))
        snapshot = {
            "dse_scanned":
                REGISTRY.counter("dse_points_scanned").value - before,
            "flight_up": FLIGHT.events("scale_up"),
            "flight_down": FLIGHT.events("scale_down"),
            "flight_resized": FLIGHT.events("fleet_resized"),
            "up_total": REGISTRY.counter(
                "autoscale_decisions_total", action="scale_up").value,
            "down_total": REGISTRY.counter(
                "autoscale_decisions_total", action="scale_down").value,
            "fleet_size": REGISTRY.gauge("fleet_size").value,
            "trace": list(obs.get_tracer().events()),
        }
    return scaler, report, snapshot


# -- validation ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(min_nodes=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_nodes=3, max_nodes=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(evaluate_every_s=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(scale_up_after=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(queue_high=5, queue_low=10)
    with pytest.raises(ValueError):
        AutoscalerConfig(p99_slack=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(step=0)
    with pytest.raises(ValueError):
        SpinUpCostModel(keygen_s=-1.0)


def test_max_nodes_capped_by_pipeline_depth():
    # The batched CryptoNets trace has 5 layers; a 6-node fleet cannot
    # host a contiguous split.  Checked before any DSE runs.
    with pytest.raises(ValueError, match="pipeline depth"):
        FleetAutoscaler(
            acu15eg(), policy=AutoscalerConfig(max_nodes=6), prewarm=False,
        )


# -- spin-up cost model ----------------------------------------------------


def test_charge_waives_components_per_cache():
    model = SpinUpCostModel(node_warm_s=0.5, keygen_s=30.0, design_warm_s=5.0)
    assert model.charge(True, True) == pytest.approx(0.5)
    assert model.charge(False, True) == pytest.approx(5.5)
    assert model.charge(True, False) == pytest.approx(30.5)
    assert model.charge(False, False) == pytest.approx(35.5)


# -- window verdicts -------------------------------------------------------


def _report(finishes_and_latencies) -> ServeReport:
    results = [
        RequestResult(
            request_id=i, outcome="cluster", arrival_s=f - lat,
            start_s=f - lat, finish_s=f, batch_id=0,
        )
        for i, (f, lat) in enumerate(finishes_and_latencies)
    ]
    return ServeReport(results=tuple(results), batches=(), config={})


def test_p99_windows_buckets_by_finish_time():
    report = _report([(1.0, 0.5), (1.5, 0.7), (11.0, 9.0), (25.0, 0.2)])
    rows = p99_windows(report, window_s=10.0, threshold_s=1.0)
    assert [r["samples"] for r in rows] == [2, 1, 1]
    assert [r["ok"] for r in rows] == [True, False, True]
    assert held_fraction(report, 10.0, 1.0) == pytest.approx(2 / 3)


def test_p99_windows_start_offset_and_empty():
    report = _report([(1.0, 5.0), (21.0, 0.1)])
    # Skipping past the early breach leaves only passing windows.
    assert held_fraction(report, 10.0, 1.0, start_s=20.0) == 1.0
    assert held_fraction(report, 10.0, 1.0, start_s=30.0) == 1.0  # empty
    with pytest.raises(ValueError):
        p99_windows(report, 0.0, 1.0)


# -- the control loop ------------------------------------------------------


def test_overload_scales_up_then_drains_down(elastic):
    scaler, report, snap = elastic
    actions = [d.action for d in report.resizes]
    assert actions == ["scale_up", "scale_down"]
    up, down = report.resizes
    assert up.from_nodes == 1 and up.to_nodes == 2
    assert down.from_nodes == 2 and down.to_nodes == 1
    # Prewarmed deployment: the scale-up hits hot caches and charges
    # only base provisioning — zero keygen, zero DSE seconds.
    assert up.warm is True
    assert up.spin_up_s == pytest.approx(scaler.spin_up.node_warm_s)
    assert up.effective_s == pytest.approx(up.at_s + up.spin_up_s)
    assert snap["dse_scanned"] == 0
    # Drain-before-retire: the retiring node is billed past the decision.
    assert down.drain_until_s is not None
    assert down.drain_until_s >= down.at_s
    assert report.serve.completed == 120
    assert report.serve.rejected == 0 and report.serve.expired == 0


def test_timeline_and_billing_account_the_elastic_fleet(elastic):
    _, report, _ = elastic
    assert report.timeline[0] == (0.0, 1)
    assert report.peak_nodes == 2
    sizes = [s for _, s in report.timeline]
    assert sizes == [1, 2, 1]
    # Billed node-seconds sit strictly between always-min and always-max.
    assert report.end_s * 1 < report.node_seconds < report.end_s * 2
    # The scale-up is billed from decision time and the retiring node
    # until drain, so billing exceeds the serving-timeline integral.
    (t0, _), (t1, _), (t2, _) = report.timeline
    serving_integral = (
        1 * (t1 - t0) + 2 * (t2 - t1) + 1 * (report.end_s - t2)
    )
    assert report.node_seconds > serving_integral


def test_every_decision_lands_in_flight_and_registry(elastic):
    _, report, snap = elastic
    assert snap["up_total"] == 1 and snap["down_total"] == 1
    assert len(snap["flight_up"]) == 1
    assert snap["flight_up"][0]["fleet_size"] == 2
    assert snap["flight_up"][0]["warm"] is True
    assert len(snap["flight_down"]) == 1
    # The deferred activation lands its own event when the plan swaps.
    assert [e["fleet_size"] for e in snap["flight_resized"]] == [2]
    assert snap["fleet_size"] == 1  # back at min after the drain
    spans = [e for e in snap["trace"] if e.get("cat") == "autoscale"]
    names = {e["name"] for e in spans}
    assert "spin_up 1->2" in names
    assert "drain 2->1" in names
    assert any(e["name"] == "autoscale.serve" for e in spans)
    up = report.resizes[0]
    spin = next(e for e in spans if e["name"] == "spin_up 1->2")
    assert spin["ts"] == pytest.approx(up.at_s * 1e6)


def test_cooldown_suppresses_flapping_once_per_streak(planner):
    # A long cooldown after the scale-up vetoes the post-drain
    # scale-down: the wanted decision surfaces as one flap_suppressed
    # event, not one per tick.
    contexts = LruCache(8, name="context", flight=True)
    scaler = _scaler(planner, contexts, cooldown_s=50.0)
    with obs.observed():
        obs.reset()
        report = scaler.run(uniform_arrivals(120, 4.0))
        suppressed_total = REGISTRY.counter(
            "autoscale_decisions_total", action="flap_suppressed"
        ).value
        flight = FLIGHT.events("flap_suppressed")
    suppressed = [
        d for d in report.decisions if d.action == "flap_suppressed"
    ]
    assert len(suppressed) == 1
    assert "scale_down" in suppressed[0].reason
    assert suppressed[0].from_nodes == suppressed[0].to_nodes == 2
    assert [d.action for d in report.resizes] == ["scale_up"]
    assert suppressed_total == 1
    assert len(flight) == 1
    assert flight[0]["wanted"] == "scale_down"


def test_prewarm_provisions_the_callers_empty_context_cache(planner):
    # An empty cache is falsy (``__len__``); the autoscaler must still
    # use the caller's cache rather than a fresh default.
    contexts = LruCache(8, name="context", flight=True)
    scaler = _scaler(planner, contexts)
    assert scaler.contexts is contexts
    assert len(contexts) == 1


def test_cold_context_scale_up_charges_keygen(planner):
    # Warm design cache (shared planner) but a fresh, unprovisioned
    # context cache: the first scale-up pays keygen but no DSE.
    scaler = FleetAutoscaler(
        acu15eg(), policy=_policy(), planner=planner,
        contexts=LruCache(8, name="context", flight=True),
        config=SchedulerConfig(max_lanes=8),
        slos=_SLOS, prewarm=False,
    )
    report = scaler.run(uniform_arrivals(120, 4.0))
    up = next(d for d in report.resizes if d.action == "scale_up")
    assert up.warm is False
    expected = scaler.spin_up.node_warm_s + scaler.spin_up.keygen_s
    assert up.spin_up_s == pytest.approx(expected)


def test_report_round_trips_to_dict(elastic):
    _, report, _ = elastic
    d = report.as_dict()
    assert d["peak_nodes"] == 2
    assert d["node_seconds"] == pytest.approx(report.node_seconds)
    assert len(d["decisions"]) == len(report.decisions)
    assert d["timeline"][0] == [0.0, 1]
    assert d["policy"]["max_nodes"] == 2
    assert d["spin_up"]["keygen_s"] == report.spin_up["keygen_s"]
    assert d["serve"]["config"]["autoscale"]["device"] == "ACU15EG"
