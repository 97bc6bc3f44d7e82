"""Cost ledger: exact splits, reconciliation, loop integrations."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.registry import REGISTRY
from repro.serve import SchedulerConfig, SlotBatchScheduler
from repro.serve.costs import (
    METRICS,
    UNKEYED,
    CostLedger,
    split_exact,
)
from repro.serve.request import InferenceRequest
from repro.serve.tenants import TenantShardedCache
from repro.serve.traffic import zipf_tenant_arrivals

_MICRO = 1_000_000


@pytest.fixture(scope="module")
def mnist_plan2():
    """A two-node plan so batches cross a transfer link (wire charges)."""
    from repro.cluster import Fleet, FleetPlanner
    from repro.fpga import acu15eg
    from repro.hecnn import fxhenn_mnist_model

    trace = fxhenn_mnist_model().trace()
    return FleetPlanner().plan(trace, Fleet.homogeneous(acu15eg(), 2))


# -- split_exact -------------------------------------------------------------


def test_split_exact_sums_to_total_exactly():
    weights = {"a": 0.3, "b": 0.3, "c": 0.4, "d": 1e-9}
    for total in (0, 1, 7, 999, 1_000_003):
        shares = split_exact(total, weights)
        assert sum(shares.values()) == total
        assert all(v >= 0 for v in shares.values())


def test_split_exact_is_proportional_and_deterministic():
    shares = split_exact(100, {"a": 1.0, "b": 3.0})
    assert shares == {"a": 25, "b": 75}
    # Equal weights, odd total: ties break by key, same answer each time.
    first = split_exact(7, {"x": 1.0, "y": 1.0, "z": 1.0})
    assert first == split_exact(7, {"x": 1.0, "y": 1.0, "z": 1.0})
    assert sum(first.values()) == 7


def test_split_exact_zero_weights_fall_back_to_equal():
    assert split_exact(4, {"a": 0.0, "b": 0.0}) == {"a": 2, "b": 2}
    assert split_exact(4, {"a": -1.0, "b": 0.0}) == {"a": 2, "b": 2}


def test_split_exact_edge_cases():
    assert split_exact(10, {}) == {}
    with pytest.raises(ValueError):
        split_exact(-1, {"a": 1.0})


# -- charging ----------------------------------------------------------------


def test_note_batch_splits_occupancy_across_lanes():
    ledger = CostLedger()
    ledger.note_batch(["t1:k0", "t1:k0", "t2:k0"], 0.003, wire_bytes=10)
    report = ledger.report()
    rows = {r.tenant: r for r in report.tenants}
    assert rows["t1"].requests == 2
    assert rows["t2"].requests == 1
    assert rows["t1"].slot_us + rows["t2"].slot_us == 3000
    assert rows["t1"].wire_bytes + rows["t2"].wire_bytes == 10
    assert report.reconciled


def test_unkeyed_requests_charge_the_legacy_bucket():
    ledger = CostLedger()
    ledger.note_batch([None], 0.001)
    report = ledger.report()
    assert [r.tenant for r in report.tenants] == [UNKEYED]
    assert report.tenants[0].slot_us == 1000
    assert report.reconciled


def test_keygen_factory_charges_only_on_cache_miss():
    ledger = CostLedger()
    cache = TenantShardedCache("context")
    for _ in range(3):
        cache.get_or_create(
            "t1:k0", "context", ledger.keygen_factory("t1:k0", object)
        )
    report = ledger.report()
    rows = {r.tenant: r for r in report.tenants}
    assert rows["t1"].keygen_count == 1  # two hits were free
    assert report.fleet["keygen_count"] == 1
    assert report.reconciled


def test_dse_pool_distributes_by_slot_weight():
    ledger = CostLedger()
    ledger.note_batch(["a:k0"], 0.003)
    ledger.note_batch(["b:k0"], 0.001)
    ledger.note_dse(100)            # shared pool
    ledger.note_dse(5, "b:k0")      # attributed directly
    report = ledger.report()
    rows = {r.tenant: r for r in report.tenants}
    assert rows["a"].dse_points == 75
    assert rows["b"].dse_points == 25 + 5
    assert report.fleet["dse_points"] == 105
    assert report.reconciled


def test_settlement_is_deferred_until_report():
    """Charges landing after settle() still shift the weights."""
    ledger = CostLedger()
    ledger.note_batch(["a:k0"], 0.001)
    ledger.settle(node_seconds=1.0, energy_joules=2.0)
    ledger.note_batch(["b:k0"], 0.003)  # arrives after the settlement
    report = ledger.report()
    rows = {r.tenant: r for r in report.tenants}
    assert rows["a"].node_us == 250_000
    assert rows["b"].node_us == 750_000
    assert rows["a"].energy_uj + rows["b"].energy_uj == 2 * _MICRO
    assert report.reconciled


def test_report_is_non_mutating_and_idempotent():
    ledger = CostLedger()
    ledger.note_batch(["a:k0", "b:k0"], 0.005)
    ledger.settle(node_seconds=0.7)
    first = ledger.report()
    second = ledger.report()
    assert first.as_dict() == second.as_dict()
    assert first.reconciled and second.reconciled


def test_settlement_with_no_slot_time_splits_by_requests():
    ledger = CostLedger()
    ledger.note_batch(["a:k0"], 0.0)
    ledger.note_batch(["b:k0"], 0.0)
    ledger.note_batch(["b:k0"], 0.0)
    ledger.settle(node_seconds=3.0)
    report = ledger.report()
    rows = {r.tenant: r for r in report.tenants}
    assert rows["a"].node_us == 1 * _MICRO
    assert rows["b"].node_us == 2 * _MICRO
    assert report.reconciled


def test_empty_ledger_settles_onto_the_unkeyed_bucket():
    ledger = CostLedger()
    ledger.settle(node_seconds=1.0)
    report = ledger.report()
    assert [r.tenant for r in report.tenants] == [UNKEYED]
    assert report.tenants[0].node_us == _MICRO
    assert report.reconciled


# -- reconciliation ----------------------------------------------------------


def test_stage_wire_dual_must_match_tenant_sums():
    ledger = CostLedger()
    ledger.note_batch(["a:k0"], 0.001, wire_bytes=100)
    ledger.note_stage_wire("stage0:devA", 60)
    ledger.note_stage_wire("stage1:devB", 40)
    report = ledger.report()
    assert report.reconciliation()["wire_stage"] is True
    assert report.reconciled

    leaky = CostLedger()
    leaky.note_batch(["a:k0"], 0.001, wire_bytes=100)
    leaky.note_stage_wire("stage0:devA", 99)  # one byte leaks
    bad = leaky.report()
    assert bad.reconciliation()["wire_stage"] is False
    assert not bad.reconciled


def test_reconciliation_covers_every_metric_axis():
    ledger = CostLedger()
    ledger.note_batch(["a:k0"], 0.001, wire_bytes=8)
    ledger.note_keygen("a:k0")
    ledger.note_dse(10, "a:k0")
    ledger.settle(node_seconds=0.5, energy_joules=0.25)
    checks = ledger.report().reconciliation()
    assert set(checks) == set(METRICS)  # no stage charges -> no dual
    assert all(checks.values())


def test_shares_and_top_share():
    ledger = CostLedger()
    ledger.note_batch(["a:k0"], 0.003)
    ledger.note_batch(["b:k0"], 0.001)
    ledger.settle(node_seconds=1.0)
    report = ledger.report()
    assert report.share("a") == pytest.approx(0.75)
    assert report.share("b", "slot_seconds") == pytest.approx(0.25)
    assert report.share("ghost") == 0.0
    assert report.top_share() == pytest.approx(0.75)
    assert report.top_share("wire_bytes") == 0.0  # nothing charged


def test_publish_exports_per_tenant_gauges():
    ledger = CostLedger()
    ledger.note_batch(["a:k0"], 0.002)
    with obs.observed():
        ledger.publish()
        assert REGISTRY.gauge(
            "cost_slot_seconds", tenant="a"
        ).value == pytest.approx(0.002)
        assert REGISTRY.gauge("cost_requests", tenant="a").value == 1


# -- loop integrations -------------------------------------------------------


def test_scheduler_charges_reconcile_with_batches(cost_model):
    ledger = CostLedger()
    scheduler = SlotBatchScheduler(
        cost_model,
        SchedulerConfig(batch_window_s=0.5),
        ledger=ledger,
    )
    requests = zipf_tenant_arrivals(300, 2000.0, tenant_count=4, seed=3)
    report = scheduler.run(requests)
    busy_s = sum(b.finish_s - b.start_s for b in report.batches)
    ledger.settle(node_seconds=report.makespan_s)
    costs = ledger.report()
    assert costs.reconciled
    assert costs.matches(report)
    assert costs.totals()["requests"] == report.completed
    # Slot time is the batches' occupancy, batch-rounded to micro-units.
    assert abs(costs.fleet["slot_us"] - round(busy_s * _MICRO)) \
        <= len(report.batches)
    assert costs.fleet["node_us"] == round(report.makespan_s * _MICRO)
    assert len(costs.tenants) == 4


def test_cluster_service_charges_wire_with_stage_dual(mnist_plan2):
    from repro.cluster import ClusterService

    ledger = CostLedger()
    service = ClusterService(mnist_plan2, batch_capacity=8, ledger=ledger)
    requests = [
        InferenceRequest(request_id=i, arrival_s=i * 0.001,
                         key_group=f"t{i % 2}:k0")
        for i in range(16)
    ]
    report = service.run(requests)
    costs = ledger.report()
    assert report.completed == 16
    assert costs.reconciled
    assert costs.matches(report)
    checks = costs.reconciliation()
    assert checks["wire_stage"] is True  # topology dual present
    assert costs.fleet["wire_bytes"] > 0
    assert costs.fleet["energy_uj"] > 0
    assert {r.tenant for r in costs.tenants} == {"t0", "t1"}


def test_autoscaler_settles_billing_node_seconds():
    from repro.fpga import acu15eg
    from repro.serve import AutoscalerConfig, FleetAutoscaler
    from repro.serve.traffic import uniform_arrivals

    ledger = CostLedger()
    scaler = FleetAutoscaler(
        acu15eg(),
        policy=AutoscalerConfig(min_nodes=1, max_nodes=1),
        config=SchedulerConfig(max_lanes=8),
        ledger=ledger,
    )
    report = scaler.run(uniform_arrivals(24, 4.0))
    costs = ledger.report()
    assert costs.reconciled
    assert costs.matches(report.serve)
    # The ledger's node total is exactly the billing integral.
    assert costs.fleet["node_us"] == round(report.node_seconds * _MICRO)


def _serve_charged(loop, ledger, cost_model, plan):
    """The serve report of one loop serving a zipf tenant stream, charging
    ``ledger``."""
    from repro.cluster import ClusterService
    from repro.fpga import acu15eg
    from repro.serve import AutoscalerConfig, FleetAutoscaler

    requests = zipf_tenant_arrivals(300, 2000.0, tenant_count=4, seed=3)
    if loop == "scheduler":
        return SlotBatchScheduler(
            cost_model, SchedulerConfig(batch_window_s=0.5), ledger=ledger
        ).run(requests)
    if loop == "cluster":
        return ClusterService(plan, batch_capacity=8, ledger=ledger).run(
            requests
        )
    return FleetAutoscaler(
        acu15eg(),
        policy=AutoscalerConfig(min_nodes=1, max_nodes=1),
        config=SchedulerConfig(max_lanes=8),
        ledger=ledger,
    ).run(requests).serve


@pytest.mark.parametrize("loop", ["scheduler", "cluster", "autoscale"])
def test_a_dropped_charge_fails_the_join(
    loop, cost_model, mnist_plan2, monkeypatch
):
    """Counter-example: the ledger skips the third batch it is charged.
    The join with the serve report fails on every loop, while the books
    alone still reconcile except on the cluster, whose per-stage wire
    bytes no longer sum to the fleet's.  The fault-free run passes both."""
    clean = CostLedger()
    report = _serve_charged(loop, clean, cost_model, mnist_plan2)
    assert clean.report().reconciled and clean.report().matches(report)

    note_batch = CostLedger.note_batch
    calls = []

    def dropping(self, *args, **kwargs):
        calls.append(args)
        if len(calls) != 3:
            note_batch(self, *args, **kwargs)

    monkeypatch.setattr(CostLedger, "note_batch", dropping)
    ledger = CostLedger()
    report = _serve_charged(loop, ledger, cost_model, mnist_plan2)
    costs = ledger.report()
    assert len(calls) > 3
    assert costs.reconciled is (loop != "cluster")
    assert not costs.matches(report)
