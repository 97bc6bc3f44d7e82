"""Key isolation on every virtual-time serving path.

The lanes of one slot-batched ciphertext all decrypt under one key, so a
batch must never mix tenant key groups — on one board, through the
pipeline, or across the autoscaled fleet.  One zipf tenant stream, with
an admission queue small enough to reject, runs through all three loops.
Every loop must also start each served request no earlier than it arrived.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cluster import ClusterService, Fleet, FleetPlanner
from repro.fpga import acu15eg
from repro.hecnn import cryptonets_mnist_batched, max_batch_lanes
from repro.obs.flight import FLIGHT
from repro.serve import (
    AutoscalerConfig,
    FleetAutoscaler,
    InferenceRequest,
    SchedulerConfig,
    SlotBatchScheduler,
    zipf_tenant_arrivals,
)
from repro.serve.costs import CostLedger

TENANTS = 16
POLY_DEGREE = 8192
CONFIG = SchedulerConfig(batch_window_s=0.5, max_lanes=8, queue_capacity=40)


@pytest.fixture(scope="module")
def planner():
    return FleetPlanner()


def _scheduler(cost_model, planner, ledger):
    return SlotBatchScheduler(cost_model, CONFIG, ledger=ledger)


def _cluster(cost_model, planner, ledger):
    plan = planner.plan(
        cryptonets_mnist_batched(POLY_DEGREE), Fleet.homogeneous(acu15eg(), 2)
    )
    return ClusterService(
        plan, batch_capacity=max_batch_lanes(POLY_DEGREE), config=CONFIG,
        ledger=ledger,
    )


def _autoscaler(cost_model, planner, ledger):
    return FleetAutoscaler(
        acu15eg(), poly_degree=POLY_DEGREE, planner=planner, config=CONFIG,
        policy=AutoscalerConfig(min_nodes=1, max_nodes=2, queue_high=20,
                                queue_low=2, cooldown_s=6.0),
        ledger=ledger,
    )


@pytest.mark.parametrize(
    "build", [_scheduler, _cluster, _autoscaler],
    ids=["scheduler", "cluster", "autoscale"],
)
def test_every_loop_isolates_key_groups(build, cost_model, planner):
    requests = zipf_tenant_arrivals(
        400, 10.0, tenant_count=TENANTS, seed=11
    )
    ledger = CostLedger()
    loop = build(cost_model, planner, ledger)
    with obs.observed():
        obs.reset()
        FLIGHT.clear()
        report = loop.run(requests)
        rejects = FLIGHT.events("reject")
    report = getattr(report, "serve", report)

    assert report.completed + report.rejected + report.expired == 400
    assert report.rejected > 0 and rejects
    assert report.isolation_ok()
    assert all(
        r.start_s >= r.arrival_s for r in report.results if r.completed
    )
    assert max(b.lanes for b in report.batches) == CONFIG.max_lanes
    assert all(r.key_group is not None for r in report.results)
    assert all(b.key_group is not None for b in report.batches)
    assert len(report.per_key_group()) == TENANTS
    by_id = {r.request_id: r.key_group for r in report.results}
    assert all(
        e["key_group"] == by_id[e["request_id"]] for e in rejects
    )
    costs = ledger.report()
    assert costs.reconciled
    assert costs.totals()["requests"] == report.completed


def test_full_group_on_idle_board_dispatches_when_it_fills(cost_model):
    """Eight requests 10 ms apart fill one 8-lane batch: it starts at the
    eighth arrival, not at the first, so no queue wait is negative."""
    requests = [
        InferenceRequest(request_id=i, arrival_s=0.01 * i) for i in range(8)
    ]
    scheduler = SlotBatchScheduler(cost_model, SchedulerConfig(max_lanes=8))
    report = scheduler.run(requests)
    assert [b.lanes for b in report.batches] == [8]
    assert report.batches[0].start_s == requests[-1].arrival_s
    assert all(r.start_s >= r.arrival_s for r in report.results)
