"""Virtual-time replays are deterministic on every serving loop.

One small tagged stream is served twice through the single-node
scheduler, the static cluster and the autoscaled fleet: the second replay
must reproduce every result and batch, and the autoscaler its decisions,
fleet timeline and node-seconds.  A counter-example makes one batch of the
second replay end 1 µs later, and the comparison must fail on every loop.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import ClusterService, Fleet, FleetPlanner
from repro.fpga import acu15eg
from repro.hecnn import cryptonets_mnist_batched, max_batch_lanes
from repro.serve import (
    AutoscalerConfig,
    FleetAutoscaler,
    SchedulerConfig,
    SlotBatchScheduler,
    zipf_tenant_arrivals,
)
from repro.serve.loop import ServeLoop

POLY_DEGREE = 8192
CONFIG = SchedulerConfig(batch_window_s=0.5, max_lanes=8)


@pytest.fixture(scope="module")
def planner():
    return FleetPlanner()


def _scheduler(cost_model, planner):
    return SlotBatchScheduler(cost_model, CONFIG)


def _cluster(cost_model, planner):
    plan = planner.plan(
        cryptonets_mnist_batched(POLY_DEGREE), Fleet.homogeneous(acu15eg(), 2)
    )
    return ClusterService(
        plan, batch_capacity=max_batch_lanes(POLY_DEGREE), config=CONFIG
    )


def _autoscaler(cost_model, planner):
    return FleetAutoscaler(
        acu15eg(), poly_degree=POLY_DEGREE, planner=planner, config=CONFIG,
        policy=AutoscalerConfig(min_nodes=1, max_nodes=2, queue_high=20,
                                queue_low=2, cooldown_s=0.05),
    )


LOOPS = pytest.mark.parametrize(
    "build", [_scheduler, _cluster, _autoscaler],
    ids=["scheduler", "cluster", "autoscale"],
)


def _replay(report) -> tuple:
    """What a replay must reproduce: every result and batch, plus the
    autoscaler's decisions, fleet timeline and node-seconds."""
    serve = getattr(report, "serve", report)
    record = (serve.results, serve.batches)
    if hasattr(report, "decisions"):
        record += (report.decisions, report.timeline, report.node_seconds)
    return record


def _serve_twice(build, cost_model, planner, between=None) -> tuple:
    """The replay records of one loop serving the stream twice; ``between``
    runs before the second replay."""
    requests = zipf_tenant_arrivals(300, 2000.0, tenant_count=4, seed=3)
    loop = build(cost_model, planner)
    first = _replay(loop.run(requests))
    if between is not None:
        between()
    return first, _replay(loop.run(requests))


@LOOPS
def test_replays_are_deterministic(build, cost_model, planner):
    first, second = _serve_twice(build, cost_model, planner)
    results, batches = first[:2]
    assert len(results) == 300 and len({b.key_group for b in batches}) == 4
    assert len(batches) >= 300 // CONFIG.max_lanes
    if len(first) > 2:
        assert first[2]  # the autoscaler decided something
    assert first == second


def _first_batch_ends_late(dispatch):
    """``ServeLoop._dispatch``, with the first batch's record ending 1 µs
    after the executor's finish."""

    def late(self, batch, at_s):
        dispatch(self, batch, at_s)
        if len(self.batches) == 1:
            record = self.batches[0]
            self.batches[0] = replace(record, finish_s=record.finish_s + 1e-6)

    return late


@LOOPS
def test_a_late_batch_fails_the_replay_check(
    build, cost_model, planner, monkeypatch
):
    """The second replay's first batch ends 1 µs later: the comparison
    must tell the replays apart."""

    def fault():
        monkeypatch.setattr(
            ServeLoop, "_dispatch", _first_batch_ends_late(ServeLoop._dispatch)
        )

    first, second = _serve_twice(build, cost_model, planner, between=fault)
    assert first[1][1:] == second[1][1:]  # only the first batch moved
    assert first != second
