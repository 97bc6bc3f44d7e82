"""Virtual-time scheduler: batching policy, backpressure, deadlines."""

from __future__ import annotations

import pytest

from repro import obs
from repro.serve import (
    InferenceRequest,
    SchedulerConfig,
    SlotBatchScheduler,
    burst_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)


def _run(cost_model, requests, **cfg):
    return SlotBatchScheduler(cost_model, SchedulerConfig(**cfg)).run(
        requests
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(batch_window_s=-1)
    with pytest.raises(ValueError):
        SchedulerConfig(max_lanes=0)
    with pytest.raises(ValueError):
        SchedulerConfig(queue_capacity=0)


def test_full_batch_dispatches_without_waiting_for_window(cost_model):
    cap = 64
    requests = burst_arrivals(1, cap, gap_s=0.0)
    report = _run(
        cost_model, requests, batch_window_s=100.0, max_lanes=cap
    )
    assert len(report.batches) == 1
    batch = report.batches[0]
    assert batch.mode == "batched"
    assert batch.lanes == cap and batch.fill_ratio == 1.0
    # Dispatched at arrival, not at window close.
    assert batch.start_s == 0.0


def test_window_closes_partial_batch(cost_model):
    requests = burst_arrivals(1, 100, gap_s=0.0)
    report = _run(cost_model, requests, batch_window_s=0.25)
    assert len(report.batches) == 1
    assert report.batches[0].start_s == pytest.approx(0.25)
    assert report.batches[0].lanes == 100
    assert report.completed == 100


def test_small_batch_degrades_to_lola(cost_model):
    """Below the cost crossover, requests run unbatched."""
    k = 3
    assert cost_model.lola_wins(k)
    requests = burst_arrivals(1, k, gap_s=0.0)
    report = _run(cost_model, requests, batch_window_s=0.0)
    assert [b.mode for b in report.batches] == ["lola"]
    single = cost_model.single_request_seconds()
    # LoLa runs serialize on the accelerator.
    assert report.batches[0].duration_s == pytest.approx(k * single)
    finishes = sorted(
        r.finish_s for r in report.results if r.finish_s is not None
    )
    assert finishes == pytest.approx(
        [single * (i + 1) for i in range(k)]
    )


def test_above_crossover_batches_win(cost_model):
    k = cost_model.crossover_lanes() + 10
    requests = burst_arrivals(1, k, gap_s=0.0)
    report = _run(cost_model, requests, batch_window_s=0.0)
    assert [b.mode for b in report.batches] == ["batched"]
    # A slot batch costs one lane-invariant run, whatever its fill.
    assert report.batches[0].duration_s == pytest.approx(
        cost_model.batch_seconds()
    )


def test_bounded_queue_rejects_overflow(cost_model):
    requests = burst_arrivals(1, 50, gap_s=0.0)
    report = _run(
        cost_model, requests, batch_window_s=1.0, queue_capacity=20
    )
    assert report.rejected == 30
    assert report.completed == 20
    rejected_ids = {
        r.request_id for r in report.results if r.outcome == "rejected"
    }
    # FIFO admission: the last arrivals are the ones shed.
    assert rejected_ids == set(range(20, 50))


def test_deadlines_expire_before_dispatch(cost_model):
    # Two requests with deadlines shorter than the batch window: they
    # expire at window close instead of occupying lanes.
    requests = [
        InferenceRequest(request_id=0, arrival_s=0.0, deadline_s=0.1),
        InferenceRequest(request_id=1, arrival_s=0.0, deadline_s=0.1),
        InferenceRequest(request_id=2, arrival_s=0.0),
    ]
    report = _run(cost_model, requests, batch_window_s=1.0)
    assert report.expired == 2
    assert report.completed == 1
    assert [b.lanes for b in report.batches] == [1]
    survivor = next(r for r in report.results if r.completed)
    assert survivor.request_id == 2


def test_queue_drains_across_multiple_batches(cost_model):
    cap = 32
    requests = uniform_arrivals(100, rate_per_s=10_000.0)
    report = _run(
        cost_model, requests, batch_window_s=0.001, max_lanes=cap
    )
    assert report.completed == 100
    assert sum(b.lanes for b in report.batches) == 100
    assert all(b.lanes <= cap for b in report.batches)
    # The accelerator is a single resource: batches never overlap.
    for prev, nxt in zip(report.batches, report.batches[1:]):
        assert nxt.start_s >= prev.finish_s


def test_results_cover_every_request_exactly_once(cost_model):
    requests = poisson_arrivals(200, rate_per_s=1000.0, seed=3)
    report = _run(
        cost_model, requests, batch_window_s=0.05, queue_capacity=50
    )
    assert sorted(r.request_id for r in report.results) == list(range(200))
    assert report.completed + report.rejected + report.expired == 200


def test_amortized_throughput_beats_lola_baseline(cost_model):
    """The PR's headline: slot batching >= 5x single-request serving."""
    requests = poisson_arrivals(2000, rate_per_s=5000.0, seed=7)
    batched = _run(cost_model, requests, batch_window_s=0.5)
    single = _run(
        cost_model, requests, batch_window_s=0.0, max_lanes=1
    )
    assert batched.completed == single.completed == 2000
    assert (
        batched.throughput_images_per_s
        >= 5 * single.throughput_images_per_s
    )


def test_scheduler_publishes_probes(cost_model):
    requests = burst_arrivals(1, 10, gap_s=0.0)
    with obs.observed():
        obs.reset()
        report = _run(cost_model, requests, batch_window_s=0.0)
        reg = obs.get_registry()
        mode = report.batches[0].mode
        assert reg.counter(
            "serve_batches_total", mode=mode
        ).value == 1
        assert reg.counter(
            "serve_images_total", mode=mode
        ).value == 10
        assert reg.counter(
            "serve_requests_total", outcome=mode
        ).value == 10
        assert reg.histogram("serve_batch_fill_ratio").count == 1
        assert reg.histogram(
            "serve_request_latency_seconds", mode=mode
        ).count == 10
        assert reg.gauge(
            "serve_throughput_images_per_second"
        ).value == pytest.approx(report.throughput_images_per_s)
