"""Serve record serialization and aggregate math."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.serve import (
    BatchRecord,
    RequestResult,
    SchedulerConfig,
    ServeReport,
    SlotBatchScheduler,
    uniform_arrivals,
)


def test_request_result_validation():
    with pytest.raises(ValueError):
        RequestResult(request_id=0, outcome="lost", arrival_s=0.0)


def test_batch_record_validation():
    with pytest.raises(ValueError):
        BatchRecord(batch_id=0, mode="turbo", lanes=1, capacity=4,
                    start_s=0.0, finish_s=1.0)
    with pytest.raises(ValueError):
        BatchRecord(batch_id=0, mode="batched", lanes=5, capacity=4,
                    start_s=0.0, finish_s=1.0)


def test_latency_and_fill_properties():
    r = RequestResult(request_id=1, outcome="batched", arrival_s=1.0,
                      start_s=2.0, finish_s=3.5, batch_id=0)
    assert r.completed and r.latency_s == pytest.approx(2.5)
    assert RequestResult(
        request_id=2, outcome="rejected", arrival_s=0.0
    ).latency_s is None
    b = BatchRecord(batch_id=0, mode="batched", lanes=2, capacity=8,
                    start_s=2.0, finish_s=3.5)
    assert b.fill_ratio == pytest.approx(0.25)
    assert b.duration_s == pytest.approx(1.5)


def test_report_aggregates():
    results = (
        RequestResult(request_id=0, outcome="batched", arrival_s=0.0,
                      start_s=1.0, finish_s=2.0, batch_id=0),
        RequestResult(request_id=1, outcome="batched", arrival_s=0.5,
                      start_s=1.0, finish_s=2.0, batch_id=0),
        RequestResult(request_id=2, outcome="rejected", arrival_s=0.6),
        RequestResult(request_id=3, outcome="expired", arrival_s=0.7),
    )
    batches = (
        BatchRecord(batch_id=0, mode="batched", lanes=2, capacity=4,
                    start_s=1.0, finish_s=2.0),
    )
    report = ServeReport(results=results, batches=batches, config={})
    assert report.completed == 2
    assert report.rejected == 1 and report.expired == 1
    assert report.makespan_s == pytest.approx(2.0)
    assert report.throughput_images_per_s == pytest.approx(1.0)
    assert report.mean_fill_ratio == pytest.approx(0.5)
    p = report.latency_percentiles()
    assert p["p50"] == pytest.approx(1.5)  # latencies: 2.0, 1.5
    assert p["max"] == pytest.approx(2.0)


def test_isolation_requires_batch_record_to_name_its_group():
    """A loop that tags the results but not the batch record (or the
    other way round) must fail the invariant, not pass it vacuously."""
    results = tuple(
        RequestResult(request_id=i, outcome="cluster", arrival_s=0.0,
                      start_s=1.0, finish_s=2.0, batch_id=0,
                      key_group="t1:k0")
        for i in range(2)
    )

    def report(record_group, result_group="t1:k0"):
        return ServeReport(
            results=tuple(
                replace(r, key_group=result_group) for r in results
            ),
            batches=(BatchRecord(batch_id=0, mode="cluster", lanes=2,
                                 capacity=4, start_s=1.0, finish_s=2.0,
                                 key_group=record_group),),
            config={},
        )

    assert report("t1:k0").isolation_ok()
    assert not report(None).isolation_ok()
    assert not report("t2:k0").isolation_ok()
    assert not report("t1:k0", result_group=None).isolation_ok()
    assert report(None, result_group=None).isolation_ok()


def test_empty_report_is_well_defined():
    report = ServeReport(results=(), batches=(), config={})
    assert report.completed == 0
    assert report.makespan_s == 0.0
    assert report.throughput_images_per_s == 0.0
    assert report.mean_fill_ratio == 0.0
    assert report.latency_percentiles()["p50"] == 0.0


def test_scheduler_report_json_round_trip(cost_model):
    """A real scheduler run survives to_json/from_json bit-exactly."""
    requests = uniform_arrivals(40, rate_per_s=500.0, deadline_s=20.0)
    report = SlotBatchScheduler(
        cost_model,
        SchedulerConfig(batch_window_s=0.1, queue_capacity=30),
    ).run(requests)
    clone = ServeReport.from_json(report.to_json())
    assert clone == report
    assert clone.to_dict() == report.to_dict()
    # Summary block survives as plain JSON data too.
    summary = report.to_dict()["summary"]
    assert summary["completed"] == report.completed
    assert summary["latency"]["p95"] == pytest.approx(
        report.latency_percentiles()["p95"]
    )
