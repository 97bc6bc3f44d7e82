"""Tracer: Chrome-trace well-formedness, nesting, disabled fast path."""

from __future__ import annotations

import json

from repro import obs
from repro.obs.tracing import _NULL_SPAN, trace_span


def test_disabled_trace_span_is_shared_null_singleton():
    assert not obs.enabled()
    a = trace_span("a", category="x")
    b = trace_span("b", category="y", arg=1)
    assert a is _NULL_SPAN
    assert b is _NULL_SPAN
    with a as span:
        span.set(anything=1)  # must be inert, not raise


def test_nested_spans_produce_matched_complete_events():
    with obs.observed():
        obs.reset()
        with trace_span("outer", category="layer"):
            with trace_span("inner", category="he_op", level=3) as s:
                s.set(scale=2.0)
    events = obs.get_tracer().events()
    assert [e["name"] for e in events] == ["outer", "inner"]
    by_name = {e["name"]: e for e in events}
    outer, inner = by_name["outer"], by_name["inner"]
    for e in events:
        assert e["ph"] == "X"
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        assert e["pid"] == 0 and isinstance(e["tid"], int)
    # Inner fully contained in outer (complete-event semantics).
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    assert inner["args"] == {"level": 3, "scale": 2.0}


def test_events_sorted_by_monotonic_ts():
    with obs.observed():
        obs.reset()
        for name in ("a", "b", "c"):
            with trace_span(name):
                pass
    ts = [e["ts"] for e in obs.get_tracer().events()]
    assert ts == sorted(ts)


def test_chrome_trace_export_round_trips(tmp_path):
    with obs.observed():
        obs.reset()
        with trace_span("inference", category="network"):
            with trace_span("Cnv1", category="layer"):
                pass
    out = tmp_path / "trace.json"
    obs.get_tracer().export_chrome_trace(out)
    data = json.loads(out.read_text())
    assert data["displayTimeUnit"] == "ms"
    assert {e["name"] for e in data["traceEvents"]} == {"inference", "Cnv1"}
    # Every complete event carries the mandatory Chrome-trace keys.
    for e in data["traceEvents"]:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)


def test_span_durations_feed_span_seconds_histogram():
    with obs.observed():
        obs.reset()
        for _ in range(4):
            with trace_span("Rescale", category="he_op"):
                pass
    h = obs.get_registry().histogram(
        "span_seconds", category="he_op", name="Rescale"
    )
    assert h.count == 4
    assert all(v >= 0.0 for v in h.values)


def test_summary_aggregates_per_name():
    with obs.observed():
        obs.reset()
        for _ in range(3):
            with trace_span("Rotate", category="he_op"):
                pass
        with trace_span("Cnv1", category="layer"):
            pass
    rows = obs.get_tracer().summary(category="he_op")
    assert len(rows) == 1
    row = rows[0]
    assert row["name"] == "Rotate" and row["count"] == 3
    assert row["total_ms"] >= row["p95_ms"] >= row["p50_ms"] >= 0.0


def test_traced_decorator_disabled_passthrough():
    calls = []

    @obs.traced(category="fn")
    def fn(x):
        calls.append(x)
        return x + 1

    assert not obs.enabled()
    assert fn(1) == 2
    assert obs.get_tracer().events() == []
    with obs.observed():
        obs.reset()
        assert fn(2) == 3
    assert [e["name"] for e in obs.get_tracer().events()] == [
        "test_traced_decorator_disabled_passthrough.<locals>.fn"
    ]


def test_clear_resets_epoch_and_events():
    with obs.observed():
        obs.reset()
        with trace_span("a"):
            pass
        tracer = obs.get_tracer()
        assert tracer.events()
        tracer.clear()
        assert tracer.events() == []
        with trace_span("b"):
            pass
        # New epoch: the first event after clear starts near zero again.
        assert tracer.events()[0]["ts"] >= 0.0
