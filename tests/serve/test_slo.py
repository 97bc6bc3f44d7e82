"""SLO declarations, sliding-window measurement, violation transitions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.flight import FLIGHT
from repro.obs.registry import interpolated_percentile
from repro.serve import (
    OBJECTIVES,
    Slo,
    SloMonitor,
    default_slos,
    evaluate_report,
)
from repro.serve.records import RequestResult, ServeReport
from repro.serve.slo import _LATENCY_PERCENTILE


def _report(latencies, rejected=0, expired=0) -> ServeReport:
    results = []
    for i, lat in enumerate(latencies):
        results.append(RequestResult(
            request_id=i, outcome="batched", arrival_s=0.0,
            start_s=0.0, finish_s=lat, batch_id=0,
        ))
    n = len(results)
    for j in range(rejected):
        results.append(RequestResult(
            request_id=n + j, outcome="rejected", arrival_s=0.0,
        ))
    for j in range(expired):
        results.append(RequestResult(
            request_id=n + rejected + j, outcome="expired", arrival_s=0.0,
        ))
    return ServeReport(results=tuple(results), batches=(), config={})


def test_slo_validation():
    with pytest.raises(ValueError):
        Slo("x", objective="p42_latency_s", threshold=1.0)
    with pytest.raises(ValueError):
        Slo("x", objective="p99_latency_s", threshold=-1.0)
    with pytest.raises(ValueError):
        Slo("x", objective="p99_latency_s", threshold=1.0, window=0)
    with pytest.raises(ValueError):
        SloMonitor(())


def test_default_slos_cover_the_three_objectives():
    slos = default_slos()
    assert {s.objective for s in slos} == {
        "p99_latency_s", "deadline_miss_rate", "reject_rate"
    }


def test_latency_objective_ignores_rejects_and_expiries():
    monitor = SloMonitor((Slo("p50", "p50_latency_s", 2.0),))
    for _ in range(10):
        monitor.observe("batched", 1.0)
    monitor.observe("rejected")
    monitor.observe("expired")
    (status,) = monitor.evaluate()
    assert status.value == pytest.approx(1.0)
    assert status.samples == 10
    assert status.ok


def test_rate_objectives_count_all_terminal_requests():
    monitor = SloMonitor((
        Slo("miss", "deadline_miss_rate", 0.3),
        Slo("rej", "reject_rate", 0.1),
    ))
    for _ in range(6):
        monitor.observe("batched", 0.5)
    for _ in range(2):
        monitor.observe("expired")
    for _ in range(2):
        monitor.observe("rejected")
    miss, rej = monitor.evaluate()
    assert miss.value == pytest.approx(0.2)
    assert miss.ok
    assert rej.value == pytest.approx(0.2)
    assert not rej.ok
    assert not monitor.ok()


def test_window_slides_old_outcomes_out():
    monitor = SloMonitor((Slo("rej", "reject_rate", 0.5, window=4),))
    for _ in range(4):
        monitor.observe("rejected")
    assert not monitor.ok()
    for _ in range(4):
        monitor.observe("batched", 0.1)
    (status,) = monitor.evaluate()
    assert status.value == 0.0
    assert status.ok


def test_evaluate_publishes_gauges():
    monitor = SloMonitor((Slo("p99-latency", "p99_latency_s", 2.0),))
    monitor.observe("batched", 1.5)
    monitor.evaluate()
    reg = obs.get_registry()
    assert reg.gauge("slo_value", slo="p99-latency").value == \
        pytest.approx(1.5)
    assert reg.gauge("slo_ok", slo="p99-latency").value == 1.0


def test_violation_transition_records_one_flight_event():
    monitor = SloMonitor((Slo("p99-latency", "p99_latency_s", 1.0),))
    with obs.observed():
        monitor.observe("batched", 5.0)
        monitor.evaluate()
        monitor.evaluate()  # still violated: no second event
        violations = FLIGHT.events("slo_violation")
        assert len(violations) == 1
        assert violations[0]["slo"] == "p99-latency"
        # Recovery then re-violation produces a fresh transition event.
        for _ in range(1000):
            monitor.observe("batched", 0.1)
        monitor.evaluate()
        monitor.observe("batched", 50.0)
        for _ in range(99):
            monitor.observe("batched", 50.0)
        monitor.evaluate()
        assert len(FLIGHT.events("slo_violation")) == 2


def test_recovery_transition_records_one_flight_event():
    monitor = SloMonitor((Slo("p99-latency", "p99_latency_s", 1.0),))
    with obs.observed():
        monitor.observe("batched", 5.0)
        monitor.evaluate()
        assert len(FLIGHT.events("slo_violation")) == 1
        assert not FLIGHT.events("slo_recovery")
        for _ in range(1000):
            monitor.observe("batched", 0.1)
        monitor.evaluate()
        recoveries = FLIGHT.events("slo_recovery")
        assert len(recoveries) == 1
        assert recoveries[0]["slo"] == "p99-latency"
        assert recoveries[0]["value"] == pytest.approx(0.1)
        monitor.evaluate()  # still ok: no second recovery event
        assert len(FLIGHT.events("slo_recovery")) == 1


def test_recovery_exactly_at_window_close_emits_once():
    """The violation clearing the moment the last bad sample ages out of
    the sliding window is a real transition — exactly one recovery."""
    monitor = SloMonitor((Slo("p99-latency", "p99_latency_s", 1.0,
                              window=4),))
    with obs.observed():
        monitor.observe("batched", 9.0)
        monitor.evaluate()
        assert len(FLIGHT.events("slo_violation")) == 1
        # Three fast samples: the bad one still sits in the 4-window.
        for _ in range(3):
            monitor.observe("batched", 0.1)
        (status,) = monitor.evaluate()
        assert not status.ok
        assert not FLIGHT.events("slo_recovery")
        # The fourth fast sample closes the window on the bad one.
        monitor.observe("batched", 0.1)
        (status,) = monitor.evaluate()
        assert status.ok
        assert len(FLIGHT.events("slo_recovery")) == 1
        monitor.evaluate()
        assert len(FLIGHT.events("slo_recovery")) == 1


def test_headroom_floor_objective_ok_above_threshold():
    monitor = SloMonitor((Slo("headroom", "noise_headroom_bits", 8.0),))
    for bits in (12.0, 10.5, 9.0):
        monitor.observe("batched", 1.0, noise_headroom_bits=bits)
    (status,) = monitor.evaluate()
    assert status.value == pytest.approx(9.0)  # worst over the window
    assert status.samples == 3
    assert status.ok  # floor objective: value >= threshold is ok


def test_headroom_floor_violation_is_a_transition_event():
    monitor = SloMonitor((Slo("headroom", "noise_headroom_bits", 8.0),))
    with obs.observed():
        monitor.observe("batched", 1.0, noise_headroom_bits=12.0)
        monitor.evaluate()
        assert not FLIGHT.events("slo_violation")
        monitor.observe("batched", 1.0, noise_headroom_bits=3.5)
        (status,) = monitor.evaluate()
        assert not status.ok
        monitor.evaluate()  # still violated: no second event
        violations = FLIGHT.events("slo_violation")
        assert len(violations) == 1
        assert violations[0]["slo"] == "headroom"
        assert violations[0]["objective"] == "noise_headroom_bits"
        assert violations[0]["value"] == pytest.approx(3.5)


def test_headroom_floor_with_no_samples_is_vacuously_met():
    """Callers that never feed headroom (e.g. plain serving traffic) must
    not trip the floor — and the published gauge must stay finite."""
    monitor = SloMonitor((Slo("headroom", "noise_headroom_bits", 8.0),))
    for _ in range(5):
        monitor.observe("batched", 1.0)  # no noise_headroom_bits
    (status,) = monitor.evaluate()
    assert status.ok
    assert status.samples == 0
    assert status.value == 8.0  # pinned to the threshold, never inf


def test_headroom_rides_alongside_latency_objectives():
    monitor = SloMonitor((
        Slo("p50", "p50_latency_s", 2.0),
        Slo("headroom", "noise_headroom_bits", 8.0),
    ))
    monitor.observe("batched", 1.0, noise_headroom_bits=11.0)
    monitor.observe("batched", 1.5)
    p50, headroom = monitor.evaluate()
    assert p50.value == pytest.approx(1.25)
    assert p50.samples == 2
    assert headroom.value == pytest.approx(11.0)
    assert headroom.samples == 1
    assert monitor.ok()


def test_evaluate_report_applies_slos_to_finished_session():
    report = _report([0.5] * 95 + [3.0] * 5, rejected=10)
    statuses = evaluate_report(report, (
        Slo("p99", "p99_latency_s", 1.0),
        Slo("rej", "reject_rate", 0.05),
    ))
    by_name = {s.slo.name: s for s in statuses}
    assert not by_name["p99"].ok          # p99 lands in the 3.0s tail
    assert by_name["rej"].value == pytest.approx(10 / 110)
    assert not by_name["rej"].ok


def test_evaluate_report_with_default_slos_passes_clean_session():
    report = _report([0.5] * 50)
    assert all(s.ok for s in evaluate_report(report))


def test_evaluate_report_on_empty_session_passes_vacuously():
    """A session with no terminal requests trips nothing: latency
    percentiles read 0.0 over zero samples and the rates read 0.0."""
    report = _report([])
    statuses = evaluate_report(report)
    assert all(s.ok for s in statuses)
    assert all(s.samples == 0 for s in statuses)
    assert all(s.value == 0.0 for s in statuses)


def test_status_as_dict_round_trips_the_slo():
    slo = Slo("p99", "p99_latency_s", 2.0, window=64)
    monitor = SloMonitor((slo,))
    monitor.observe("batched", 1.0)
    (status,) = monitor.evaluate()
    d = status.as_dict()
    assert d["name"] == "p99" and d["window"] == 64
    assert d["ok"] is True and d["samples"] == 1


def _measure(slo, window) -> tuple[float, int]:
    """The oracle: one objective measured by rescanning the last
    ``slo.window`` entries of a ``(outcome, latency_s, headroom_bits)``
    window, as the monitor did before it kept per-window aggregates."""
    tail = window[-slo.window:]
    if slo.objective in _LATENCY_PERCENTILE:
        lats = sorted(
            lat for outcome, lat, _ in tail
            if lat is not None and outcome not in ("rejected", "expired")
        )
        p = _LATENCY_PERCENTILE[slo.objective]
        return interpolated_percentile(lats, p), len(lats)
    if slo.objective == "noise_headroom_bits":
        bits = [h for _, _, h in tail if h is not None]
        if not bits:
            return slo.threshold, 0
        return min(bits), len(bits)
    if not tail:
        return 0.0, 0
    bad = "expired" if slo.objective == "deadline_miss_rate" else "rejected"
    return sum(1 for outcome, _, _ in tail if outcome == bad) / len(tail), \
        len(tail)


#: Terminal requests drawn from small value sets, so windows hold ties.
_ENTRIES = st.tuples(
    st.sampled_from(("batched", "lola", "cluster", "expired", "rejected")),
    st.one_of(st.none(), st.sampled_from((0.5, 1.0, 2.5)), st.floats(0, 10)),
    st.one_of(st.none(), st.sampled_from((-1.0, 0.0, 3.0)), st.floats(-9, 9)),
)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(_ENTRIES, max_size=60),
    windows=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    every=st.integers(1, 5),
)
def test_window_aggregates_match_a_rescan(entries, windows, every):
    """Every objective, over windows shorter than the monitor's span as
    well as the span itself, reads what a rescan of the window reads, as
    requests arrive and age out."""
    slos = tuple(
        Slo(f"{objective}-{i}", objective, 1.0, window)
        for i, window in enumerate(windows)
        for objective in OBJECTIVES
    )
    monitor = SloMonitor(slos)
    span = max(windows)
    for i in range(len(entries) + 1):
        if i:
            monitor.observe(*entries[i - 1])
        if i % every == 0 or i == len(entries):
            window = entries[max(0, i - span):i]
            for status in monitor.evaluate():
                assert (status.value, status.samples) == _measure(
                    status.slo, window
                ), status.slo


def test_window_aggregates_survive_concurrent_observers():
    """Threads sharing one monitor lose no update: after eight threads feed
    it under a short switch interval, every objective still reads what a
    rescan of the window reads."""
    import sys
    import threading

    slos = tuple(
        Slo(f"{objective}-{window}", objective, 1.0, window)
        for window in (50, 200)
        for objective in OBJECTIVES
    )
    monitor = SloMonitor(slos)
    outcomes = ("batched", "expired", "rejected", "lola")

    def feed(seed: int) -> None:
        for i in range(400):
            monitor.observe(outcomes[(seed + i) % 4], (seed * i) % 7 / 2,
                            float((seed + i) % 5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=feed, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    window = list(monitor._window)
    assert len(window) == 200
    for status in monitor.evaluate():
        assert (status.value, status.samples) == _measure(status.slo, window)
