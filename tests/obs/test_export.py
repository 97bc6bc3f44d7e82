"""OpenMetrics exporter: golden rendering, validator, snapshotter."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.obs.export import (
    Snapshotter,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.registry import MetricsRegistry

GOLDEN = Path(__file__).with_name("golden_openmetrics.txt")


def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", outcome="ok").inc(3)
    reg.counter("cache_events", cache="design", event="hit").inc(2)
    reg.gauge("queue_depth").set(4)
    h = reg.histogram("latency_seconds", mode="batched")
    for v in (0.1, 0.2, 0.3, 0.4):
        h.observe(v)
    # Sanitization collisions: two raw label names that collapse to one
    # sanitized name, and two raw metric names that collapse to one
    # family name, must stay distinguishable in the exposition.
    reg.gauge("fleet_load", **{"device-id": "a", "device id": "b"}).set(1)
    reg.gauge("noise.bits").set(-14.5)
    reg.gauge("noise bits").set(7.25)
    # Cross-kind family collision: a counter and a gauge sharing a name.
    reg.counter("evictions").inc(1)
    reg.gauge("evictions").set(5)
    # Non-finite values must render as +Inf / -Inf / NaN.
    reg.gauge("headroom_bits", layer="fresh").set(float("inf"))
    reg.gauge("headroom_bits", layer="drained").set(float("-inf"))
    return reg


def test_rendering_matches_golden_file():
    assert render_openmetrics(_golden_registry()) == GOLDEN.read_text()


def test_golden_file_is_valid_openmetrics():
    validate_openmetrics(GOLDEN.read_text())


def test_empty_registry_renders_bare_eof():
    text = render_openmetrics(MetricsRegistry())
    assert text == "# EOF\n"
    validate_openmetrics(text)


def test_counter_total_suffix_is_added_exactly_once():
    text = render_openmetrics(_golden_registry())
    # "requests_total" registry name -> family "requests", sample
    # "requests_total"; plain "cache_events" gains the suffix.
    assert "# TYPE requests counter" in text
    assert 'requests_total{outcome="ok"} 3' in text
    assert "requests_total_total" not in text
    assert 'cache_events_total{cache="design",event="hit"} 2' in text


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    reg.counter("ops", detail='quo"te\nline').inc()
    text = render_openmetrics(reg)
    assert r'detail="quo\"te\nline"' in text
    validate_openmetrics(text)


def test_metric_names_are_sanitized():
    reg = MetricsRegistry()
    reg.counter("9bad name-here").inc()
    text = render_openmetrics(reg)
    validate_openmetrics(text)
    assert "_9bad_name_here_total 1" in text


@pytest.mark.parametrize("bad", [
    "",                                           # no EOF
    "# TYPE x counter\nx_total 1\n",              # no EOF
    "# TYPE x counter\nx 1\n# EOF\n",             # counter without _total
    "# TYPE x gauge\ny 1\n# EOF\n",               # sample outside family
    "# TYPE x gauge\n# TYPE x gauge\n# EOF\n",    # duplicate family
    "x 1\n# EOF\n",                               # sample before TYPE
    "# TYPE x gauge\nx oops\n# EOF\n",            # non-numeric value
    '# TYPE x gauge\nx{a="1",a="2"} 1\n# EOF\n',  # duplicate label name
    '# TYPE x gauge\nx{a="1",b="2",a="3"} 1\n# EOF\n',
])
def test_validator_rejects_malformed_expositions(bad):
    with pytest.raises(ValueError):
        validate_openmetrics(bad)


def test_validator_accepts_signed_infinities_and_nan():
    validate_openmetrics(
        "# TYPE x gauge\n"
        'x{a="1"} +Inf\nx{a="2"} -Inf\nx{a="3"} NaN\n'
        "# EOF\n"
    )


def test_nonfinite_values_render_as_openmetrics_infinities():
    reg = MetricsRegistry()
    reg.gauge("bits", layer="a").set(float("inf"))
    reg.gauge("bits", layer="b").set(float("-inf"))
    reg.gauge("bits", layer="c").set(float("nan"))
    text = render_openmetrics(reg)
    validate_openmetrics(text)
    assert 'bits{layer="a"} +Inf' in text
    assert 'bits{layer="b"} -Inf' in text
    assert 'bits{layer="c"} NaN' in text
    assert "inf" not in text  # repr(float("inf")) must never leak


def test_colliding_label_names_are_deduped():
    reg = MetricsRegistry()
    reg.gauge("util", **{"node-a": "x", "node a": "y"}).set(1)
    text = render_openmetrics(reg)
    validate_openmetrics(text)
    assert "node_a=" in text
    assert "node_a_2=" in text


def test_colliding_family_names_are_deduped():
    reg = MetricsRegistry()
    reg.gauge("noise.bits").set(1)
    reg.gauge("noise bits").set(2)
    reg.counter("evictions").inc()
    reg.gauge("evictions").set(3)
    text = render_openmetrics(reg)
    validate_openmetrics(text)
    assert "# TYPE noise_bits gauge" in text
    assert "# TYPE noise_bits_2 gauge" in text
    assert "# TYPE evictions counter" in text
    assert "# TYPE evictions_2 gauge" in text


def test_user_label_cannot_shadow_quantile():
    reg = MetricsRegistry()
    h = reg.histogram("lat", quantile="user-supplied")
    h.observe(1.0)
    text = render_openmetrics(reg)
    validate_openmetrics(text)
    # The exporter-owned quantile label keeps its name; the user label
    # is the one that gets suffixed on the quantile samples.
    assert 'quantile_2="user-supplied",quantile="0.5"' in text


def test_snapshotter_writes_atomically_on_demand(tmp_path):
    reg = _golden_registry()
    snap = Snapshotter(tmp_path / "metrics.txt", registry=reg)
    path = snap.write_snapshot()
    assert path.read_text() == render_openmetrics(reg)
    assert snap.snapshots_written == 1
    assert not (tmp_path / "metrics.txt.tmp").exists()


def test_snapshotter_periodic_cadence(tmp_path):
    reg = _golden_registry()
    with Snapshotter(tmp_path / "metrics.txt", interval_s=0.01,
                     registry=reg) as snap:
        deadline = time.monotonic() + 2.0
        while snap.snapshots_written < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    # stop() publishes one final snapshot on top of the periodic ones.
    assert snap.snapshots_written >= 3
    validate_openmetrics((tmp_path / "metrics.txt").read_text())


def test_snapshotter_rejects_bad_interval(tmp_path):
    with pytest.raises(ValueError):
        Snapshotter(tmp_path / "m.txt", interval_s=0.0)


def test_snapshotter_double_start_rejected(tmp_path):
    snap = Snapshotter(tmp_path / "m.txt", interval_s=10.0)
    snap.start()
    try:
        with pytest.raises(RuntimeError):
            snap.start()
    finally:
        snap.stop(final_snapshot=False)


def test_saturated_histogram_still_renders_valid_summary():
    reg = MetricsRegistry()
    from repro.obs.registry import Histogram

    h = Histogram("lat", (), reservoir=8)
    reg._metrics[("histogram", "lat", ())] = h
    for i in range(100):
        h.observe(float(i))
    text = render_openmetrics(reg)
    validate_openmetrics(text)
    assert "lat_count 100" in text
    assert "lat_sum 4950.0" in text
