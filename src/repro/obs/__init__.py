"""Unified observability: metrics, tracing, probes, flight data, export.

Pillars (all zero-dependency, all off by default):

* :mod:`repro.obs.registry` — labeled counters / gauges / histograms
  (thread-safe, reservoir-bounded) with exact p50/p95/p99 below the cap;
* :mod:`repro.obs.tracing` — nested spans with Chrome-trace / Perfetto
  JSON export, virtual-time event emission for the simulated schedulers,
  and a plain-text per-layer summary (paper Fig. 7 in text);
* :mod:`repro.obs.tracectx` — request-scoped trace IDs propagated from
  admission through batching, workers and pipeline stages;
* :mod:`repro.obs.flight` — bounded ring of structured events with JSONL
  dump and a dump-on-error hook (the post-mortem for a failed request);
* :mod:`repro.obs.export` — OpenMetrics text rendering, grammar
  validation, and a periodic atomic snapshotter;
* :mod:`repro.obs.lineage` — per-ciphertext provenance: lineage IDs,
  a request-scoped op DAG with per-op analytic noise deltas, layer
  noise waterfalls and headroom threshold watches;
* :mod:`repro.obs.probes` — the hooks the evaluator, noise estimator,
  lineage tracker, simulator, DSE, serving and cluster layers call.

Enable with :func:`enable` / :func:`observed`; with the switch off every
instrumented hot path costs one flag check (< 2 % on the FHE microbench,
asserted in CI).  See ``docs/observability.md``.
"""

from .alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    load_rules,
    rule_from_dict,
)
from .config import disable, enable, enabled, observed, set_enabled
from .export import Snapshotter, render_openmetrics, validate_openmetrics
from .flight import FLIGHT, FlightRecorder, dump_on_error, get_flight_recorder
from .timeseries import TIMESERIES, TimeSeriesStore
from .lineage import (
    HeadroomWatch,
    LineageNode,
    LineageTracker,
    NoiseAuditError,
    current_tracker,
    lineage_context,
)
from .probes import (
    DseProgress,
    record_batch_dispatch,
    record_flight,
    record_he_op,
    record_noise_budget,
    record_noise_headroom,
    record_queue_depth,
    record_request_latency,
    record_request_outcome,
    record_sim_layer,
    record_tenant_cost,
    record_throughput,
    record_timeseries_flush,
    record_timeseries_tick,
)
from .registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .tracectx import current_trace_id, new_trace_id, trace_context
from .tracing import (
    TRACER,
    Span,
    Tracer,
    emit_virtual,
    get_tracer,
    trace_span,
    traced,
)


def reset() -> None:
    """Zero the registry, drop trace events, the flight ring and the
    time-series history (the test-isolation hook).

    Metric handles cached by other modules stay valid (instruments are
    zeroed in place, not dropped).
    """
    REGISTRY.reset()
    TRACER.clear()
    FLIGHT.clear()
    TIMESERIES.clear()


__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "Counter",
    "DseProgress",
    "FLIGHT",
    "FlightRecorder",
    "Gauge",
    "HeadroomWatch",
    "Histogram",
    "LineageNode",
    "LineageTracker",
    "MetricsRegistry",
    "NoiseAuditError",
    "REGISTRY",
    "Snapshotter",
    "Span",
    "TIMESERIES",
    "TRACER",
    "Tracer",
    "TimeSeriesStore",
    "current_trace_id",
    "current_tracker",
    "disable",
    "dump_on_error",
    "emit_virtual",
    "enable",
    "enabled",
    "get_flight_recorder",
    "get_registry",
    "get_tracer",
    "lineage_context",
    "load_rules",
    "new_trace_id",
    "observed",
    "record_batch_dispatch",
    "record_flight",
    "record_he_op",
    "record_noise_budget",
    "record_noise_headroom",
    "record_queue_depth",
    "record_request_latency",
    "record_request_outcome",
    "record_sim_layer",
    "record_tenant_cost",
    "record_throughput",
    "record_timeseries_flush",
    "record_timeseries_tick",
    "render_openmetrics",
    "reset",
    "rule_from_dict",
    "set_enabled",
    "trace_context",
    "trace_span",
    "traced",
    "validate_openmetrics",
]
