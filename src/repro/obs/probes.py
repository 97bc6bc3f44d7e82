"""Domain probes: the bridge between the framework and the obs substrate.

Thin, import-cheap helpers that the FHE evaluator, the noise estimator and
lineage tracker, the accelerator simulator, the DSE and the serving and
cluster layers call at their interesting moments.  Every helper is a no-op
(single flag check) while observability is disabled, except
:class:`DseProgress`, which is a plain record handed back to the caller
(the DSE reports its scan statistics in its result whether or not
observability is on, and publishes them to the registry once per
exploration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from . import config
from .flight import FLIGHT
from .registry import REGISTRY


def record_flight(kind: str, **fields: Any) -> None:
    """Append one event to the flight recorder (no-op while obs is off).

    The structured twin of a log line: admissions, dispatches, expiries,
    cache traffic and DSE incumbents all flow through here so the last N
    of them survive in the bounded ring (:mod:`repro.obs.flight`).
    """
    if not config.enabled():
        return
    FLIGHT.record(kind, **fields)


def record_he_op(op: str, level: int | None = None,
                 scale: float | None = None) -> None:
    """Count one evaluator operation and publish post-op ciphertext state."""
    if not config.enabled():
        return
    REGISTRY.counter("he_ops_total", op=op).inc()
    if level is not None:
        REGISTRY.gauge("ciphertext_level", op=op).set(level)
    if scale is not None and scale > 0:
        REGISTRY.gauge("ciphertext_scale_log2", op=op).set(math.log2(scale))


def record_noise_budget(bits: float, **labels: Any) -> None:
    """Publish a noise-budget gauge (bits of guaranteed precision)."""
    if not config.enabled():
        return
    REGISTRY.gauge("noise_budget_bits", **labels).set(bits)


def record_noise_headroom(bits: float, **labels: Any) -> None:
    """Publish the analytic noise headroom (bits remaining) at a layer
    boundary — the gauge the lineage tracker's threshold watch reads."""
    if not config.enabled() or not math.isfinite(bits):
        return
    REGISTRY.gauge("noise_headroom_bits", **labels).set(bits)


def record_sim_layer(name: str, simulated_cycles: int,
                     analytic_cycles: int) -> None:
    """Simulated-vs-analytic agreement for one layer."""
    if not config.enabled():
        return
    if analytic_cycles:
        rel = (simulated_cycles - analytic_cycles) / analytic_cycles
        REGISTRY.histogram("sim_relative_error").observe(rel)


def record_timeseries_tick(now_s: float) -> None:
    """Sample the global time-series store at a virtual instant.

    The virtual-time serving loops call this at every interesting
    moment; the store's own cadence check keeps stored history evenly
    spaced, and the disabled path stays one flag check.
    """
    if not config.enabled():
        return
    from .timeseries import TIMESERIES

    TIMESERIES.maybe_sample(now_s)


def record_timeseries_flush(now_s: float) -> None:
    """Force one final time-series sample at the end of a virtual run.

    Terminal events (the last batch's outcomes, a drain's expirations)
    land *after* the last cadence tick; without a flush they would never
    appear in the history — or in any alert evaluation keyed off it.
    """
    if not config.enabled():
        return
    from .timeseries import TIMESERIES

    TIMESERIES.sample(now_s)


# ---------------------------------------------------------------------------
# Serving-layer probes
# ---------------------------------------------------------------------------


def record_queue_depth(depth: int, queue: str = "serve") -> None:
    """Publish the admission-queue depth after an enqueue/dequeue."""
    if not config.enabled():
        return
    REGISTRY.gauge("serve_queue_depth", queue=queue).set(depth)


def record_batch_dispatch(lanes: int, capacity: int, mode: str) -> None:
    """One dispatched batch: count it and observe its slot-fill ratio."""
    if not config.enabled():
        return
    REGISTRY.counter("serve_batches_total", mode=mode).inc()
    REGISTRY.counter("serve_images_total", mode=mode).inc(lanes)
    if capacity > 0:
        REGISTRY.histogram("serve_batch_fill_ratio").observe(lanes / capacity)
    FLIGHT.record("dispatch", lanes=lanes, capacity=capacity, mode=mode)


def record_request_latency(seconds: float, mode: str) -> None:
    """Per-request latency (arrival to completion), labeled by exec mode."""
    if not config.enabled():
        return
    REGISTRY.histogram(
        "serve_request_latency_seconds", mode=mode
    ).observe(seconds)


def record_request_outcome(outcome: str, **fields: Any) -> None:
    """Count a request's terminal state: completed / rejected / expired.

    Non-completion outcomes also land in the flight recorder — they are
    exactly the events a post-mortem wants in arrival order.
    """
    if not config.enabled():
        return
    REGISTRY.counter("serve_requests_total", outcome=outcome).inc()
    if outcome in ("rejected", "expired"):
        FLIGHT.record(outcome, **fields)


def record_tenant_event(event: str) -> None:
    """Count one tenant lifecycle transition: registered / evicted.  The
    matching flight events carry the tenant identity; this counter answers
    "how much tenant churn" without unbounded label cardinality (no
    per-tenant labels)."""
    if not config.enabled():
        return
    REGISTRY.counter("tenant_events_total", event=event).inc()


def record_tenant_cost(tenant: str, **values: float) -> None:
    """Publish one tenant's settled charges as ``cost_<metric>`` gauges.

    Per-tenant labels are high cardinality by design (the whole point of
    attribution); small OpenMetrics exports scope the ``cost_`` prefix
    out with the exporter's include/exclude filters.
    """
    if not config.enabled():
        return
    for metric, value in values.items():
        REGISTRY.gauge(f"cost_{metric}", tenant=tenant).set(value)


def record_throughput(images_per_second: float) -> None:
    """Publish amortized serving throughput over the run so far."""
    if not config.enabled():
        return
    REGISTRY.gauge("serve_throughput_images_per_second").set(
        images_per_second
    )


# ---------------------------------------------------------------------------
# Cluster probes
# ---------------------------------------------------------------------------


def record_cluster_plan(fleet: str, network: str, bottleneck_seconds: float,
                        throughput: float) -> None:
    """One fleet plan was produced: count it, publish its economics."""
    if not config.enabled():
        return
    REGISTRY.counter("cluster_plans_total", fleet=fleet, network=network).inc()
    REGISTRY.gauge(
        "cluster_bottleneck_seconds", fleet=fleet, network=network
    ).set(bottleneck_seconds)
    REGISTRY.gauge(
        "cluster_throughput_per_second", fleet=fleet, network=network
    ).set(throughput)


def record_cluster_stage(stage: int, device: str, busy_seconds: float,
                         utilization: float) -> None:
    """Per-stage occupancy of the steady-state pipeline interval."""
    if not config.enabled():
        return
    REGISTRY.gauge(
        "cluster_stage_busy_seconds", stage=stage, device=device
    ).set(busy_seconds)
    REGISTRY.gauge(
        "cluster_stage_utilization", stage=stage, device=device
    ).set(utilization)


def record_cluster_transfer(stage: int, num_bytes: int,
                            seconds: float) -> None:
    """Bytes shipped across the link leaving ``stage``."""
    if not config.enabled():
        return
    REGISTRY.counter("cluster_transfer_bytes_total", stage=stage).inc(
        num_bytes
    )
    REGISTRY.gauge("cluster_transfer_seconds", stage=stage).set(seconds)


def record_cluster_batch(lanes: int, latency_seconds: float) -> None:
    """One slot batch completed its trip through the cluster pipeline."""
    if not config.enabled():
        return
    REGISTRY.counter("cluster_batches_total").inc()
    REGISTRY.counter("cluster_images_total").inc(lanes)
    REGISTRY.histogram("cluster_batch_latency_seconds").observe(
        latency_seconds
    )


# ---------------------------------------------------------------------------
# Autoscaler probes
# ---------------------------------------------------------------------------


def record_fleet_size(size: int) -> None:
    """Publish the autoscaler's current fleet size (nodes serving)."""
    if not config.enabled():
        return
    REGISTRY.gauge("fleet_size").set(size)


def record_autoscale_decision(
    action: str, fleet_size: int, **fields: Any
) -> None:
    """One autoscaler control decision: scale_up / scale_down /
    flap_suppressed.

    Counts it by action, republishes the ``fleet_size`` gauge, and lands
    the full decision context in the flight recorder — every resize (and
    every resize the cooldown vetoed) is reconstructible post-mortem.
    """
    if not config.enabled():
        return
    REGISTRY.counter("autoscale_decisions_total", action=action).inc()
    REGISTRY.gauge("fleet_size").set(fleet_size)
    FLIGHT.record(action, fleet_size=fleet_size, **fields)


def record_spin_up_cost(seconds: float, warm: bool) -> None:
    """The spin-up cost charged for one scale-up (virtual seconds)."""
    if not config.enabled():
        return
    REGISTRY.histogram(
        "autoscale_spin_up_seconds", warm="true" if warm else "false"
    ).observe(seconds)


# ---------------------------------------------------------------------------
# DSE progress
# ---------------------------------------------------------------------------


@dataclass
class DseProgress:
    """Statistics of one design-space exploration, published to the
    registry once via :meth:`publish`."""

    scanned: int = 0
    dsp_pruned: int = 0
    feasible: int = 0
    improvements: int = 0

    def note_incumbent(
        self, latency_cycles: int, scanned: int, feasible: int
    ) -> None:
        """A new best-so-far solution: the ``scanned``-th point in scan
        order and the ``feasible``-th feasible one."""
        self.improvements += 1
        record_flight(
            "dse_incumbent", latency_cycles=latency_cycles,
            scanned=scanned, feasible=feasible,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "scanned": self.scanned,
            "dsp_pruned": self.dsp_pruned,
            "feasible": self.feasible,
            "improvements": self.improvements,
        }

    def publish(self) -> None:
        """Merge this scan's totals into the global registry counters."""
        if not config.enabled():
            return
        REGISTRY.counter("dse_points_scanned").inc(self.scanned)
        REGISTRY.counter("dse_points_dsp_pruned").inc(self.dsp_pruned)
        REGISTRY.counter("dse_points_feasible").inc(self.feasible)
        REGISTRY.counter("dse_incumbent_improvements").inc(self.improvements)
