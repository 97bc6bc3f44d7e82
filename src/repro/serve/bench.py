"""The latency-vs-throughput sweep behind ``repro bench-throughput``.

For a fixed arrival stream, sweep the batch window and record, per
window, the amortized throughput and the request latency percentiles —
the serving layer's fundamental tradeoff curve.  The baseline is
single-request LoLa serving (every request its own accelerator run, no
batching), so the headline number is the amortized speedup of slot
batching over the paper's latency-oriented deployment.

Also demonstrates the design-cache contract: the sweep prices every
window through one shared :class:`~repro.serve.cache.DesignCache`, so
only the first scheduler run pays DSE — asserted in CI by watching the
``dse_points_*`` counters stay flat across a second run.
"""

from __future__ import annotations

from typing import Any

from ..fpga.device import FpgaDevice
from .cache import DesignCache
from .costmodel import ServingCostModel
from .records import ServeReport
from .scheduler import SchedulerConfig, SlotBatchScheduler
from .traffic import poisson_arrivals


def run_window(
    cost_model: ServingCostModel,
    batch_window_s: float,
    requests,
    max_lanes: int | None = None,
    queue_capacity: int = 1_000_000,
) -> ServeReport:
    """One point on the curve: serve ``requests`` under one window."""
    scheduler = SlotBatchScheduler(
        cost_model,
        SchedulerConfig(
            batch_window_s=batch_window_s,
            max_lanes=max_lanes,
            queue_capacity=queue_capacity,
        ),
    )
    return scheduler.run(requests)


def single_request_baseline(
    cost_model: ServingCostModel, requests
) -> ServeReport:
    """LoLa serving: batches capped at one lane, no batching ever wins."""
    scheduler = SlotBatchScheduler(
        cost_model,
        SchedulerConfig(
            batch_window_s=0.0, max_lanes=1, queue_capacity=1_000_000
        ),
    )
    return scheduler.run(requests)


def throughput_sweep(
    device: FpgaDevice,
    windows: list[float],
    request_count: int = 2000,
    rate_per_s: float = 5000.0,
    poly_degree: int = 8192,
    seed: int = 7,
    max_lanes: int | None = None,
    designs: DesignCache | None = None,
) -> dict[str, Any]:
    """Sweep batch windows over one Poisson arrival stream.

    Returns a JSON-ready report: the per-window curve, the single-request
    LoLa baseline, and the amortized speedup of the best window.
    """
    if designs is None:  # empty caches are falsy — test identity, not truth
        designs = DesignCache()
    cost_model = ServingCostModel.cryptonets_mnist(
        device, poly_degree=poly_degree, designs=designs
    )
    requests = poisson_arrivals(request_count, rate_per_s, seed=seed)

    baseline = single_request_baseline(cost_model, requests)
    curve = []
    for window in windows:
        report = run_window(
            cost_model, window, requests, max_lanes=max_lanes
        )
        latency = report.latency_percentiles()
        curve.append({
            "batch_window_s": window,
            "completed": report.completed,
            "rejected": report.rejected,
            "expired": report.expired,
            "batches": len(report.batches),
            "mean_fill_ratio": report.mean_fill_ratio,
            "throughput_images_per_s": report.throughput_images_per_s,
            "latency_p50_s": latency["p50"],
            "latency_p95_s": latency["p95"],
            "latency_p99_s": latency["p99"],
        })

    best = max(curve, key=lambda row: row["throughput_images_per_s"])
    baseline_tp = baseline.throughput_images_per_s
    return {
        "device": device.name,
        "poly_degree": poly_degree,
        "request_count": request_count,
        "rate_per_s": rate_per_s,
        "seed": seed,
        "cost_model": cost_model.as_dict(),
        "baseline": {
            "mode": "lola-single",
            "throughput_images_per_s": baseline_tp,
            "latency_p50_s": baseline.latency_percentiles()["p50"],
        },
        "curve": curve,
        "best_window_s": best["batch_window_s"],
        "amortized_speedup": (
            best["throughput_images_per_s"] / baseline_tp
            if baseline_tp > 0 else 0.0
        ),
        "design_cache": designs.stats().as_dict(),
    }


def autoscale_bench(
    device: FpgaDevice | None = None,
    duration_s: float = 600.0,
    base_rate_per_s: float = 4.0,
    peak_rate_per_s: float = 12.0,
    surge_base_rate_per_s: float = 6.0,
    surge_start_s: float = 240.0,
    surge_duration_s: float = 60.0,
    surge_multiplier: float = 10.0,
    p99_slo_s: float = 13.0,
    window_s: float = 10.0,
    max_lanes: int = 256,
    cooldown_s: float = 30.0,
    max_nodes: int = 3,
    seed: int = 1,
) -> dict[str, Any]:
    """The elastic-serving headline: diurnal + flash-crowd replay.

    One request stream — a diurnal day curve superposed with a
    ``surge_multiplier``× flash crowd — replayed three ways: through the
    :class:`~repro.serve.autoscale.FleetAutoscaler`, through a static
    fleet pinned at ``max_nodes`` and through a static single node.  The
    autoscaler must hold the p99 SLO in >= 99% of ``window_s`` windows
    once the surge's first scale-up settles (decision + cooldown) while
    billing fewer node-seconds than static-max provisioning, with every
    warm scale-up charging zero keygen/DSE.  The same shared planner
    then answers the capacity question for the surge's peak rate —
    planning and autoscaling agree on the fleet size.
    """
    from .. import obs
    from ..cluster.capacity import plan_capacity
    from ..fpga import acu15eg
    from ..obs.registry import REGISTRY, interpolated_percentile
    from .autoscale import AutoscalerConfig, FleetAutoscaler, held_fraction
    from .slo import Slo
    from .traffic import (
        diurnal_arrivals,
        flash_crowd_arrivals,
        merge_arrivals,
    )

    device = device if device is not None else acu15eg()
    requests = merge_arrivals(
        diurnal_arrivals(
            duration_s, base_rate_per_s, peak_rate_per_s,
            period_s=duration_s, seed=seed,
        ),
        flash_crowd_arrivals(
            duration_s, surge_base_rate_per_s, surge_start_s,
            surge_duration_s, surge_multiplier=surge_multiplier,
            seed=seed + 1,
        ),
    )
    config = SchedulerConfig(max_lanes=max_lanes)
    slos = (Slo("p99-latency", "p99_latency_s", p99_slo_s, window=1000),)

    with obs.observed():
        obs.reset()
        scaler = FleetAutoscaler(
            device,
            policy=AutoscalerConfig(
                min_nodes=1, max_nodes=max_nodes, cooldown_s=cooldown_s,
            ),
            config=config, slos=slos,
        )
        # The deployment is prewarmed; runtime resizes must not touch
        # DSE or keygen.  Watch the raw counters across the whole run.
        dse_before = REGISTRY.counter("dse_points_scanned").value
        ctx_miss_before = REGISTRY.counter(
            "cache_events_total", cache="context", event="miss"
        ).value
        report = scaler.run(list(requests))
        dse_during = (
            REGISTRY.counter("dse_points_scanned").value - dse_before
        )
        ctx_miss_during = REGISTRY.counter(
            "cache_events_total", cache="context", event="miss"
        ).value - ctx_miss_before
        counters = {
            action: REGISTRY.counter(
                "autoscale_decisions_total", action=action
            ).value
            for action in ("scale_up", "scale_down", "flap_suppressed")
        }
        spans = [
            e for e in obs.get_tracer().events()
            if e.get("cat") == "autoscale"
        ]

        # Static comparisons share the (now warm) planner and plans.
        static = {}
        for label, nodes in (("max", max_nodes), ("min", 1)):
            static_report = scaler._service_for(nodes).run(list(requests))
            lats = sorted(
                r.latency_s for r in static_report.results
                if r.latency_s is not None
            )
            static[label] = {
                "nodes": nodes,
                "completed": static_report.completed,
                "latency_p99_s": interpolated_percentile(lats, 99.0),
                "node_seconds": nodes * report.end_s,
                "held_fraction": held_fraction(
                    static_report, window_s, p99_slo_s
                ),
            }

        # The provisioning dual: for the surge's peak aggregate rate the
        # planner must recommend exactly the fleet the autoscaler used.
        peak_rate = (
            surge_base_rate_per_s * surge_multiplier + peak_rate_per_s
        )
        capacity = plan_capacity(
            peak_rate, p99_slo_s, device, max_nodes=max_nodes,
            planner=scaler.planner, config=config,
        )

    serve = report.serve
    latency = serve.latency_percentiles()
    scale_ups = [d for d in report.resizes if d.action == "scale_up"]
    scale_downs = [d for d in report.resizes if d.action == "scale_down"]
    first_up = scale_ups[0] if scale_ups else None
    settle_s = first_up.at_s + cooldown_s if first_up else 0.0
    held = held_fraction(serve, window_s, p99_slo_s, start_s=settle_s)
    static_max_seconds = static["max"]["node_seconds"]
    warm_zero_keygen = bool(scale_ups) and all(
        d.warm and d.spin_up_s == scaler.spin_up.node_warm_s
        for d in scale_ups
    )
    span_names = [e["name"] for e in spans]

    payload = {
        "device": device.name,
        "seed": seed,
        "scenario": {
            "duration_s": duration_s,
            "base_rate_per_s": base_rate_per_s,
            "peak_rate_per_s": peak_rate_per_s,
            "surge_base_rate_per_s": surge_base_rate_per_s,
            "surge_start_s": surge_start_s,
            "surge_duration_s": surge_duration_s,
            "surge_multiplier": surge_multiplier,
            "requests": len(requests),
            "max_lanes": max_lanes,
        },
        "slo": {"p99_s": p99_slo_s, "window_s": window_s},
        "policy": report.policy,
        "spin_up": report.spin_up,
        "autoscale": {
            "completed": serve.completed,
            "rejected": serve.rejected,
            "expired": serve.expired,
            "latency_p50_s": latency["p50"],
            "latency_p99_s": latency["p99"],
            "throughput_images_per_s": serve.throughput_images_per_s,
            "node_seconds": report.node_seconds,
            "end_s": report.end_s,
            "peak_nodes": report.peak_nodes,
            "settle_s": settle_s,
            "held_fraction_after_settle": held,
            "scale_ups": len(scale_ups),
            "scale_downs": len(scale_downs),
            "flap_suppressed": len(report.decisions) - len(report.resizes),
            "decisions": [d.as_dict() for d in report.decisions],
            "timeline": [list(p) for p in report.timeline],
            "decision_counters": counters,
            "trace_spans": {
                "spin_up": sum(
                    1 for n in span_names if n.startswith("spin_up")
                ),
                "drain": sum(
                    1 for n in span_names if n.startswith("drain")
                ),
            },
            "dse_points_scanned_during_run": dse_during,
            "context_misses_during_run": ctx_miss_during,
        },
        "static": static,
        "capacity_plan": {
            "target_rate_per_s": peak_rate,
            "recommended_nodes": capacity.recommended_nodes,
            "frontier": [p.as_dict() for p in capacity.frontier],
        },
        "savings_vs_static_max": (
            1.0 - report.node_seconds / static_max_seconds
        ),
    }
    payload["invariants"] = {
        # The headline: p99 held through the surge once the first
        # scale-up settled, at >= 99% of windows.
        "p99_held_after_settle": held >= 0.99,
        "scaled_up_through_the_surge": bool(scale_ups),
        "beats_static_max_node_hours": (
            report.node_seconds < static_max_seconds
        ),
        # Warm scale-ups charge base provisioning only: zero keygen,
        # zero DSE — and the raw counters agree.
        "warm_scale_up_zero_keygen": warm_zero_keygen,
        "warm_scale_up_zero_dse": dse_during == 0 and ctx_miss_during == 0,
        # Every decision is counted and every resize traced.
        "all_decisions_counted": (
            counters["scale_up"] == len(scale_ups)
            and counters["scale_down"] == len(scale_downs)
            and counters["flap_suppressed"]
            == len(report.decisions) - len(report.resizes)
        ),
        "all_resizes_traced": (
            payload["autoscale"]["trace_spans"]["spin_up"]
            == len(scale_ups)
            and payload["autoscale"]["trace_spans"]["drain"]
            == len(scale_downs)
        ),
        "no_requests_lost": (
            serve.completed == len(requests)
            and serve.rejected == 0 and serve.expired == 0
        ),
        # Planning and autoscaling agree on the surge's fleet size.
        "capacity_plan_matches_peak": (
            capacity.recommended_nodes == report.peak_nodes
        ),
    }
    return payload
