"""Cost attribution bench: per-tenant bills, reconciliation, alerts.

One deterministic two-phase serving session on the virtual clock:

* **burst** — a zipf tenant mix arrives far past capacity with tight
  deadlines, so the admission queue balloons and a large fraction of
  requests expire at dispatch: the queue-depth threshold alert and the
  SRE multi-window burn-rate alert (error budget on deadline misses)
  both fire;
* **relief** — a trickle of deadline-free traffic after the drain keeps
  the clock ticking while the miss windows empty, so both alerts
  resolve before the run ends.

Every request is charged to its tenant through :class:`CostLedger`
(slot time, keygen, DSE, settled node-seconds and energy) and the
record's headline invariants are the exact reconciliation verdict
(per-tenant integer sums equal fleet totals on every axis) and the join
with the serve report (per tenant, requests charged equal requests
completed).  The record is ``BENCH_costs.json``; ``check_regression.py``
gates both, the deterministic alert counts, and the pinned tenant count.
"""

from __future__ import annotations

import json
from dataclasses import replace

from conftest import OUTPUT_DIR

from repro import obs
from repro.analysis import format_table
from repro.obs.alerts import AlertEngine, AlertRule
from repro.serve import (
    SchedulerConfig,
    ServingCostModel,
    SlotBatchScheduler,
    TenantRegistry,
    zipf_tenant_arrivals,
)
from repro.serve.costs import CostLedger
from repro.serve.tenants import TenantShardedCache

TENANT_COUNT = 6
BURST_REQUESTS = 900
BURST_RATE_PER_S = 4000.0
BURST_DEADLINE_S = 5.0
RELIEF_REQUESTS = 120
RELIEF_RATE_PER_S = 2.0
RELIEF_START_S = 120.0
WINDOW_S = 0.5
ZIPF_S = 1.1
SEED = 7

#: The alert pack the session runs under: a static threshold on queue
#: depth and an error-budget burn rate on deadline misses.  Both are
#: tuned to fire during the burst and resolve during the relief phase.
RULES = (
    AlertRule(
        name="queue-depth-high", series="serve_queue_depth{queue=serve}",
        op=">", threshold=50.0, window_s=5.0, aggregate="avg",
    ),
    AlertRule(
        name="deadline-burn", kind="burn_rate",
        bad_series=("serve_requests_total{outcome=expired}",
                    "serve_requests_total{outcome=rejected}"),
        total_series=("serve_requests_total{outcome=*}",),
        budget=0.02, fast_window_s=5.0, slow_window_s=30.0,
        fast_burn=10.0, slow_burn=5.0,
    ),
)


def _two_phase_arrivals() -> list:
    burst = zipf_tenant_arrivals(
        BURST_REQUESTS, BURST_RATE_PER_S, tenant_count=TENANT_COUNT,
        s=ZIPF_S, seed=SEED, deadline_s=BURST_DEADLINE_S,
        registry=TenantRegistry(),
    )
    relief = zipf_tenant_arrivals(
        RELIEF_REQUESTS, RELIEF_RATE_PER_S, tenant_count=TENANT_COUNT,
        s=ZIPF_S, seed=SEED + 1, registry=TenantRegistry(),
    )
    return burst + [
        replace(r, request_id=BURST_REQUESTS + r.request_id,
                arrival_s=RELIEF_START_S + r.arrival_s)
        for r in relief
    ]


def _session(dev9) -> dict:
    ledger = CostLedger()
    engine = AlertEngine(RULES)
    with obs.observed():
        obs.reset()
        dse_before = obs.get_registry().counter("dse_points_scanned").value
        cost_model = ServingCostModel.cryptonets_mnist(dev9)
        cost_model.single_request_seconds()
        cost_model.batch_seconds()
        ledger.note_dse(
            int(obs.get_registry().counter("dse_points_scanned").value
                - dse_before)
        )

        requests = _two_phase_arrivals()
        contexts = TenantShardedCache("context")
        for req in requests:
            if req.key_group is not None:
                contexts.get_or_create(
                    req.key_group, "context",
                    ledger.keygen_factory(req.key_group, object),
                )
        scheduler = SlotBatchScheduler(
            cost_model, SchedulerConfig(batch_window_s=WINDOW_S),
            ledger=ledger, alerts=engine,
        )
        report = scheduler.run(requests)
        busy_s = sum(b.finish_s - b.start_s for b in report.batches)
        ledger.settle(
            node_seconds=report.makespan_s,
            energy_joules=busy_s * dev9.tdp_watts,
        )
        ledger.publish()
        costs = ledger.report()
        alerts = engine.summary()
        from repro.obs.flight import FLIGHT

        flight_firing = len(FLIGHT.events("alert_firing"))
        flight_resolved = len(FLIGHT.events("alert_resolved"))
    obs.reset()
    return {
        "report": report, "costs": costs, "alerts": alerts,
        "counts": engine.counts(), "active": engine.active(),
        "flight_firing": flight_firing,
        "flight_resolved": flight_resolved,
    }


def test_bench_costs(benchmark, dev9, save_report):
    session = benchmark.pedantic(
        lambda: _session(dev9), rounds=1, iterations=1
    )
    report, costs = session["report"], session["costs"]
    alerts, counts = session["alerts"], session["counts"]
    reconciliation = costs.reconciliation()

    payload = {
        "device": dev9.name,
        "tenant_count": TENANT_COUNT,
        "burst_requests": BURST_REQUESTS,
        "relief_requests": RELIEF_REQUESTS,
        "burst_rate_per_s": BURST_RATE_PER_S,
        "burst_deadline_s": BURST_DEADLINE_S,
        "batch_window_s": WINDOW_S,
        "zipf_s": ZIPF_S,
        "seed": SEED,
        "makespan_s": report.makespan_s,
        "completed": report.completed,
        "rejected": report.rejected,
        "expired": report.expired,
        "throughput_images_per_s": report.throughput_images_per_s,
        "tenants": [row.as_dict() for row in costs.tenants],
        "totals": costs.totals(),
        "top_tenant_cost_share": costs.top_share("node_seconds"),
        "alerts": alerts,
        "invariants": {
            "reconciled": costs.reconciled,
            "reconciliation": reconciliation,
            "charges_match_completions": costs.matches(report),
            "all_requests_accounted": (
                report.completed + report.rejected + report.expired
                == BURST_REQUESTS + RELIEF_REQUESTS
            ),
            "queue_alert_fired": counts["queue-depth-high"]["fired"] >= 1,
            "queue_alert_resolved":
                counts["queue-depth-high"]["resolved"] >= 1,
            "burn_alert_fired": counts["deadline-burn"]["fired"] >= 1,
            "burn_alert_resolved":
                counts["deadline-burn"]["resolved"] >= 1,
            "no_alerts_active_at_end": not session["active"],
        },
        "alert_counts": counts,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_costs.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        (row.tenant, row.requests, f"{row.slot_us / 1e6:.2f}",
         row.keygen_count, row.dse_points,
         f"{row.node_us / 1e6:.2f}", f"{row.energy_uj / 1e6:.1f}",
         f"{costs.share(row.tenant):.1%}")
        for row in sorted(costs.tenants, key=lambda r: -r.node_us)
    ]
    table = format_table(
        ["tenant", "reqs", "slot s", "keygen", "dse", "node s", "J",
         "node share"],
        rows,
        title=f"Per-tenant bills: two-phase session on {dev9.name} "
              f"({BURST_REQUESTS}+{RELIEF_REQUESTS} requests, "
              f"{TENANT_COUNT} tenants)",
    )
    alert_lines = "\n".join(
        f"alert {name}: fired {c['fired']}, resolved {c['resolved']}"
        for name, c in sorted(counts.items())
    )
    save_report("bench_costs", f"{table}\n{alert_lines}")

    # Acceptance: the books balance exactly on every axis, each tenant
    # was charged for exactly the requests it completed, and both alert
    # lifecycles completed inside the session.
    assert costs.reconciled, reconciliation
    assert costs.matches(report)
    for name in ("queue-depth-high", "deadline-burn"):
        assert counts[name] == {"fired": 1, "resolved": 1}, counts
    assert not session["active"]
    assert payload["invariants"]["all_requests_accounted"]
    # The zipf head pays the largest bill, but not the whole fleet's.
    assert 1 / TENANT_COUNT < payload["top_tenant_cost_share"] < 1.0
    # Every alert transition also landed in the flight ring exactly once.
    assert session["flight_firing"] == sum(
        c["fired"] for c in counts.values()
    )
    assert session["flight_resolved"] == sum(
        c["resolved"] for c in counts.values()
    )
