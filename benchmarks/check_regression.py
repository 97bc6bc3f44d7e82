#!/usr/bin/env python
"""Performance regression gate over the committed BENCH_*.json records.

Compares a fresh benchmark run (``benchmarks/output/`` by default) against
the committed baselines (``benchmarks/baselines/``) and exits nonzero when
any headline metric regressed beyond its tolerance — the CI ``bench-gate``
job runs this after regenerating the deterministic virtual-time benches,
so a scheduler or planner change that silently costs >15% throughput or
latency fails the build instead of landing.

Metric selection is declarative (`_METRICS` below): each entry names a
dotted path into the JSON record, whether higher or lower is better, and
a relative tolerance.  Virtual-time metrics (serve, cluster) are
deterministic and get the default 15% gate; the one wall-clock metric,
the kernel backend's same-host speedup over the reference oracle, gets a
lenient 40% gate — it exists to catch "the fast path stopped being
fast", not 5% noise.  Boolean `_INVARIANTS` must stay true, and
`_PINNED` fields (e.g. which kernel backend a record was produced under)
must match the baseline exactly.  The gated stems are exactly the seven
records the CI ``bench-gate`` job regenerates, so a stem added here
without a regeneration step fails loudly (a missing record exits 2).

Usage::

    python benchmarks/check_regression.py                # gate the repo
    python benchmarks/check_regression.py --fresh-dir /tmp/out
    python benchmarks/check_regression.py --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Deterministic (virtual-time) metrics fail the gate beyond this.
DEFAULT_TOLERANCE = 0.15
#: Wall-clock metrics (the BENCH_fhe_kernels speedup ratio) jitter with
#: the CI runner.
WALLCLOCK_TOLERANCE = 0.40
#: Noise bits are log-scale: 15% of a -16-bit final precision would wave
#: through a >2-bit loss.  The record is fully deterministic (closed-form
#: propagation, an audit at twelve fixed context seeds), so gate it at 5%.
NOISE_TOLERANCE = 0.05

#: file stem -> ((dotted path, direction, tolerance), ...).  ``direction``
#: is "higher" (regression = value dropped) or "lower" (regression =
#: value rose).  List elements are addressed by index (``curve.0``); the
#: extractor also accepts ``*`` to fan one spec out over a whole list.
_METRICS: dict[str, tuple[tuple[str, str, float], ...]] = {
    "BENCH_fhe_kernels": (
        ("backends.montgomery.speedup_vs_reference", "higher",
         WALLCLOCK_TOLERANCE),
    ),
    "BENCH_serve": (
        ("amortized_speedup", "higher", DEFAULT_TOLERANCE),
        ("baseline.throughput_images_per_s", "higher", DEFAULT_TOLERANCE),
        ("curve.*.throughput_images_per_s", "higher", DEFAULT_TOLERANCE),
        ("curve.*.latency_p99_s", "lower", DEFAULT_TOLERANCE),
    ),
    "BENCH_tenants": (
        ("single_tenant_throughput", "higher", DEFAULT_TOLERANCE),
        ("curve.*.throughput_images_per_s", "higher", DEFAULT_TOLERANCE),
        ("curve.*.latency_p99_s", "lower", DEFAULT_TOLERANCE),
        ("curve.*.mean_fill_ratio", "higher", DEFAULT_TOLERANCE),
    ),
    "BENCH_cluster": (
        ("fleets.*.plan.steady_state_throughput", "higher",
         DEFAULT_TOLERANCE),
        ("fleets.*.throughput_speedup_vs_single", "higher",
         DEFAULT_TOLERANCE),
        ("fleets.*.plan.fill_latency_seconds", "lower", DEFAULT_TOLERANCE),
    ),
    # The autoscale replay is fully virtual-time: the request stream,
    # decision times, and billing integrals are all deterministic, so a
    # policy/scheduler change that erodes latency, burns more
    # node-seconds, or shrinks the elasticity win fails the gate.
    "BENCH_autoscale": (
        ("autoscale.throughput_images_per_s", "higher", DEFAULT_TOLERANCE),
        ("autoscale.latency_p99_s", "lower", DEFAULT_TOLERANCE),
        ("autoscale.node_seconds", "lower", DEFAULT_TOLERANCE),
        ("autoscale.held_fraction_after_settle", "higher",
         DEFAULT_TOLERANCE),
        ("savings_vs_static_max", "higher", DEFAULT_TOLERANCE),
    ),
    # Analytic noise propagation is closed-form and the audit inputs are
    # seeded, so the whole record is deterministic: tight tolerance.  A
    # packing/estimator change that costs per-layer precision (analytic
    # bits dropped) or erodes the conservativeness margin (audit gap
    # shrank) is a real regression even though no wall clock moved.  The
    # measured bits are medians over the seed set: one draw spreads wider
    # than the gate.
    "BENCH_noise": (
        ("networks.*.final_analytic_bits", "higher", NOISE_TOLERANCE),
        ("networks.*.layers.*.analytic_bits", "higher", NOISE_TOLERANCE),
        ("networks.0.min_gap_bits", "higher", NOISE_TOLERANCE),
        ("networks.*.layers.*.measured_bits", "higher", NOISE_TOLERANCE),
    ),
    # The cost-attribution session is fully virtual-time: the two-phase
    # arrival stream, every batch, every expiry, and both alert
    # lifecycles replay identically, so throughput and the top tenant's
    # bill share are deterministic numbers worth gating.
    "BENCH_costs": (
        ("throughput_images_per_s", "higher", DEFAULT_TOLERANCE),
        ("top_tenant_cost_share", "lower", DEFAULT_TOLERANCE),
        ("totals.node_seconds", "lower", DEFAULT_TOLERANCE),
    ),
}

#: Boolean invariants that must stay true in the fresh record.
_INVARIANTS: dict[str, tuple[str, ...]] = {
    "BENCH_serve": ("warm_rerun.dse_skipped",),
    # Cross-tenant isolation (no batch mixes key groups) and zero-keygen
    # warm reruns are correctness properties, not perf numbers: any
    # regression is a bug regardless of throughput.
    "BENCH_tenants": ("isolation_ok", "warm_rerun.keygen_skipped"),
    "BENCH_cluster": ("all_dp_beat_equal", "warm_rerun.flat"),
    "BENCH_fhe_kernels": ("default_beats_reference",),
    "BENCH_noise": ("networks.0.audit_ok", "networks.1.audit_ok"),
    # The elasticity story is made of correctness properties: the SLO
    # held through the surge, the elastic bill beat static-max, warm
    # scale-ups paid no keygen and scanned no DSE points, and every
    # decision is visible in counters and the Perfetto track.
    "BENCH_autoscale": (
        "invariants.p99_held_after_settle",
        "invariants.scaled_up_through_the_surge",
        "invariants.beats_static_max_node_hours",
        "invariants.warm_scale_up_zero_keygen",
        "invariants.warm_scale_up_zero_dse",
        "invariants.all_decisions_counted",
        "invariants.all_resizes_traced",
        "invariants.no_requests_lost",
        "invariants.capacity_plan_matches_peak",
    ),
    # Exact reconciliation (per-tenant integer sums == fleet totals on
    # every axis) and the deterministic alert lifecycles are correctness
    # properties: a cost leak or a dead alert is a bug at any speed.
    "BENCH_costs": (
        "invariants.reconciled",
        "invariants.reconciliation.slot_seconds",
        "invariants.reconciliation.keygen_count",
        "invariants.reconciliation.dse_points",
        "invariants.reconciliation.node_seconds",
        "invariants.reconciliation.energy_joules",
        "invariants.all_requests_accounted",
        "invariants.queue_alert_fired",
        "invariants.queue_alert_resolved",
        "invariants.burn_alert_fired",
        "invariants.burn_alert_resolved",
        "invariants.no_alerts_active_at_end",
    ),
}

#: Non-numeric fields that must match the baseline exactly — e.g. the
#: kernel backend a wall-clock record was produced under.  A fresh
#: BENCH_fhe_kernels generated with a different default backend than the
#: committed baseline is an apples-to-oranges comparison; fail it loudly.
_PINNED: dict[str, tuple[str, ...]] = {
    "BENCH_fhe_kernels": ("default_backend",),
    # The seed set and each network's parameters (ring, chain, special
    # prime, and the security they give) are the record's identity.
    "BENCH_noise": (
        "kernel_backend", "seeds", "networks.*.name",
        "networks.*.poly_degree", "networks.*.level", "networks.*.log_q",
        "networks.*.log_qp", "networks.*.security_level",
    ),
    # The swept tenant populations are part of the record's identity: a
    # fresh curve over different population sizes is not comparable to
    # the committed baseline point-by-point.
    "BENCH_tenants": ("tenant_counts", "curve.0.key_groups"),
    # Scenario identity: a fresh replay that peaked at a different fleet
    # size or whose planner recommended a different fleet is answering a
    # different provisioning question than the committed baseline.
    "BENCH_autoscale": (
        "autoscale.peak_nodes",
        "capacity_plan.recommended_nodes",
        "scenario.requests",
    ),
    # A fresh session over a different tenant population, request mix,
    # or alert verdict history is answering a different billing question
    # than the committed baseline.
    "BENCH_costs": (
        "tenant_count",
        "burst_requests",
        "relief_requests",
        "completed",
        "expired",
        "alert_counts",
    ),
}


def _resolve(record: object, path: str) -> list[tuple[str, object]]:
    """``(concrete_path, value)`` pairs for a dotted path; ``*`` fans out."""
    parts = path.split(".")
    found: list[tuple[str, object]] = [("", record)]
    for part in parts:
        next_found: list[tuple[str, object]] = []
        for prefix, node in found:
            def join(key: object) -> str:
                return f"{prefix}.{key}" if prefix else str(key)

            if part == "*":
                if not isinstance(node, list):
                    raise KeyError(f"{prefix or '<root>'} is not a list")
                next_found.extend(
                    (join(i), item) for i, item in enumerate(node)
                )
            elif isinstance(node, dict):
                if part not in node:
                    raise KeyError(f"missing key {join(part)!r}")
                next_found.append((join(part), node[part]))
            elif isinstance(node, list):
                index = int(part)
                next_found.append((join(index), node[index]))
            else:
                raise KeyError(f"{prefix!r} is a leaf, cannot descend")
        found = next_found
    return found


def compare_records(
    stem: str, baseline: dict, fresh: dict
) -> list[dict[str, object]]:
    """Every gated metric's verdict for one benchmark record."""
    rows: list[dict[str, object]] = []
    for path, direction, tolerance in _METRICS.get(stem, ()):
        base_values = dict(_resolve(baseline, path))
        for concrete, fresh_value in _resolve(fresh, path):
            if concrete not in base_values:
                continue  # new list entries are not gated
            base_value = base_values[concrete]
            if not isinstance(base_value, (int, float)) or not isinstance(
                fresh_value, (int, float)
            ):
                raise TypeError(f"{stem}:{concrete} is not numeric")
            if base_value == 0:
                delta = 0.0 if fresh_value == 0 else float("inf")
            elif direction == "higher":
                delta = (base_value - fresh_value) / abs(base_value)
            else:
                delta = (fresh_value - base_value) / abs(base_value)
            rows.append({
                "benchmark": stem,
                "metric": concrete,
                "direction": direction,
                "baseline": base_value,
                "fresh": fresh_value,
                "regression": delta,
                "tolerance": tolerance,
                "ok": delta <= tolerance,
            })
    for path in _INVARIANTS.get(stem, ()):
        ((concrete, value),) = _resolve(fresh, path)
        rows.append({
            "benchmark": stem,
            "metric": concrete,
            "direction": "invariant",
            "baseline": True,
            "fresh": bool(value),
            "regression": 0.0 if value else float("inf"),
            "tolerance": 0.0,
            "ok": bool(value),
        })
    for path in _PINNED.get(stem, ()):
        fresh_values = dict(_resolve(fresh, path))
        for concrete, base_value in _resolve(baseline, path):
            fresh_value = fresh_values.get(concrete)
            ok = concrete in fresh_values and fresh_value == base_value
            rows.append({
                "benchmark": stem,
                "metric": concrete,
                "direction": "pinned",
                "baseline": base_value,
                "fresh": fresh_value,
                "regression": 0.0 if ok else float("inf"),
                "tolerance": 0.0,
                "ok": ok,
            })
    return rows


def check(
    baseline_dir: Path, fresh_dir: Path, only: list[str] | None = None
) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    stems = only if only else sorted(_METRICS)
    for stem in stems:
        baseline_path = baseline_dir / f"{stem}.json"
        fresh_path = fresh_dir / f"{stem}.json"
        if not baseline_path.exists():
            raise FileNotFoundError(f"no committed baseline {baseline_path}")
        if not fresh_path.exists():
            raise FileNotFoundError(f"no fresh record {fresh_path}")
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        rows.extend(compare_records(stem, baseline, fresh))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", type=Path, default=HERE / "baselines",
        help="committed baseline BENCH_*.json directory",
    )
    parser.add_argument(
        "--fresh-dir", type=Path, default=HERE / "output",
        help="freshly generated BENCH_*.json directory",
    )
    parser.add_argument(
        "--only", action="append", choices=sorted(_METRICS), default=None,
        help="gate only this benchmark stem (repeatable)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="also write the full verdict table to this file",
    )
    args = parser.parse_args(argv)

    try:
        rows = check(args.baseline_dir, args.fresh_dir, args.only)
    except (FileNotFoundError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = [row for row in rows if not row["ok"]]
    width = max(len(f"{r['benchmark']}:{r['metric']}") for r in rows)
    for row in rows:
        name = f"{row['benchmark']}:{row['metric']}"
        if row["direction"] == "invariant":
            detail = f"invariant {'holds' if row['ok'] else 'BROKEN'}"
        elif row["direction"] == "pinned":
            detail = (
                f"pinned to {row['baseline']!r}"
                if row["ok"]
                else f"pinned {row['baseline']!r} != {row['fresh']!r}"
            )
        else:
            detail = (
                f"{row['baseline']:.6g} -> {row['fresh']:.6g} "
                f"({row['regression']:+.1%} vs {row['tolerance']:.0%} "
                f"tolerance, {row['direction']} is better)"
            )
        print(f"{'ok  ' if row['ok'] else 'FAIL'} {name:<{width}}  {detail}")
    print(f"\n{len(rows)} metrics gated, {len(failures)} regressed")

    if args.json is not None:
        args.json.write_text(json.dumps(
            {"rows": rows, "failures": len(failures)}, indent=2
        ) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
