"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the framework's workflow:

* ``devices`` — list the built-in FPGA targets;
* ``trace``   — print a network's HE operation trace;
* ``generate``— run the DSE and emit the accelerator design (optionally
  saving JSON and HLS directives);
* ``explore`` — print the Pareto frontier over a BRAM budget window;
* ``infer``   — run a real encrypted inference and verify it against the
  plaintext reference;
* ``profile`` — run an encrypted inference under the observability layer
  and print per-layer / per-op latency, noise-budget and noise-headroom
  breakdowns, optionally exporting a Chrome-trace / Perfetto JSON;
* ``explain`` — reconstruct a request's ciphertext lineage DAG (per-op
  noise accounting) with a per-layer noise waterfall, the dominant noise
  spenders, and JSON / Graphviz DOT exports;
* ``costs``   — replay a zipf multi-tenant serving session under a
  :class:`~repro.serve.costs.CostLedger` and print who consumed what
  (slot time, wire bytes, keygen, DSE, node-seconds, energy) with the
  exact reconciliation verdict.

Unknown networks and devices exit with a message and a nonzero status —
never a raw traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import format_table
from .core import FxHennFramework, design_to_json, pareto_frontier, solution_scatter
from .fhe import kernels
from .fpga import acu9eg, acu15eg, device_by_name
from .hecnn import fxhenn_cifar10_model, fxhenn_mnist_model, tiny_mnist_model

_NETWORKS = {
    "mnist": fxhenn_mnist_model,
    "cifar10": fxhenn_cifar10_model,
    "tiny": tiny_mnist_model,
}


def _network(name: str):
    try:
        return _NETWORKS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown network {name!r}; choose from {sorted(_NETWORKS)}"
        ) from None


def _device(name: str):
    try:
        return device_by_name(name)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


#: ``--kernel-backend`` help shared by every FHE subcommand.
_KERNEL_BACKEND_HELP = (
    f"FHE kernel backend ({' or '.join(kernels.available_backends())}; "
    f"default {kernels.DEFAULT_BACKEND}); overrides REPRO_KERNEL_BACKEND"
)


def _select_kernel_backend(name: str | None) -> None:
    """Activate ``--kernel-backend`` before any FHE work happens.

    Layered on top of the ``REPRO_KERNEL_BACKEND`` environment variable
    (the explicit CLI selection wins); an unknown name exits with the
    available catalog instead of a traceback.
    """
    if not name:
        return
    try:
        kernels.set_backend(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def cmd_devices(_args: argparse.Namespace) -> int:
    rows = [
        (d.name, d.dsp_slices, d.bram_blocks, d.uram_blocks, d.tdp_watts,
         d.clock_mhz)
        for d in (acu9eg(), acu15eg())
    ]
    print(format_table(
        ["device", "DSP", "BRAM36K", "URAM", "TDP W", "clock MHz"], rows,
        title="built-in FPGA targets",
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    trace = _network(args.network).trace()
    rows = [
        (lt.name, lt.kind, lt.level, lt.hop_count, lt.keyswitch_count,
         lt.macs, lt.plaintext_count)
        for lt in trace.layers
    ]
    rows.append(
        ("TOTAL", "", "", trace.hop_count, trace.keyswitch_count,
         trace.macs, sum(lt.plaintext_count for lt in trace.layers))
    )
    print(format_table(
        ["layer", "kind", "level", "HOPs", "KeySwitch", "MACs", "plaintexts"],
        rows, title=f"{trace.name} (N={trace.poly_degree}, "
                    f"L={trace.base_level})",
    ))
    print(f"model size: {trace.model_size_bytes() / 1e6:.2f} MB; "
          f"HE-MACs: {trace.he_macs():.3e}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    model = _network(args.network)
    device = _device(args.device)
    design = FxHennFramework().generate(model, device)
    util = design.utilization()
    print(f"{design.network.name} on {device.name}:")
    print(f"  latency:   {design.latency_seconds:.4f} s "
          f"({design.solution.latency_cycles} cycles)")
    print(f"  energy:    {design.energy_joules:.3f} J/inference")
    print(f"  DSP:       {util['dsp']:.1%}")
    print(f"  BRAM peak: {util['bram_peak']:.1%} "
          f"(aggregate {util['bram_aggregate']:.1%})")
    print(f"  DSE:       {design.dse.feasible}/{design.dse.evaluated} "
          f"feasible points")
    print(f"  point:     nc_NTT={design.solution.point.nc_ntt} "
          f"{design.solution.point.describe()}")
    if args.json:
        Path(args.json).write_text(design_to_json(design))
        print(f"  design record written to {args.json}")
    if args.directives:
        Path(args.directives).write_text(design.hls_directives())
        print(f"  HLS directives written to {args.directives}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    trace = _network(args.network).trace()
    device = _device(args.device)
    points = solution_scatter(
        trace, device, bram_min=args.bram_min, bram_max=args.bram_max
    )
    frontier = pareto_frontier(points)
    rows = [
        (p.bram_blocks, f"{p.latency_seconds:.4f}",
         p.solution.point.nc_ntt,
         str(p.solution.point.describe()["KeySwitch"]))
        for p in frontier
    ]
    print(format_table(
        ["BRAM blocks", "latency s", "nc_NTT", "KeySwitch"],
        rows,
        title=f"Pareto frontier: {trace.name} on {device.name} "
              f"({len(points)} feasible points)",
    ))
    return 0


def _inference_setup(network: str, seed: int, full: bool, command: str):
    """``(params, model, image)`` for the encrypted-inference commands.

    ``tiny`` is the N=512 test network; ``mnist`` defaults to the reduced
    N=2048 parameters unless ``full`` asks for the paper's.
    """
    from .fhe import CkksParameters
    from .hecnn import synthetic_mnist_image

    if network == "tiny":
        from .fhe import tiny_test_params

        params = tiny_test_params(poly_degree=512, level=7)
        model = tiny_mnist_model(seed=0, params=params)
        image = np.random.default_rng(seed).uniform(0, 1, (1, 8, 8))
    elif network == "mnist":
        if full:
            from .fhe import fxhenn_mnist_params

            params = fxhenn_mnist_params()
        else:
            params = CkksParameters(
                poly_degree=2048, prime_bits=28, level=7, scale_bits=26
            )
        model = fxhenn_mnist_model(seed=0, params=params)
        image = synthetic_mnist_image(seed=seed)
    else:
        raise SystemExit(
            f"{command} supports networks: tiny, mnist (got {network!r})"
        )
    return params, model, image


def _security_header(name: str, params) -> str:
    """The parameters an encrypted run's security rests on, for the text
    output of ``infer`` and ``profile``."""
    summary = params.security_summary()
    level = summary["security_level"]
    return (
        f"{name} at N={params.poly_degree}: log Q = {summary['log_q']}, "
        f"log QP = {summary['log_qp']}, security "
        f"{'none' if level is None else f'{level}-bit'}"
    )


def cmd_infer(args: argparse.Namespace) -> int:
    from .fhe import CkksContext

    _select_kernel_backend(args.kernel_backend)
    params, model, image = _inference_setup(
        args.network, args.seed, full=not args.fast, command="infer",
    )
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    encrypted = model.infer(context, image)
    plain = model.infer_plain(image)
    err = float(np.max(np.abs(encrypted - plain)))
    print(_security_header(model.name, params))
    print(f"{model.name}: {len(plain)} logits, max CKKS error {err:.2e}")
    agree = int(np.argmax(encrypted)) == int(np.argmax(plain))
    print(f"argmax agreement: {'OK' if agree else 'MISMATCH'}")
    return 0 if agree else 1


def _write_or_fail(path: str, text: str, what: str) -> bool:
    """Write ``text`` to ``path``; on failure complain and return False.

    An unwritable output path must surface as a nonzero exit, not a
    traceback: a CI job asking for a trace artifact and silently getting
    none is worse than a failed job.
    """
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {what} to {path!r}: {exc}",
              file=sys.stderr)
        return False
    return True


def cmd_profile(args: argparse.Namespace) -> int:
    """Encrypted inference under the observability layer (``repro.obs``).

    Prints (a) a per-layer wall-time / op-count / noise-budget table and
    (b) a per-op latency histogram (count, p50, p95) — the software twin
    of the paper's Fig. 7 layer breakdown.  ``--format json`` emits the
    same tables as one machine-readable object instead.  Optionally
    exports the span tree as Chrome-trace JSON loadable in
    chrome://tracing or https://ui.perfetto.dev; an unwritable trace
    path exits nonzero.
    """
    import json
    import time

    from . import obs
    from .fhe import CkksContext
    from .fhe.ops import OperationRecorder

    _select_kernel_backend(args.kernel_backend)
    backend_name = kernels.active_backend().name
    params, model, image = _inference_setup(
        args.network, args.seed, full=args.full, command="profile",
    )
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    recorder = OperationRecorder()
    with obs.observed():
        obs.reset()
        start = time.perf_counter()
        encrypted = model.infer(context, image, recorder=recorder)
        wall = time.perf_counter() - start
        noise_rows = model.noise_profile(context)
    plain = model.infer_plain(image)
    err = float(np.max(np.abs(encrypted - plain)))

    tracer = obs.get_tracer()
    layer_stats = {r["name"]: r for r in tracer.summary(category="layer")}
    layer_rows = []
    for (name, bound), layer in zip(noise_rows, model.layers):
        stats = layer_stats.get(name, {})
        op_count = sum(recorder.by_phase.get(name, {}).values())
        layer_rows.append({
            "name": name,
            "kind": type(layer).__name__.removeprefix("Packed"),
            "wall_ms": stats.get("total_ms", 0.0),
            "he_ops": op_count,
            "level_out": bound.level,
            "noise_bits": bound.error_bits,
            "headroom_bits": bound.error_bits - args.headroom_floor_bits,
        })
    op_rows = [
        {"op": r["name"], "count": r["count"], "total_ms": r["total_ms"],
         "p50_ms": r["p50_ms"], "p95_ms": r["p95_ms"]}
        for r in tracer.summary(category="he_op")
    ]

    if args.format == "json":
        payload = {
            "network": model.name,
            "poly_degree": params.poly_degree,
            **params.security_summary(),
            "kernel_backend": backend_name,
            "wall_s": wall,
            "max_ckks_error": err,
            "headroom_floor_bits": args.headroom_floor_bits,
            "layers": layer_rows,
            "ops": op_rows,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(_security_header(model.name, params))
        print(format_table(
            ["layer", "kind", "wall ms", "HE ops", "level out", "noise bits",
             "headroom"],
            [(r["name"], r["kind"], f"{r['wall_ms']:.1f}", r["he_ops"],
              r["level_out"], f"{r['noise_bits']:.1f}",
              f"{r['headroom_bits']:+.1f}")
             for r in layer_rows],
            title=f"{model.name} encrypted inference profile "
                  f"(N={params.poly_degree}, kernels={backend_name}, "
                  f"wall {wall:.2f} s, headroom floor "
                  f"{args.headroom_floor_bits:g} bits)",
        ))
        print()
        print(format_table(
            ["op", "count", "total ms", "p50 ms", "p95 ms"],
            [(r["op"], r["count"], f"{r['total_ms']:.1f}",
              f"{r['p50_ms']:.2f}", f"{r['p95_ms']:.2f}")
             for r in op_rows],
            title="per-op latency breakdown",
        ))
        print(f"\nmax CKKS error vs plaintext reference: {err:.2e}")
    if args.trace_out:
        try:
            tracer.export_chrome_trace(args.trace_out)
        except OSError as exc:
            print(f"error: cannot write Chrome trace to "
                  f"{args.trace_out!r}: {exc}", file=sys.stderr)
            return 1
        if args.format != "json":
            print(f"Chrome trace written to {args.trace_out} "
                  f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _fmt_bits(bits: float | None) -> str:
    return "-" if bits is None else f"{bits:.2f}"


def cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct an encrypted inference's ciphertext lineage DAG.

    Runs one inference with a :class:`~repro.obs.lineage.LineageTracker`
    installed, then reports where the noise budget went: the per-layer
    noise waterfall (entry/exit/spent analytic bits at every layer
    boundary), the dominant per-op noise spenders, and the DAG's shape.
    ``--json-out`` / ``--dot`` export the full per-op record for offline
    tooling (the DOT file renders with Graphviz); ``--audit`` addition-
    ally decrypts at every layer boundary (client-side debug — needs the
    secret key) and cross-checks measured noise against the analytic
    bounds, failing hard on any under-estimate.
    """
    import json

    from . import obs
    from .fhe import CkksContext
    from .fhe.noise import NoiseEstimator

    _select_kernel_backend(args.kernel_backend)
    backend_name = kernels.active_backend().name
    params, model, image = _inference_setup(
        args.network, args.seed, full=args.full, command="explain",
    )
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    trace_id = obs.new_trace_id("explain")
    tracker = obs.LineageTracker(
        estimator=NoiseEstimator.for_context(context),
        trace_id=trace_id,
        headroom_threshold_bits=args.headroom_bits,
    )
    with obs.observed():
        obs.reset()
        with obs.trace_context(trace_id), obs.lineage_context(tracker):
            model.infer(context, image)
        audit_rows = model.audit_noise(context, image) if args.audit else None

    record = tracker.to_json()
    record["network"] = model.name
    record["poly_degree"] = params.poly_degree
    record["kernel_backend"] = backend_name
    if audit_rows is not None:
        record["audit"] = audit_rows

    ok = True
    if args.json_out:
        ok &= _write_or_fail(
            args.json_out, json.dumps(record, indent=2) + "\n",
            "lineage JSON",
        )
    if args.dot:
        ok &= _write_or_fail(args.dot, tracker.to_dot(), "lineage DOT")

    if args.format == "json":
        print(json.dumps(record, indent=2))
        return 0 if ok else 1

    print(format_table(
        ["layer", "entry bits", "exit bits", "spent bits", "worst ct"],
        [(r["layer"], _fmt_bits(r["entry_bits"]), _fmt_bits(r["exit_bits"]),
          _fmt_bits(r["spent_bits"]), r["worst_lineage_id"] or "-")
         for r in tracker.waterfall()],
        title=f"{model.name} noise waterfall (trace {trace_id}, "
              f"N={params.poly_degree}, kernels={backend_name})",
    ))
    print()
    print(format_table(
        ["ciphertext", "op", "layer", "spent bits", "exit bits"],
        [(n["lineage_id"], n["op"], n["layer"] or "-",
          _fmt_bits(n["spent_bits"]), _fmt_bits(n["exit_bits"]))
         for n in tracker.dominant_spenders(args.top)],
        title=f"top {args.top} noise spenders",
    ))
    edges = tracker.edges()
    print(f"\nDAG: {len(tracker.nodes)} ciphertexts, {len(edges)} edges, "
          f"{len(tracker.roots())} inputs; connected: "
          f"{tracker.is_connected()}")
    initial, final = tracker.initial_bits, tracker.final_bits
    if initial is not None and final is not None:
        print(f"analytic precision: {initial:.2f} -> {final:.2f} bits "
              f"(spent {initial - final:.2f})")
    print(f"headroom threshold {args.headroom_bits:g} bits: "
          f"{tracker.headroom_crossings} crossing(s)")
    if audit_rows is not None:
        print()
        print(format_table(
            ["layer", "analytic bits", "measured bits", "gap bits"],
            [(r["layer"], f"{r['analytic_bits']:.2f}",
              f"{r['measured_bits']:.2f}", f"{r['gap_bits']:+.2f}")
             for r in audit_rows],
            title="noise audit (measured vs analytic, decrypted "
                  "boundaries)",
        ))
        print("audit OK: measured noise never exceeded the analytic bound")
    if args.json_out:
        print(f"lineage record written to {args.json_out}")
    if args.dot:
        print(f"lineage DAG written to {args.dot} "
              f"(render: dot -Tsvg {args.dot})")
    return 0 if ok else 1


def _alert_engine(rules_path: str):
    """Build an :class:`~repro.obs.alerts.AlertEngine` from a RULES.json
    file, or exit with the parse/validation error."""
    from .obs.alerts import AlertEngine, load_rules

    try:
        rules = load_rules(rules_path)
    except OSError as exc:
        raise SystemExit(
            f"cannot read alert rules {rules_path!r}: {exc}"
        ) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f"bad alert rules in {rules_path!r}: {exc}"
        ) from None
    return AlertEngine(rules)


def _print_alert_summary(engine) -> None:
    counts = engine.counts()
    active = set(engine.active())
    for rule in engine.rules:
        c = counts[rule.name]
        state = "ACTIVE" if rule.name in active else "ok"
        print(f"alert {rule.name} [{rule.kind}]: "
              f"fired {c['fired']}, resolved {c['resolved']} [{state}]")


def cmd_serve(args: argparse.Namespace) -> int:
    """Simulate a slot-batched serving session and print the outcome."""
    from . import obs
    from .serve import (
        SchedulerConfig,
        ServingCostModel,
        SlotBatchScheduler,
        default_slos,
        evaluate_report,
    )
    from .serve.tenants import TenantRegistry
    from .serve.traffic import poisson_arrivals, zipf_tenant_arrivals

    device = _device(args.device)
    cost_model = ServingCostModel.cryptonets_mnist(device)
    engine = _alert_engine(args.alerts) if args.alerts else None
    scheduler = SlotBatchScheduler(
        cost_model,
        SchedulerConfig(
            batch_window_s=args.window,
            max_lanes=args.max_lanes,
            queue_capacity=args.queue_capacity,
        ),
        alerts=engine,
    )
    registry = None
    if args.tenants is not None:
        if args.tenants < 1:
            raise SystemExit("--tenants must be >= 1")
        registry = TenantRegistry()
        requests = zipf_tenant_arrivals(
            args.requests, args.rate, tenant_count=args.tenants,
            s=args.zipf_s, seed=args.seed, deadline_s=args.deadline,
            registry=registry,
        )
    else:
        requests = poisson_arrivals(
            args.requests, args.rate, seed=args.seed,
            deadline_s=args.deadline,
        )
    with obs.observed():
        obs.reset()
        report = scheduler.run(requests)
        slo_statuses = evaluate_report(
            report, default_slos(p99_latency_s=args.slo_p99)
        )
        openmetrics = obs.render_openmetrics() if args.openmetrics_out else ""
    latency = report.latency_percentiles()
    batch_rows = [
        (b.batch_id, b.mode, b.lanes, f"{b.fill_ratio:.3f}",
         f"{b.start_s:.3f}", f"{b.finish_s:.3f}")
        for b in report.batches
    ]
    print(format_table(
        ["batch", "mode", "lanes", "fill", "start s", "finish s"],
        batch_rows,
        title=f"slot-batched serving on {device.name} "
              f"(window={args.window}s, {args.requests} requests "
              f"@ {args.rate:.0f}/s)",
    ))
    print(f"completed: {report.completed}  rejected: {report.rejected}  "
          f"expired: {report.expired}")
    print(f"throughput: {report.throughput_images_per_s:.1f} img/s "
          f"amortized over {report.makespan_s:.2f} s")
    if registry is not None:
        per_group = report.per_key_group()
        print()
        print(format_table(
            ["key group", "tier", "requests", "done", "p50 s", "p99 s"],
            [(group, registry.get(
                  group.rsplit(":k", 1)[0]).tier,
              row["requests"], row["completed"],
              f"{row['latency_p50_s']:.2f}", f"{row['latency_p99_s']:.2f}")
             for group, row in sorted(per_group.items())],
            title=f"{len(per_group)} tenant key groups "
                  f"(zipf s={args.zipf_s:g})",
        ))
        print(f"cross-tenant isolation: "
              f"{'OK' if report.isolation_ok() else 'VIOLATED'} "
              f"(no batch mixes key groups)")
    print(f"latency: p50 {latency['p50']:.2f} s, p95 {latency['p95']:.2f} s, "
          f"p99 {latency['p99']:.2f} s")
    single = cost_model.single_request_seconds()
    if report.throughput_images_per_s > 0:
        print(f"vs single-request LoLa ({1 / single:.1f} img/s): "
              f"{report.throughput_images_per_s * single:.1f}x amortized")
    for status in slo_statuses:
        print(f"SLO {status.slo.name}: {status.value:.4f} "
              f"{'<=' if status.ok else '>'} {status.slo.threshold} "
              f"[{'OK' if status.ok else 'VIOLATED'}]")
    if engine is not None:
        _print_alert_summary(engine)
    ok = True
    if args.trace_out:
        try:
            obs.get_tracer().export_chrome_trace(args.trace_out)
            print(f"Chrome trace written to {args.trace_out}")
        except OSError as exc:
            print(f"error: cannot write Chrome trace to "
                  f"{args.trace_out!r}: {exc}", file=sys.stderr)
            ok = False
    if args.openmetrics_out:
        obs.validate_openmetrics(openmetrics)
        if _write_or_fail(args.openmetrics_out, openmetrics,
                          "OpenMetrics snapshot"):
            print(f"OpenMetrics snapshot written to {args.openmetrics_out}")
        else:
            ok = False
    if args.slo_strict and not all(s.ok for s in slo_statuses):
        return 1
    return 0 if ok else 1


def cmd_costs(args: argparse.Namespace) -> int:
    """Per-tenant cost attribution for a simulated serving session.

    Replays zipf multi-tenant traffic through the slot-batch scheduler
    with a :class:`~repro.serve.costs.CostLedger` installed, provisioning
    per-tenant CKKS contexts through the tenant-sharded cache (a cache
    miss charges keygen to that tenant; warm tenants amortize to zero)
    and charging the cost model's DSE scan to the shared pool.  Fleet
    costs settle onto tenants by slot-time share: node-seconds from the
    session makespan, energy from accelerator-busy time at the device's
    TDP.  The exit status is the books' verdict: the exact per-tenant ==
    fleet reconciliation, and per tenant, the requests charged equal the
    requests completed (:meth:`~repro.serve.costs.CostReport.matches`),
    so this command doubles as a CI smoke check.
    """
    import json

    from . import obs
    from .obs.registry import REGISTRY
    from .serve import (
        CostLedger,
        SchedulerConfig,
        ServingCostModel,
        SlotBatchScheduler,
        TenantShardedCache,
    )
    from .serve.tenants import TenantRegistry
    from .serve.traffic import zipf_tenant_arrivals

    device = _device(args.device)
    if args.tenants < 1:
        raise SystemExit("--tenants must be >= 1")
    engine = _alert_engine(args.alerts) if args.alerts else None
    ledger = CostLedger()
    with obs.observed():
        obs.reset()
        before = REGISTRY.counter("dse_points_scanned").value
        cost_model = ServingCostModel.cryptonets_mnist(device)
        # Designs resolve lazily: price both modes now so the DSE runs
        # inside the measured window.  The scan serves every tenant, so
        # it charges the shared pool, distributed like fleet costs.
        cost_model.single_request_seconds()
        cost_model.batch_seconds()
        ledger.note_dse(
            int(REGISTRY.counter("dse_points_scanned").value - before)
        )
        scheduler = SlotBatchScheduler(
            cost_model,
            SchedulerConfig(
                batch_window_s=args.window,
                max_lanes=args.max_lanes,
                queue_capacity=args.queue_capacity,
            ),
            ledger=ledger,
            alerts=engine,
        )
        registry = TenantRegistry()
        requests = zipf_tenant_arrivals(
            args.requests, args.rate, tenant_count=args.tenants,
            s=args.zipf_s, seed=args.seed, deadline_s=args.deadline,
            registry=registry,
        )
        contexts = TenantShardedCache("context")
        for req in requests:
            contexts.get_or_create(
                req.key_group, "context",
                ledger.keygen_factory(req.key_group, object),
            )
        report = scheduler.run(requests)
        busy_s = sum(b.finish_s - b.start_s for b in report.batches)
        ledger.settle(
            node_seconds=report.makespan_s,
            energy_joules=busy_s * device.tdp_watts,
        )
        ledger.publish()
        costs = ledger.report()

    reconciliation = costs.reconciliation()
    matched = costs.matches(report)
    ok = costs.reconciled and matched
    if args.format == "json":
        payload = {
            "device": device.name,
            "requests": args.requests,
            "tenant_count": args.tenants,
            "zipf_s": args.zipf_s,
            "window_s": args.window,
            "seed": args.seed,
            "makespan_s": report.makespan_s,
            "completed": report.completed,
            "rejected": report.rejected,
            "expired": report.expired,
            "throughput_images_per_s": report.throughput_images_per_s,
            "costs": costs.as_dict(),
            "charges_match_completions": matched,
            "alerts": engine.summary() if engine is not None else None,
        }
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1

    totals = costs.totals()
    rows = [
        (r.tenant, r.requests, f"{r.slot_us / 1e6:.3f}", r.wire_bytes,
         r.keygen_count, r.dse_points, f"{r.node_us / 1e6:.3f}",
         f"{r.energy_uj / 1e6:.3f}",
         f"{costs.share(r.tenant, 'node_seconds'):.1%}")
        for r in sorted(costs.tenants, key=lambda r: -r.node_us)
    ]
    print(format_table(
        ["tenant", "reqs", "slot s", "wire B", "keygen", "DSE", "node s",
         "energy J", "node share"],
        rows,
        title=f"per-tenant costs on {device.name} "
              f"({args.requests} requests, {args.tenants} tenants, "
              f"zipf s={args.zipf_s:g})",
    ))
    print(f"fleet totals: {totals['requests']:.0f} requests, "
          f"{totals['slot_seconds']:.3f} slot-s, "
          f"{totals['wire_bytes']:.0f} wire B, "
          f"{totals['keygen_count']:.0f} keygens, "
          f"{totals['dse_points']:.0f} DSE points, "
          f"{totals['node_seconds']:.3f} node-s, "
          f"{totals['energy_joules']:.3f} J")
    failed = sorted(k for k, ok in reconciliation.items() if not ok)
    print(f"reconciliation: "
          f"{'EXACT' if costs.reconciled else 'LEAKED'} "
          f"({sum(reconciliation.values())}/{len(reconciliation)} axes"
          + (f"; leaking: {', '.join(failed)}" if failed else "")
          + ")")
    print(f"charged requests: {'EXACT' if matched else 'LEAKED'} "
          f"({totals['requests']:.0f} charged, {report.completed} completed)")
    print(f"top tenant node-second share: "
          f"{costs.top_share('node_seconds'):.1%}")
    if engine is not None:
        _print_alert_summary(engine)
    return 0 if ok else 1


def cmd_bench_throughput(args: argparse.Namespace) -> int:
    """Sweep batch windows; print the latency-vs-throughput curve."""
    import json

    from .serve.bench import throughput_sweep

    device = _device(args.device)
    try:
        windows = sorted({float(w) for w in args.windows.split(",") if w})
    except ValueError:
        raise SystemExit(
            f"--windows must be comma-separated seconds, got "
            f"{args.windows!r}"
        ) from None
    if not windows:
        raise SystemExit("--windows must name at least one window")
    payload = throughput_sweep(
        device, windows=windows, request_count=args.requests,
        rate_per_s=args.rate, seed=args.seed, max_lanes=args.max_lanes,
    )
    rows = [
        (row["batch_window_s"], row["batches"],
         f"{row['mean_fill_ratio']:.3f}",
         f"{row['throughput_images_per_s']:.1f}",
         f"{row['latency_p50_s']:.2f}", f"{row['latency_p95_s']:.2f}")
        for row in payload["curve"]
    ]
    baseline = payload["baseline"]["throughput_images_per_s"]
    print(format_table(
        ["window s", "batches", "fill", "img/s", "p50 s", "p95 s"],
        rows,
        title=f"throughput sweep on {device.name} "
              f"(LoLa baseline {baseline:.1f} img/s)",
    ))
    print(f"best window: {payload['best_window_s']} s -> "
          f"{payload['amortized_speedup']:.1f}x amortized speedup "
          f"over single-request LoLa")
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"curve written to {args.json}")
    return 0


def _fleet_from_spec(
    spec: str, bandwidth_gbps: float, link_latency_us: float
):
    from .cluster import Fleet, Link

    names = [n.strip() for n in spec.split(",") if n.strip()]
    if not names:
        raise SystemExit(
            f"fleet spec must name at least one device, got {spec!r}"
        )
    link = Link(
        bandwidth_gbps=bandwidth_gbps, latency_s=link_latency_us * 1e-6
    )
    try:
        return Fleet.from_names(names, link=link)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_cluster(args: argparse.Namespace) -> int:
    """Dispatch ``repro cluster <subcommand>``."""
    if args.cluster_command == "plan":
        return cmd_cluster_plan(args)
    raise SystemExit(f"unknown cluster command {args.cluster_command!r}")


def cmd_cluster_plan(args: argparse.Namespace) -> int:
    """Plan a pipeline across a fleet; ``--repeat`` proves the cache."""
    import json

    from . import obs
    from .cluster import PARTITION_METHODS, FleetPlanner, best_single_device
    from .obs.registry import REGISTRY

    if args.method not in PARTITION_METHODS:
        raise SystemExit(
            f"unknown method {args.method!r}; "
            f"choose from {PARTITION_METHODS}"
        )
    trace = _network(args.network).trace()
    fleet = _fleet_from_spec(
        args.fleet, args.bandwidth_gbps, args.link_latency_us
    )
    planner = FleetPlanner()
    with obs.observed():
        obs.reset()
        plan = None
        for rerun in range(max(1, args.repeat)):
            before = REGISTRY.counter("dse_points_scanned").value
            plan = planner.plan(trace, fleet, method=args.method)
            scanned = REGISTRY.counter("dse_points_scanned").value - before
            print(f"pass {rerun + 1}: {scanned} design points scanned"
                  + (" (warm cache)" if scanned == 0 else ""))
        baseline = best_single_device(
            trace, list(fleet.devices), designs=planner.designs
        )

    rows = [
        (s.index, s.device.name, ",".join(s.layer_names),
         f"{s.compute_seconds:.5f}",
         s.transfer_bytes, f"{s.transfer_seconds:.5f}",
         f"{util:.1%}")
        for s, util in zip(plan.stages, plan.utilization())
    ]
    print(format_table(
        ["stage", "device", "layers", "compute s", "xfer B", "xfer s",
         "util"],
        rows,
        title=f"{trace.name} on {fleet.name} ({plan.method} split)",
    ))
    print(f"bottleneck interval: {plan.bottleneck_seconds:.5f} s -> "
          f"{plan.steady_state_throughput:.2f} inf/s steady-state")
    print(f"fill latency: {plan.fill_latency_seconds:.5f} s; "
          f"energy {plan.energy_per_inference_joules:.3f} J/inference")
    single_tp = 1.0 / baseline.latency_seconds
    print(f"best single device ({baseline.device.name}): "
          f"{baseline.latency_seconds:.5f} s -> {single_tp:.2f} inf/s; "
          f"pipeline speedup "
          f"{plan.steady_state_throughput / single_tp:.2f}x")
    if args.json:
        Path(args.json).write_text(
            json.dumps(plan.as_dict(), indent=2) + "\n"
        )
        print(f"plan written to {args.json}")
    return 0


def cmd_bench_cluster(args: argparse.Namespace) -> int:
    """Run the fleet benchmark; exit nonzero if an invariant fails."""
    import json

    from .cluster import Link, default_fleets, run_cluster_bench

    trace = _network(args.network).trace()
    if args.fleet:
        fleets = [
            _fleet_from_spec(
                spec, args.bandwidth_gbps, args.link_latency_us
            )
            for spec in args.fleet
        ]
    else:
        fleets = default_fleets(Link(
            bandwidth_gbps=args.bandwidth_gbps,
            latency_s=args.link_latency_us * 1e-6,
        ))
    payload = run_cluster_bench(trace, fleets=fleets, num_items=args.items)

    rows = []
    for row in payload["fleets"]:
        splits = row["splits"]
        rows.append((
            row["fleet"]["name"],
            f"{splits['dp']['bottleneck_seconds']:.5f}",
            f"{splits['equal']['bottleneck_seconds']:.5f}",
            f"{row['plan']['steady_state_throughput']:.2f}",
            f"{row['throughput_speedup_vs_single']:.2f}x",
            f"{row['energy_per_inference_joules']:.3f}",
            "OK" if row["sim"]["matches_analytic"] else "MISMATCH",
        ))
    print(format_table(
        ["fleet", "dp s", "equal s", "inf/s", "vs single", "J/inf", "sim"],
        rows,
        title=f"cluster bench: {trace.name}, {args.items} items/fleet",
    ))
    warm = payload["warm_rerun"]
    print(f"dp <= equal on all fleets: {payload['all_dp_beat_equal']}")
    print(f"warm rerun flat: {warm['flat']} "
          f"({warm['dse_points_scanned_after']} points scanned total)")
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.json}")
    sims_ok = all(
        row["sim"]["matches_analytic"] for row in payload["fleets"]
    )
    ok = payload["all_dp_beat_equal"] and warm["flat"] and sims_ok
    return 0 if ok else 1


def cmd_plan_capacity(args: argparse.Namespace) -> int:
    """Sweep fleet sizes: "how many boards for X req/s at p99 <= Y?"."""
    import json

    from . import obs
    from .cluster import plan_capacity
    from .serve import SchedulerConfig

    device = _device(args.device)
    config = SchedulerConfig(max_lanes=args.max_lanes or None)
    with obs.observed():
        obs.reset()
        plan = plan_capacity(
            args.rate, args.p99, device,
            max_nodes=args.max_nodes, poly_degree=args.poly_degree,
            config=config, horizon_s=args.horizon, seed=args.seed,
        )
    rows = [
        (p.nodes, f"{p.capacity_per_s:.1f}", f"{p.measured_p99_s:.2f}",
         f"{p.reject_rate:.1%}", f"{p.throughput_images_per_s:.1f}",
         f"{p.energy_per_inference_joules:.3f}",
         "yes" if p.meets else "no")
        for p in plan.frontier
    ]
    print(format_table(
        ["nodes", "cap/s", "p99 s", "reject", "img/s", "J/inf", "meets"],
        rows,
        title=f"capacity frontier on {device.name} "
              f"(target {args.rate:g} req/s, p99 <= {args.p99:g} s)",
    ))
    if plan.recommended_nodes is None:
        print(f"no fleet up to {plan.frontier[-1].nodes} nodes meets the "
              f"target; raise --max-nodes or relax the SLO")
    else:
        rec = plan.recommended
        print(f"recommendation: {plan.recommended_nodes} x {device.name} "
              f"({rec.capacity_per_s:.1f} req/s capacity, measured p99 "
              f"{rec.measured_p99_s:.2f} s)")
        print("design cache is now warm: an autoscaler sharing this "
              "planner spins up without re-running DSE")
    if args.json_out:
        payload = json.dumps(plan.as_dict(), indent=2) + "\n"
        if not _write_or_fail(args.json_out, payload, "capacity plan"):
            return 1
        print(f"capacity plan written to {args.json_out}")
    return 0 if plan.recommended_nodes is not None else 1


def cmd_autoscale(args: argparse.Namespace) -> int:
    """Replay a diurnal + flash-crowd day through the elastic fleet."""
    import json

    from . import obs
    from .serve import (
        AutoscalerConfig,
        FleetAutoscaler,
        SchedulerConfig,
        Slo,
        held_fraction,
        merge_arrivals,
    )
    from .serve.traffic import diurnal_arrivals, flash_crowd_arrivals

    device = _device(args.device)
    try:
        policy = AutoscalerConfig(
            min_nodes=args.min_nodes, max_nodes=args.max_nodes,
            cooldown_s=args.cooldown,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    requests = merge_arrivals(
        diurnal_arrivals(
            args.duration, args.base_rate, args.peak_rate,
            period_s=args.duration, seed=args.seed,
        ),
        flash_crowd_arrivals(
            args.duration, args.surge_base_rate, args.surge_start,
            args.surge_duration, surge_multiplier=args.surge_multiplier,
            seed=args.seed + 1,
        ),
    )
    with obs.observed():
        obs.reset()
        try:
            scaler = FleetAutoscaler(
                device, policy=policy,
                config=SchedulerConfig(max_lanes=args.max_lanes),
                slos=(Slo("p99-latency", "p99_latency_s", args.slo_p99,
                          window=1000),),
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        report = scaler.run(requests)
    serve = report.serve
    print(f"{len(requests)} requests over {args.duration:g} s "
          f"(surge {args.surge_multiplier:g}x at "
          f"{args.surge_start:g}-{args.surge_start + args.surge_duration:g} "
          f"s) on {device.name}")
    rows = [
        (f"{d.at_s:.1f}", d.action, f"{d.from_nodes}->{d.to_nodes}",
         f"{d.spin_up_s:.2f}" if d.action == "scale_up" else "-",
         {True: "warm", False: "cold", None: "-"}[d.warm],
         d.reason)
        for d in report.decisions
    ]
    print(format_table(
        ["t s", "action", "nodes", "spin-up s", "caches", "reason"],
        rows or [("-", "hold", "-", "-", "-", "no decision fired")],
        title=f"{len(report.resizes)} resizes, "
              f"{len(report.decisions) - len(report.resizes)} suppressed "
              f"(cooldown {policy.cooldown_s:g} s)",
    ))
    latency = serve.latency_percentiles()
    print(f"completed: {serve.completed}  rejected: {serve.rejected}  "
          f"expired: {serve.expired}")
    print(f"latency: p50 {latency['p50']:.2f} s, p99 {latency['p99']:.2f} s"
          f" (SLO threshold {args.slo_p99:g} s)")
    first_up = next(
        (d for d in report.resizes if d.action == "scale_up"), None
    )
    settle = (first_up.at_s + policy.cooldown_s) if first_up else 0.0
    held = held_fraction(serve, 10.0, args.slo_p99, start_s=settle)
    print(f"p99 held in {held:.1%} of 10 s windows after "
          f"{settle:.0f} s (first scale-up + cooldown)")
    static_max = policy.max_nodes * report.end_s
    print(f"node-seconds: {report.node_seconds:.0f} billed vs "
          f"{static_max:.0f} static-max "
          f"({1.0 - report.node_seconds / static_max:.0%} saved); "
          f"peak fleet {report.peak_nodes} nodes")
    ok = True
    if args.trace_out:
        try:
            obs.get_tracer().export_chrome_trace(args.trace_out)
            print(f"Chrome trace written to {args.trace_out}")
        except OSError as exc:
            print(f"error: cannot write Chrome trace to "
                  f"{args.trace_out!r}: {exc}", file=sys.stderr)
            ok = False
    if args.json_out:
        payload = json.dumps(report.as_dict(), indent=2) + "\n"
        if not _write_or_fail(args.json_out, payload, "autoscale report"):
            ok = False
        else:
            print(f"autoscale report written to {args.json_out}")
    if args.slo_strict and held < 0.99:
        return 1
    return 0 if ok else 1


def cmd_report(_args: argparse.Namespace) -> int:
    """Regenerate the headline evaluation (Table VII + Fig. 10 + Table IX)."""
    from .analysis import TABLE7_FXHENN_PAPER, TABLE7_LITERATURE
    from .fpga import energy_efficiency, speedup
    from .optypes import MODULE_OPS

    framework = FxHennFramework()
    lola = next(e for e in TABLE7_LITERATURE if e.system == "LoLa")
    rows = []
    fig10_rows = []
    for net_name, make in (("mnist", fxhenn_mnist_model),
                           ("cifar", fxhenn_cifar10_model)):
        trace = make().trace()
        for device in (acu9eg(), acu15eg()):
            design = framework.generate(trace, device)
            ref = lola.platform(net_name)
            ours = design.platform_result()
            paper = TABLE7_FXHENN_PAPER[(trace.name, device.name)]
            rows.append(
                (trace.name, device.name, paper, design.latency_seconds,
                 speedup(ours, ref), energy_efficiency(ours, ref))
            )
            desc = design.solution.point.describe()
            fig10_rows.append(
                (f"{trace.name} @ {device.name}",
                 design.solution.point.nc_ntt)
                + tuple(f"{desc[op.value][0]}/{desc[op.value][1]}"
                        for op in MODULE_OPS)
            )
    print(format_table(
        ["network", "device", "paper s", "modeled s", "speedup vs LoLa",
         "energy eff vs LoLa"],
        rows, title="Table VII (FxHENN rows)",
    ))
    print()
    print(format_table(
        ["design", "nc"] + [op.value for op in MODULE_OPS],
        fig10_rows, title="Fig. 10 (chosen parallelism, intra/inter)",
    ))
    mnist = fxhenn_mnist_model().trace()
    dev = acu9eg()
    fx = framework.generate(mnist, dev)
    base = framework.generate_baseline(mnist, dev)
    print()
    print(f"Table IX: FxHENN {fx.latency_seconds:.3f} s vs baseline "
          f"{base.latency_seconds:.3f} s "
          f"({base.latency_seconds / fx.latency_seconds:.1f}x from reuse; "
          f"paper: 0.24 s vs 1.17 s, 4.9x)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FxHENN reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list built-in FPGA targets")

    p_trace = sub.add_parser("trace", help="print a network's HE op trace")
    p_trace.add_argument("--network", default="mnist")

    p_gen = sub.add_parser("generate", help="run the DSE for a network/device")
    p_gen.add_argument("--network", default="mnist")
    p_gen.add_argument("--device", default="acu9eg")
    p_gen.add_argument("--json", help="write the design record to this file")
    p_gen.add_argument("--directives", help="write HLS directives to this file")

    p_exp = sub.add_parser("explore", help="print the Pareto frontier")
    p_exp.add_argument("--network", default="mnist")
    p_exp.add_argument("--device", default="acu9eg")
    p_exp.add_argument("--bram-min", type=int, default=350)
    p_exp.add_argument("--bram-max", type=int, default=1500)

    p_inf = sub.add_parser("infer", help="run a real encrypted inference")
    p_inf.add_argument("--network", default="tiny")
    p_inf.add_argument("--fast", action="store_true",
                       help="mnist only: reduced N=2048 parameters")
    p_inf.add_argument("--seed", type=int, default=4)
    p_inf.add_argument("--kernel-backend", metavar="NAME",
                       help=_KERNEL_BACKEND_HELP)

    p_prof = sub.add_parser(
        "profile",
        help="profile an encrypted inference (latency + noise breakdown)",
    )
    p_prof.add_argument("--network", default="mnist")
    p_prof.add_argument("--full", action="store_true",
                        help="mnist only: full paper parameters (slow)")
    p_prof.add_argument("--seed", type=int, default=4)
    p_prof.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format: human tables or one JSON "
                             "object with the same per-layer/per-op data")
    p_prof.add_argument("--trace-out",
                        help="write Chrome-trace JSON to this file")
    p_prof.add_argument("--headroom-floor-bits", type=float, default=8.0,
                        help="precision floor subtracted from each layer's "
                             "analytic noise bits to form the headroom "
                             "column (default 8)")
    p_prof.add_argument("--kernel-backend", metavar="NAME",
                        help=_KERNEL_BACKEND_HELP)

    p_expl = sub.add_parser(
        "explain",
        help="reconstruct an inference's ciphertext lineage DAG and "
             "noise waterfall",
    )
    p_expl.add_argument("--network", default="mnist")
    p_expl.add_argument("--full", action="store_true",
                        help="mnist only: full paper parameters (slow)")
    p_expl.add_argument("--seed", type=int, default=4)
    p_expl.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="human tables or the full lineage record as "
                             "one JSON object")
    p_expl.add_argument("--audit", action="store_true",
                        help="decrypt at layer boundaries and check "
                             "measured noise against the analytic bounds "
                             "(debug; uses the secret key)")
    p_expl.add_argument("--headroom-bits", type=float, default=8.0,
                        help="noise-headroom threshold: layer boundaries "
                             "whose analytic bits fall below this emit a "
                             "flight-recorder violation event (default 8)")
    p_expl.add_argument("--top", type=int, default=5,
                        help="dominant noise spenders to list")
    p_expl.add_argument("--json-out",
                        help="write the lineage DAG record (JSON) to this "
                             "file")
    p_expl.add_argument("--dot",
                        help="write the lineage DAG (Graphviz DOT) to "
                             "this file")
    p_expl.add_argument("--kernel-backend", metavar="NAME",
                        help=_KERNEL_BACKEND_HELP)

    p_serve = sub.add_parser(
        "serve", help="simulate a slot-batched serving session"
    )
    p_serve.add_argument("--device", default="acu9eg")
    p_serve.add_argument("--window", type=float, default=0.5,
                         help="batch window in seconds")
    p_serve.add_argument("--requests", type=int, default=2000)
    p_serve.add_argument("--rate", type=float, default=5000.0,
                         help="mean arrival rate, requests/s")
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--max-lanes", type=int, default=None,
                         help="cap batch size below N/2")
    p_serve.add_argument("--queue-capacity", type=int, default=1_000_000)
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="per-request deadline in seconds")
    p_serve.add_argument("--tenants", type=int, default=None,
                         help="simulate a multi-tenant population of N "
                              "distinct keys (zipf-ranked traffic; batches "
                              "never mix key groups)")
    p_serve.add_argument("--zipf-s", type=float, default=1.1,
                         help="zipf skew exponent for --tenants traffic")
    p_serve.add_argument("--slo-p99", type=float, default=30.0,
                         help="p99 latency SLO threshold in seconds")
    p_serve.add_argument("--slo-strict", action="store_true",
                         help="exit nonzero when any SLO is violated")
    p_serve.add_argument("--trace-out",
                         help="write the session's Chrome-trace JSON "
                              "(virtual request/batch tracks) to this file")
    p_serve.add_argument("--openmetrics-out",
                         help="write an OpenMetrics metrics snapshot of "
                              "the session to this file")
    p_serve.add_argument("--alerts", metavar="RULES.json",
                         help="evaluate declarative alert rules (static "
                              "thresholds + SLO burn rates) along the "
                              "session's virtual clock; prints fired/"
                              "resolved counts per rule")

    p_costs = sub.add_parser(
        "costs",
        help="per-tenant cost attribution for a simulated serving "
             "session (exact reconciliation)",
    )
    p_costs.add_argument("--device", default="acu9eg")
    p_costs.add_argument("--window", type=float, default=0.5,
                         help="batch window in seconds")
    p_costs.add_argument("--requests", type=int, default=2000)
    p_costs.add_argument("--rate", type=float, default=5000.0,
                         help="mean arrival rate, requests/s")
    p_costs.add_argument("--seed", type=int, default=7)
    p_costs.add_argument("--tenants", type=int, default=8,
                         help="zipf-ranked multi-tenant population size")
    p_costs.add_argument("--zipf-s", type=float, default=1.1,
                         help="zipf skew exponent")
    p_costs.add_argument("--max-lanes", type=int, default=None,
                         help="cap batch size below N/2")
    p_costs.add_argument("--queue-capacity", type=int, default=1_000_000)
    p_costs.add_argument("--deadline", type=float, default=None,
                         help="per-request deadline in seconds")
    p_costs.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="human tables or the full cost report as "
                              "one JSON object")
    p_costs.add_argument("--alerts", metavar="RULES.json",
                         help="also evaluate alert rules along the "
                              "session's virtual clock")

    p_bt = sub.add_parser(
        "bench-throughput",
        help="sweep batch windows: latency vs amortized throughput",
    )
    p_bt.add_argument("--device", default="acu9eg")
    p_bt.add_argument("--windows", default="0.02,0.1,0.5,2.0",
                      help="comma-separated batch windows in seconds")
    p_bt.add_argument("--requests", type=int, default=2000)
    p_bt.add_argument("--rate", type=float, default=5000.0)
    p_bt.add_argument("--seed", type=int, default=7)
    p_bt.add_argument("--max-lanes", type=int, default=None)
    p_bt.add_argument("--json", help="write the full curve to this file")

    p_cluster = sub.add_parser(
        "cluster", help="multi-FPGA pipeline planning"
    )
    cluster_sub = p_cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    p_cp = cluster_sub.add_parser(
        "plan", help="plan a network's pipeline across a fleet"
    )
    p_cp.add_argument("--network", default="mnist")
    p_cp.add_argument("--fleet", default="acu15eg,acu15eg,acu15eg",
                      help="comma-separated device names, pipeline order")
    p_cp.add_argument("--bandwidth-gbps", type=float, default=10.0)
    p_cp.add_argument("--link-latency-us", type=float, default=50.0)
    p_cp.add_argument("--method", default="dp",
                      help="cut solver: dp, greedy or equal")
    p_cp.add_argument("--repeat", type=int, default=1,
                      help="re-plan N times to demo the warm design cache")
    p_cp.add_argument("--json", help="write the plan record to this file")

    p_bc = sub.add_parser(
        "bench-cluster",
        help="benchmark fleet pipelines against single-device designs",
    )
    p_bc.add_argument("--network", default="mnist")
    p_bc.add_argument("--fleet", action="append", default=None,
                      help="comma-separated device names; repeatable "
                           "(default: the built-in fleet mix)")
    p_bc.add_argument("--bandwidth-gbps", type=float, default=10.0)
    p_bc.add_argument("--link-latency-us", type=float, default=50.0)
    p_bc.add_argument("--items", type=int, default=32,
                      help="inferences pushed through each simulated "
                           "pipeline")
    p_bc.add_argument("--json", help="write the full report to this file")

    p_pc = sub.add_parser(
        "plan-capacity",
        help="sweep fleet sizes: boards needed for a rate + p99 target",
    )
    p_pc.add_argument("--device", default="acu15eg")
    p_pc.add_argument("--rate", type=float, default=70.0,
                      help="target arrival rate, requests/s")
    p_pc.add_argument("--p99", type=float, default=13.0,
                      help="p99 latency SLO threshold in seconds")
    p_pc.add_argument("--max-nodes", type=int, default=None,
                      help="largest fleet to sweep (default: the "
                           "pipeline depth)")
    p_pc.add_argument("--poly-degree", type=int, default=8192)
    p_pc.add_argument("--horizon", type=float, default=30.0,
                      help="virtual seconds of Poisson replay per "
                           "candidate")
    p_pc.add_argument("--max-lanes", type=int, default=256,
                      help="cap batch size below N/2 (0 = uncapped)")
    p_pc.add_argument("--seed", type=int, default=0)
    p_pc.add_argument("--json-out",
                      help="write the capacity plan (JSON) to this file")

    p_as = sub.add_parser(
        "autoscale",
        help="replay a diurnal + flash-crowd day through the elastic "
             "fleet autoscaler",
    )
    p_as.add_argument("--device", default="acu15eg")
    p_as.add_argument("--duration", type=float, default=600.0,
                      help="replay length in virtual seconds")
    p_as.add_argument("--base-rate", type=float, default=4.0,
                      help="diurnal trough rate, requests/s")
    p_as.add_argument("--peak-rate", type=float, default=12.0,
                      help="diurnal crest rate, requests/s")
    p_as.add_argument("--surge-base-rate", type=float, default=6.0,
                      help="flash-crowd baseline rate, requests/s")
    p_as.add_argument("--surge-start", type=float, default=240.0)
    p_as.add_argument("--surge-duration", type=float, default=60.0)
    p_as.add_argument("--surge-multiplier", type=float, default=10.0)
    p_as.add_argument("--min-nodes", type=int, default=1)
    p_as.add_argument("--max-nodes", type=int, default=3)
    p_as.add_argument("--cooldown", type=float, default=30.0,
                      help="refractory seconds after any resize")
    p_as.add_argument("--max-lanes", type=int, default=256,
                      help="cap batch size below N/2")
    p_as.add_argument("--slo-p99", type=float, default=13.0,
                      help="p99 latency SLO threshold in seconds")
    p_as.add_argument("--slo-strict", action="store_true",
                      help="exit nonzero when p99 held in < 99%% of "
                           "windows after the first scale-up settles")
    p_as.add_argument("--seed", type=int, default=1)
    p_as.add_argument("--trace-out",
                      help="write the session's Chrome-trace JSON "
                           "(request, batch and autoscaler tracks) to "
                           "this file")
    p_as.add_argument("--json-out",
                      help="write the autoscale report (JSON) to this "
                           "file")

    sub.add_parser(
        "report", help="regenerate the headline evaluation tables"
    )

    return parser


_COMMANDS = {
    "devices": cmd_devices,
    "trace": cmd_trace,
    "generate": cmd_generate,
    "explore": cmd_explore,
    "infer": cmd_infer,
    "profile": cmd_profile,
    "explain": cmd_explain,
    "serve": cmd_serve,
    "costs": cmd_costs,
    "bench-throughput": cmd_bench_throughput,
    "cluster": cmd_cluster,
    "bench-cluster": cmd_bench_cluster,
    "plan-capacity": cmd_plan_capacity,
    "autoscale": cmd_autoscale,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
