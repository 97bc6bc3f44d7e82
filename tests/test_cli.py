"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_devices(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "ACU9EG" in out and "ACU15EG" in out
    assert "2520" in out and "3528" in out


def test_trace_mnist(capsys):
    assert main(["trace", "--network", "mnist"]) == 0
    out = capsys.readouterr().out
    assert "Cnv1" in out and "Fc2" in out and "TOTAL" in out
    assert "FxHENN-MNIST" in out


def test_trace_cifar(capsys):
    assert main(["trace", "--network", "cifar10"]) == 0
    out = capsys.readouterr().out
    assert "Cnv2" in out


def test_generate_with_outputs(tmp_path, capsys):
    json_path = tmp_path / "design.json"
    tcl_path = tmp_path / "directives.tcl"
    rc = main([
        "generate", "--network", "mnist", "--device", "acu9eg",
        "--json", str(json_path), "--directives", str(tcl_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency" in out and "feasible" in out
    record = json.loads(json_path.read_text())
    assert record["network"] == "FxHENN-MNIST"
    assert "set_param ntt_cores" in tcl_path.read_text()


def test_explore(capsys):
    assert main([
        "explore", "--network", "mnist", "--device", "acu9eg",
        "--bram-min", "400", "--bram-max", "1000",
    ]) == 0
    out = capsys.readouterr().out
    assert "Pareto frontier" in out
    assert "KeySwitch" in out


def test_infer_tiny(capsys):
    assert main(["infer", "--network", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "max CKKS error" in out
    assert "OK" in out
    # The HE standard has no entry for N=512.
    assert "log Q = 196, log QP = 224, security none" in out


def test_profile_tiny(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    rc = main([
        "profile", "--network", "tiny", "--trace-out", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inference profile" in out
    assert "noise bits" in out
    assert "per-op latency breakdown" in out
    assert "p95 ms" in out
    data = json.loads(trace_path.read_text())
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert {"network", "layer", "he_op"} <= {e["cat"] for e in events}


def test_profile_json_format(capsys):
    assert main(["profile", "--network", "tiny", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["network"] == "Tiny-MNIST"
    assert (payload["log_q"], payload["log_qp"]) == (196, 224)
    assert payload["security_level"] is None
    assert payload["wall_s"] > 0
    assert payload["max_ckks_error"] < 1.0
    layer = payload["layers"][0]
    assert {"name", "kind", "wall_ms", "he_ops", "level_out",
            "noise_bits"} <= set(layer)
    op = payload["ops"][0]
    assert {"op", "count", "total_ms", "p50_ms", "p95_ms"} <= set(op)


def test_profile_reports_noise_headroom(capsys):
    assert main([
        "profile", "--network", "tiny", "--format", "json",
        "--headroom-floor-bits", "6",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["headroom_floor_bits"] == 6.0
    for layer in payload["layers"]:
        assert layer["headroom_bits"] == pytest.approx(
            layer["noise_bits"] - 6.0
        )


def test_profile_text_shows_headroom_column(capsys):
    assert main(["profile", "--network", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "headroom" in out
    assert "headroom floor 8 bits" in out


def test_explain_tiny_text(capsys):
    assert main(["explain", "--network", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "noise waterfall" in out
    assert "Cnv1" in out and "Fc2" in out
    assert "noise spenders" in out
    assert "connected" in out
    assert "headroom threshold" in out and "crossing" in out


def test_explain_json_format_is_a_lineage_record(capsys):
    assert main(["explain", "--network", "tiny", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["network"] == "Tiny-MNIST"
    assert record["connected"] is True
    assert record["node_count"] == len(record["nodes"])
    assert record["waterfall"][0]["layer"] == "Cnv1"
    spent = sum(r["spent_bits"] for r in record["waterfall"])
    assert spent == pytest.approx(
        record["initial_bits"] - record["final_bits"], abs=1e-9
    )


def test_explain_writes_json_and_dot_artifacts(tmp_path, capsys):
    json_path = tmp_path / "lineage.json"
    dot_path = tmp_path / "lineage.dot"
    assert main([
        "explain", "--network", "tiny",
        "--json-out", str(json_path), "--dot", str(dot_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "lineage record written" in out
    assert "lineage DAG written" in out
    record = json.loads(json_path.read_text())
    assert record["connected"] is True
    dot = dot_path.read_text()
    assert dot.startswith("digraph lineage {")
    assert "->" in dot


def test_explain_audit_checks_measured_noise(capsys):
    assert main(["explain", "--network", "tiny", "--audit"]) == 0
    out = capsys.readouterr().out
    assert "measured" in out
    assert "audit OK" in out


def test_explain_unwritable_json_out_exits_nonzero(tmp_path, capsys):
    rc = main([
        "explain", "--network", "tiny",
        "--json-out", str(tmp_path / "no-such-dir" / "lineage.json"),
    ])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


def test_profile_unwritable_trace_out_exits_nonzero(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "trace.json"
    rc = main([
        "profile", "--network", "tiny", "--trace-out", str(missing),
    ])
    assert rc == 1
    assert "cannot write Chrome trace" in capsys.readouterr().err


def test_unknown_device_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--device", "bogus"])
    assert excinfo.value.code != 0
    assert "unknown device" in str(excinfo.value)


@pytest.mark.parametrize("command", ["trace", "generate", "explore"])
def test_unknown_network_exits_nonzero(command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--network", "bogus"])
    assert excinfo.value.code != 0
    assert "unknown network" in str(excinfo.value)


@pytest.mark.parametrize("command", ["infer", "profile", "explain"])
def test_unknown_network_exits_nonzero_fhe_commands(command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--network", "cifar10"])
    assert excinfo.value.code != 0


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_report(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "Table VII" in out
    assert "Fig. 10" in out
    assert "Table IX" in out
    assert "FxHENN-CIFAR10" in out


def test_serve(capsys):
    assert main([
        "serve", "--requests", "200", "--rate", "2000", "--window", "0.1",
    ]) == 0
    out = capsys.readouterr().out
    assert "slot-batched serving on ACU9EG" in out
    assert "completed: 200" in out
    assert "throughput:" in out and "img/s" in out
    assert "vs single-request LoLa" in out


def test_serve_prints_slo_verdicts(capsys):
    assert main([
        "serve", "--requests", "100", "--rate", "2000", "--window", "0.1",
    ]) == 0
    out = capsys.readouterr().out
    assert "SLO p99-latency" in out
    assert "SLO queue-rejects" in out


def test_serve_slo_strict_fails_on_violation(capsys):
    rc = main([
        "serve", "--requests", "100", "--rate", "2000", "--window", "0.1",
        "--slo-p99", "0.001", "--slo-strict",
    ])
    assert rc == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_serve_artifact_outputs(tmp_path, capsys):
    from repro.obs import validate_openmetrics

    trace_path = tmp_path / "serve_trace.json"
    metrics_path = tmp_path / "serve_metrics.txt"
    assert main([
        "serve", "--requests", "100", "--rate", "2000", "--window", "0.1",
        "--trace-out", str(trace_path),
        "--openmetrics-out", str(metrics_path),
    ]) == 0
    trace = json.loads(trace_path.read_text())
    # Virtual request/batch journeys ride pid 1 next to wall spans.
    assert any(e["pid"] == 1 for e in trace["traceEvents"])
    assert any(e["name"] == "queue_wait" for e in trace["traceEvents"])
    text = metrics_path.read_text()
    validate_openmetrics(text)
    assert "slo_ok" in text


def test_serve_unwritable_trace_out_exits_nonzero(tmp_path, capsys):
    rc = main([
        "serve", "--requests", "50",
        "--trace-out", str(tmp_path / "missing-dir" / "t.json"),
    ])
    assert rc == 1
    assert "cannot write Chrome trace" in capsys.readouterr().err


def test_bench_throughput_json(tmp_path, capsys):
    out_path = tmp_path / "BENCH_serve.json"
    assert main([
        "bench-throughput", "--windows", "0.05,0.5",
        "--requests", "300", "--rate", "3000",
        "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "window" in out and "img/s" in out
    payload = json.loads(out_path.read_text())
    assert payload["device"] == "ACU9EG"
    assert len(payload["curve"]) == 2
    assert payload["amortized_speedup"] >= 5.0


def test_bench_throughput_bad_windows_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench-throughput", "--windows", "fast,slow"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize(
    "command", ["serve", "bench-throughput", "plan-capacity", "autoscale"]
)
def test_serve_commands_unknown_device_exit_nonzero(command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--device", "bogus"])
    assert excinfo.value.code != 0
    assert "unknown device" in str(excinfo.value)


def test_cluster_plan(capsys):
    assert main([
        "cluster", "plan", "--network", "mnist",
        "--fleet", "acu15eg,acu15eg", "--repeat", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "bottleneck interval" in out
    assert "pipeline speedup" in out
    assert "(warm cache)" in out  # second pass scanned zero points


def test_cluster_plan_json(tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    assert main([
        "cluster", "plan", "--fleet", "acu9eg,acu15eg",
        "--method", "greedy", "--json", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["method"] == "greedy"
    assert len(payload["stages"]) == 2
    assert payload["bottleneck_seconds"] > 0


def test_cluster_plan_bad_method_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["cluster", "plan", "--method", "magic"])
    assert excinfo.value.code != 0


def test_cluster_plan_unknown_device_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["cluster", "plan", "--fleet", "bogus,acu9eg"])
    assert excinfo.value.code != 0


def test_bench_cluster_json(tmp_path, capsys):
    out_path = tmp_path / "BENCH_cluster.json"
    assert main([
        "bench-cluster", "--fleet", "acu9eg,acu9eg,acu9eg",
        "--items", "4", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "cluster bench" in out
    assert "warm rerun flat: True" in out
    payload = json.loads(out_path.read_text())
    assert payload["all_dp_beat_equal"] is True
    assert payload["warm_rerun"]["flat"] is True
    row = payload["fleets"][0]
    assert row["sim"]["matches_analytic"] is True
    assert row["beats_single_device"] is True


def test_plan_capacity(tmp_path, capsys):
    out_path = tmp_path / "capacity.json"
    assert main([
        "plan-capacity", "--rate", "2.5", "--p99", "20",
        "--max-nodes", "2", "--max-lanes", "8", "--horizon", "20",
        "--json-out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "capacity frontier" in out
    assert "recommendation: 2 x ACU15EG" in out
    payload = json.loads(out_path.read_text())
    assert payload["recommended_nodes"] == 2
    assert [p["nodes"] for p in payload["frontier"]] == [1, 2]
    assert payload["frontier"][0]["meets"] is False
    assert payload["frontier"][1]["meets"] is True


def test_plan_capacity_unmeetable_target_exits_nonzero(capsys):
    assert main([
        "plan-capacity", "--rate", "50", "--p99", "20",
        "--max-nodes", "2", "--max-lanes", "8", "--horizon", "10",
    ]) == 1
    out = capsys.readouterr().out
    assert "no fleet up to 2 nodes meets the target" in out


def test_autoscale(tmp_path, capsys):
    trace_path = tmp_path / "autoscale.trace.json"
    json_path = tmp_path / "autoscale.json"
    rc = main([
        "autoscale", "--duration", "80", "--base-rate", "2",
        "--peak-rate", "6", "--surge-base-rate", "4",
        "--surge-start", "20", "--surge-duration", "10",
        "--surge-multiplier", "20", "--max-nodes", "2",
        "--cooldown", "10", "--max-lanes", "8", "--slo-p99", "500",
        "--trace-out", str(trace_path), "--json-out", str(json_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scale_up" in out
    assert "node-seconds" in out
    payload = json.loads(json_path.read_text())
    actions = [d["action"] for d in payload["decisions"]]
    assert "scale_up" in actions
    assert payload["peak_nodes"] == 2
    assert payload["node_seconds"] > 0
    trace = json.loads(trace_path.read_text())
    names = {e.get("name") for e in trace["traceEvents"]}
    assert "spin_up 1->2" in names


def test_autoscale_bad_policy_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["autoscale", "--min-nodes", "0"])
    assert excinfo.value.code != 0


_BURN_RULES = {
    "rules": [
        {
            "name": "slo-burn", "kind": "burn_rate",
            "bad_series": ["serve_requests_total{outcome=expired}",
                           "serve_requests_total{outcome=rejected}"],
            "total_series": ["serve_requests_total{outcome=*}"],
            "budget": 0.01, "fast_window_s": 5.0, "slow_window_s": 30.0,
            "fast_burn": 14.0, "slow_burn": 6.0,
        },
    ]
}


def test_serve_alerts_fire_under_deadline_pressure(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(_BURN_RULES))
    assert main([
        "serve", "--requests", "400", "--rate", "4000", "--window", "0.5",
        "--deadline", "0.05", "--alerts", str(rules),
    ]) == 0
    out = capsys.readouterr().out
    assert "alert slo-burn [burn_rate]: fired 1" in out
    assert "ACTIVE" in out


def test_serve_bad_alerts_file_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--requests", "10",
              "--alerts", str(tmp_path / "no.json")])
    assert "cannot read alert rules" in str(excinfo.value)


def test_serve_malformed_alert_rules_exit_nonzero(tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"name": "r", "kind": "sorcery"}]))
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--requests", "10", "--alerts", str(rules)])
    assert "bad alert rules" in str(excinfo.value)


def test_costs_text_reconciles(capsys):
    assert main([
        "costs", "--requests", "300", "--rate", "2000", "--tenants", "3",
        "--window", "0.1",
    ]) == 0
    out = capsys.readouterr().out
    assert "reconciliation: EXACT (6/6 axes)" in out
    assert "charged requests: EXACT (300 charged, 300 completed)" in out
    assert "tenant-0000" in out
    assert "fleet totals:" in out
    assert "top tenant node-second share:" in out


def test_costs_json_payload(capsys):
    assert main([
        "costs", "--requests", "300", "--rate", "2000", "--tenants", "3",
        "--window", "0.1", "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["costs"]["reconciled"] is True
    assert payload["charges_match_completions"] is True
    assert payload["tenant_count"] == 3
    assert len(payload["costs"]["tenants"]) == 3
    assert payload["costs"]["totals"]["dse_points"] > 0
    assert payload["completed"] + payload["rejected"] \
        + payload["expired"] == 300
    assert payload["alerts"] is None


def test_costs_exit_code_fails_on_a_dropped_charge(monkeypatch, capsys):
    """A batch the ledger never records leaves the books reconciled with
    themselves, but the exit code still fails: tenants completed more
    requests than they were charged for."""
    from repro.serve import CostLedger

    note_batch = CostLedger.note_batch
    calls = []

    def dropping(self, *args, **kwargs):
        calls.append(args)
        if len(calls) != 3:
            note_batch(self, *args, **kwargs)

    monkeypatch.setattr(CostLedger, "note_batch", dropping)
    assert main([
        "costs", "--requests", "300", "--rate", "2000", "--tenants", "3",
        "--window", "0.1",
    ]) == 1
    out = capsys.readouterr().out
    assert "reconciliation: EXACT (6/6 axes)" in out
    assert "charged requests: LEAKED" in out


def test_costs_with_alerts(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(_BURN_RULES))
    assert main([
        "costs", "--requests", "300", "--rate", "4000", "--tenants", "3",
        "--window", "0.5", "--deadline", "0.05", "--alerts", str(rules),
    ]) == 0
    out = capsys.readouterr().out
    assert "reconciliation: EXACT" in out
    assert "alert slo-burn [burn_rate]: fired 1" in out
