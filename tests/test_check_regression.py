"""The benchmark regression gate (``benchmarks/check_regression.py``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "check_regression.py"
BASELINES = REPO / "benchmarks" / "baselines"


def _run(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *extra],
        capture_output=True, text=True, cwd=REPO,
    )


def test_committed_baselines_pass_clean():
    proc = _run("--fresh-dir", str(BASELINES))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 regressed" in proc.stdout


def test_synthetic_20pct_latency_regression_fails(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_serve.json").read_text())
    for row in record["curve"]:
        row["latency_p99_s"] *= 1.2
    (fresh / "BENCH_serve.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_serve", "--fresh-dir", str(fresh))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL" in proc.stdout
    assert "latency_p99_s" in proc.stdout


def test_improvement_and_small_noise_pass(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_serve.json").read_text())
    record["amortized_speedup"] *= 1.5          # improvement
    for row in record["curve"]:
        row["latency_p99_s"] *= 1.05            # within 15% tolerance
    (fresh / "BENCH_serve.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_serve", "--fresh-dir", str(fresh))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_broken_invariant_fails(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_cluster.json").read_text())
    record["warm_rerun"]["flat"] = False
    (fresh / "BENCH_cluster.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_cluster", "--fresh-dir", str(fresh))
    assert proc.returncode == 1
    assert "invariant BROKEN" in proc.stdout


def test_pinned_kernel_backend_mismatch_fails(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_fhe_kernels.json").read_text())
    record["default_backend"] = "reference"
    (fresh / "BENCH_fhe_kernels.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_fhe_kernels", "--fresh-dir", str(fresh))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "pinned 'montgomery' != 'reference'" in proc.stdout


def test_kernel_matrix_invariant_and_ratio_gated(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_fhe_kernels.json").read_text())
    record["default_beats_reference"] = False
    record["backends"]["montgomery"]["speedup_vs_reference"] *= 0.4
    (fresh / "BENCH_fhe_kernels.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_fhe_kernels", "--fresh-dir", str(fresh))
    assert proc.returncode == 1
    assert "invariant BROKEN" in proc.stdout
    assert "speedup_vs_reference" in proc.stdout


def test_noise_baseline_regression_fails(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_noise.json").read_text())
    # Lose two bits of final analytic precision on the tiny network.
    record["networks"][0]["final_analytic_bits"] -= 2.0
    (fresh / "BENCH_noise.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_noise", "--fresh-dir", str(fresh))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL" in proc.stdout
    assert "final_analytic_bits" in proc.stdout


def test_noise_audit_invariant_breaks_the_gate(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_noise.json").read_text())
    record["networks"][0]["audit_ok"] = False
    (fresh / "BENCH_noise.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_noise", "--fresh-dir", str(fresh))
    assert proc.returncode == 1
    assert "invariant BROKEN" in proc.stdout
    assert "audit_ok" in proc.stdout


def test_noise_per_layer_metrics_are_gated(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(BASELINES / "BENCH_noise.json", fresh / "BENCH_noise.json")
    report_path = tmp_path / "report.json"
    proc = _run("--only", "BENCH_noise", "--fresh-dir", str(fresh),
                "--json", str(report_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(report_path.read_text())
    metrics = {row["metric"] for row in report["rows"]}
    # The per-layer fan-out gates every layer of both networks.
    assert any("layers" in m and "analytic_bits" in m for m in metrics)
    assert "networks.1.layers.4.measured_bits" in metrics
    assert "networks.0.min_gap_bits" in metrics


def test_noise_record_identity_is_pinned(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_noise.json").read_text())
    # A wider special prime: same chain, different key modulus.
    record["networks"][1]["log_qp"] += 2
    (fresh / "BENCH_noise.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_noise", "--fresh-dir", str(fresh))
    assert proc.returncode == 1
    assert "FAIL BENCH_noise:networks.1.log_qp" in proc.stdout


@pytest.mark.parametrize("path", [
    ("charges_match_completions",),
    ("reconciliation", "wire_bytes"),
])
def test_cost_books_join_and_wire_reconciliation_are_gated(tmp_path, path):
    """A dropped charge breaks the join with the serve report while the
    books can still reconcile; either field false fails the gate."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    record = json.loads((BASELINES / "BENCH_costs.json").read_text())
    node = record["invariants"]
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] is True
    node[path[-1]] = False
    (fresh / "BENCH_costs.json").write_text(json.dumps(record))
    proc = _run("--only", "BENCH_costs", "--fresh-dir", str(fresh))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "invariant BROKEN" in proc.stdout
    assert ".".join(("invariants",) + path) in proc.stdout


def test_missing_fresh_record_is_a_hard_error(tmp_path):
    proc = _run("--fresh-dir", str(tmp_path / "nowhere"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_json_report_lists_every_gated_metric(tmp_path):
    report_path = tmp_path / "report.json"
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(
        BASELINES / "BENCH_fhe_kernels.json", fresh / "BENCH_fhe_kernels.json"
    )
    proc = _run("--only", "BENCH_fhe_kernels", "--fresh-dir", str(fresh),
                "--json", str(report_path))
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    assert report["failures"] == 0
    metrics = {row["metric"] for row in report["rows"]}
    assert "backends.montgomery.speedup_vs_reference" in metrics
