"""Smoke runs of every workload with one set-up and one timed unit."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = run.load_spec()
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def traced_results():
    """Each workload once, traced, with tiny iteration counts."""
    return {
        name: workloads.run(name, 0, 0.0, traced=True, setups=1, min_units=1)
        for name in workloads.WORKLOADS
    }


def test_every_workload_passes_its_checks(traced_results):
    for name, result in traced_results.items():
        assert result.failed == 0, name
        assert all(result.checks.values()), (name, result.checks)
        assert len(result.samples_s) == 1 and len(result.setup_s) == 1


def test_every_per_layer_metric_is_produced_by_some_workload(traced_results):
    produced = set()
    for result in traced_results.values():
        names = set(result.layers) | set(result.outputs)
        assert names <= PER_LAYER
        produced |= names
    assert produced == PER_LAYER


def test_traced_tiny_covers_the_forward_pass_and_matches_the_trace(
    traced_results,
):
    result = traced_results["tiny-n512"]
    assert result.layers["hecnn.coverage"] >= 0.95
    assert result.checks["op counts equal NetworkTrace"]
    ops = sum(v for k, v in result.layers.items()
              if k.startswith("fhe.op_count."))
    hops = sum(v for k, v in result.layers.items()
               if k.startswith("hecnn.hops."))
    assert ops > 0 and hops > 0


def test_untraced_record_and_summary_line():
    record, tracer = run.measure(SPEC, "tiny-n512", 1, 0.0, traced=False)
    assert tracer is None and record["correct"]
    line = json.loads(run.summary_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_outputs_depend_on_the_seed_only():
    # A different number of timed requests must not change the warm-ups.
    a, b = (workloads.run("tiny-n512", 5, 0.0, setups=2, min_units=n).outputs
            for n in (2, 6))
    assert a == b


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tiny-n512",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
