#!/usr/bin/env python3
"""One-command benchmark of the FxHENN reproduction.

All workloads, each in its own single-threaded subprocess::

    python3 benchmarks/e2e/run.py --seed 0 [--traced]

prints every metric with its unit, writes ``results/run.seed<S>.json`` and
exits nonzero if any output check failed.  ``--traced`` adds a traced run of
every workload, its per-layer metrics and the tracing overhead.

One workload in this process::

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

writes ``results/NAME.seed<S>.trace<T>.json`` (and, traced, the spans as
Chrome-trace JSON) and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: Requests (or passes, replays) whose spans go into the Chrome trace.
KEEP_TRACE_REQUESTS = 3
CHILD_TIMEOUT_S = 900
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def identity() -> dict:
    """Fields that must match before two runs may be compared."""
    import numpy as np

    from repro.fhe import kernels

    return {
        "kernel_backend": kernels.active_backend().name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_latency(samples: list[float]) -> dict | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    from workloads import percentile

    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return {"name": f"latency_p{p}_ms",
                    "value": 1e3 * percentile(samples, p), "unit": "ms"}
    return None


def _metrics(specs: list[dict], values: dict[str, float]) -> dict:
    unknown = set(values) - {m["name"] for m in specs}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in specs
    }


def measure(spec: dict, workload: str, seed: int, seconds: float,
            traced: bool):
    """Run one workload in this process; return its record and tracer."""
    from repro import obs
    from workloads import run

    if not traced and obs.enabled():
        raise RuntimeError("untraced runs need repro.obs disabled")
    result = run(workload, seed, seconds, traced=traced)
    samples = result.samples_s
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {
        "setup_s": median(result.setup_s),
        "latency_p50_ms": 1e3 * median(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "seconds": seconds,
        "identity": identity(),
        "correct": result.failed == 0 and all(result.checks.values()),
        "attempted": result.attempted,
        "failed": result.failed,
        "checks": result.checks,
        "samples_ms": [1e3 * s for s in samples],
        "setups_s": result.setup_s,
        "tail": tail_latency(samples),
        "e2e": _metrics(spec["end_to_end"], e2e),
        "outputs": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in result.outputs.items()
        },
    }
    if traced:
        record["per_layer"] = _metrics(
            spec["per_layer"], {**result.layers, **result.outputs}
        )
    return record, result.tracer


def summary_line(record: dict) -> str:
    metrics = record["per_layer"] if record["traced"] else record["e2e"]
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def _row(name: str, metric: dict) -> str:
    return f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}"


def print_record(record: dict) -> None:
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  {mode}, "
          f"{record['seconds']:g} s")
    print("identity: " + ", ".join(
        f"{k}={v}" for k, v in record["identity"].items()))
    print(f"attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {record['correct']}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for name, metric in record["e2e"].items():
        print(_row(name, metric))
    print(f"  ({len(record['samples_ms'])} timed samples)")
    if record["tail"]:
        print(_row(record["tail"]["name"], record["tail"]))
    if record["traced"]:
        shown = {n: m for n, m in record["per_layer"].items() if m["value"]}
        for name, metric in shown.items():
            print(_row(name, metric))
        print(f"  ({len(record['per_layer']) - len(shown)} per-layer metrics "
              f"read 0: this workload does not exercise them)")
    else:
        for name, metric in record["outputs"].items():
            print(_row(name, metric))


def _record_path(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{workload}.seed{seed}.trace{trace}.json"


def run_workload(spec: dict, args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    record, tracer = measure(spec, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    _record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if tracer is not None:
        (RESULTS / f"{args.workload}.seed{args.seed}.spans.json").write_text(
            json.dumps(spans.chrome_trace(tracer.spans, KEEP_TRACE_REQUESTS))
        )
    print_record(record)
    print(summary_line(record))
    return 0 if record["correct"] else 1


def run_all(spec: dict, args) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    traces = (0, 1) if args.trace else (0,)
    records, ok = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            path = _record_path(workload, args.seed, trace)
            path.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            try:
                code = subprocess.run(cmd, env=env,
                                      timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
            if code != 0 or not path.exists():
                print(f"!! {workload} (trace {trace}) exited with {code}")
                ok = False
            if path.exists():
                records.append(json.loads(path.read_text()))
    print_summary(records)
    ok = ok and all(r["correct"] for r in records)
    out = RESULTS / f"run.seed{args.seed}.json"
    out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "workloads": records},
        indent=1,
    ) + "\n")
    print(f"results: {out}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def print_summary(records: list[dict]) -> None:
    untraced = {r["workload"]: r for r in records if not r["traced"]}
    traced = {r["workload"]: r for r in records if r["traced"]}
    print("\n== summary")
    if records:
        print("identity: " + ", ".join(
            f"{k}={v}" for k, v in records[0]["identity"].items()))
    for name, r in untraced.items():
        values = ", ".join(f"{m} {v['value']:.6g} {v['unit']}"
                           for m, v in r["e2e"].items())
        print(f"  {name:<18} {values}; failed {r['failed']}/{r['attempted']}")
    for name, r in traced.items():
        base = untraced.get(name)
        if base:
            t = r["e2e"]["latency_p50_ms"]["value"]
            u = base["e2e"]["latency_p50_ms"]["value"]
            print(f"  tracing overhead {name:<18} {t - u:+.3f} ms "
                  f"({(t - u) / u:+.1%} of latency_p50_ms)")
    mnist, dse = traced.get("mnist-n2048"), untraced.get("dse-paper")
    if mnist and dse:
        measured = {n.rsplit(".", 1)[1]: m["value"]
                    for n, m in mnist["per_layer"].items()
                    if n.startswith("hecnn.layer_ms.")}
        modelled = {n.rsplit(".", 1)[1]: m["value"]
                    for n, m in dse["outputs"].items()
                    if n.startswith("fpga.layer_cycles.")}
        print("  dominant MNIST layer: measured "
              f"{max(measured, key=measured.get)}, modelled on ACU9EG "
              f"{max(modelled, key=modelled.get)}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    return run_workload(spec, args) if args.workload else run_all(spec, args)


if __name__ == "__main__":
    sys.exit(main())
