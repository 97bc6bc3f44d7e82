#!/usr/bin/env python3
"""Compare benchmark results against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py --base A1.json A2.json --new B1.json B2.json
    python3 benchmarks/e2e/compare.py --agree --base SET1/*.json --new SET2/*.json

Each file is a ``run.py`` result: one workload record or a whole run.  For
every end-to-end metric and workload it prints the median and quartiles of
each side and a verdict: ``improved``, ``within bound``, ``unresolved``
(run-to-run spread wider than the bound) or ``regressed``; it exits 1 on a
regression.  ``--agree`` checks two sets of runs of one commit instead: it
exits 1 when their medians differ by more than a bound, or when a
deterministic output differs for the same workload and seed.  Runs whose
identity fields (kernel backend, nproc, threads, numpy, Python) differ are
never compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_records(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records.extend(data["workloads"] if "workloads" in data else [data])
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """Judge ``new`` against ``base`` for one metric and workload."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = median(base), median(new)
    worse = sign * (mn - mb) / abs(mb)
    pairs = [sign * (b - n) for b in base for n in new]
    wins = sum(p > 0 for p in pairs) / len(pairs)
    if max(spread(base), spread(new)) > bound:
        return "improved" if wins == 1.0 else "unresolved"
    if worse > bound:
        return "regressed"
    q1, _, q3 = quartiles(base)
    if wins >= 0.9 and -worse * abs(mb) > q3 - q1:
        return "improved"
    return "within bound"


def _series(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for r in records:
        if r["traced"]:
            continue
        for name, m in r["e2e"].items():
            out.setdefault((name, r["workload"]), []).append(m["value"])
    return out


def _outputs(records: list[dict]) -> dict[tuple[str, int, str], float]:
    return {
        (r["workload"], r["seed"], name): m["value"]
        for r in records for name, m in r["outputs"].items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--agree", action="store_true",
                        help="the two sets are runs of one commit")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, new = load_records(args.base), load_records(args.new)

    identities = {json.dumps(r["identity"], sort_keys=True)
                  for r in base + new}
    if len(identities) > 1:
        print("refusing to compare runs with different identities:")
        for ident in sorted(identities):
            print(f"  {ident}")
        return 2

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sb, sn = _series(base), _series(new)
    print(f"{'metric':<16} {'workload':<18} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8}  verdict")
    failures = 0
    for key in sorted(set(sb) & set(sn)):
        name, workload = key
        metric = bounds[name]
        b, n = sb[key], sn[key]
        change = (median(n) - median(b)) / median(b)
        if args.agree:
            ok = abs(change) <= metric["bound"]
            label = "agree" if ok else f"DISAGREE (bound {metric['bound']:.0%})"
        else:
            label = verdict(b, n, metric["better"], metric["bound"])
            ok = label != "regressed"
        failures += not ok
        print(f"{name:<16} {workload:<18} {_fmt(b):>30} {_fmt(n):>30} "
              f"{change:>+8.1%}  {label}")

    ob, on = _outputs(base), _outputs(new)
    changed = sorted(k for k in set(ob) & set(on) if ob[k] != on[k])
    for workload, seed, name in changed:
        print(f"output {name} ({workload}, seed {seed}): "
              f"{ob[workload, seed, name]!r} -> {on[workload, seed, name]!r}")
    if args.agree:
        failures += len(changed)
        print(f"{len(set(ob) & set(on)) - len(changed)} deterministic "
              f"outputs identical, {len(changed)} differ")
    return 1 if failures else 0


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
