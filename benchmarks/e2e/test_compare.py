"""Verdicts, identity refusal and set agreement of compare.py."""

import json

import pytest

import compare

IDENTITY = {"kernel_backend": "montgomery", "nproc": 2, "threads": "1",
            "numpy": "2.0", "python": "3.11"}


@pytest.mark.parametrize("base, new, better, expected", [
    # 20% faster in every run, spreads well inside the 10% bound.
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "improved"),
    ([100, 101, 99, 100], [102, 101, 103, 102], "lower", "within bound"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "regressed"),
    # Spread wider than the bound: no verdict unless every run wins.
    ([100, 70, 130, 100], [105, 75, 135, 105], "lower", "unresolved"),
    ([100, 70, 130, 100], [60, 50, 65, 55], "lower", "improved"),
    # "higher is better" mirrors the signs.
    ([4.0, 4.1, 4.0, 4.05], [3.0, 3.1, 3.05, 3.0], "higher", "regressed"),
    # Deterministic metrics: identical sets are within bound.
    ([7, 7, 7], [7, 7, 7], "lower", "within bound"),
])
def test_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.10) == expected


def test_a_small_win_inside_the_parent_spread_is_not_an_improvement():
    base = [100, 96, 104, 100, 98, 102]
    assert compare.verdict(base, [99, 99, 99], "lower", 0.10) == "within bound"


def _write(path, workload, seed, latency, identity=IDENTITY, output=1.0):
    record = {
        "workload": workload, "seed": seed, "traced": False,
        "identity": identity,
        "e2e": {"latency_p50_ms": {"value": latency, "unit": "ms"}},
        "outputs": {"fpga.latency_cycles.mnist-acu9eg":
                    {"value": output, "unit": "cycles"}},
    }
    path.write_text(json.dumps(record))
    return str(path)


def _set(tmp_path, name, latencies, **kwargs):
    return [_write(tmp_path / f"{name}{i}.json", "dse-paper", i, lat, **kwargs)
            for i, lat in enumerate(latencies)]


def test_refuses_runs_with_different_identities(tmp_path, capsys):
    other = dict(IDENTITY, kernel_backend="reference")
    base = _set(tmp_path, "a", [100, 101])
    new = _set(tmp_path, "b", [100, 101], identity=other)
    assert compare.main(["--base", *base, "--new", *new]) == 2
    assert "refusing" in capsys.readouterr().out


def test_agree_passes_within_the_bound(tmp_path):
    base = _set(tmp_path, "a", [100, 101, 99])
    new = _set(tmp_path, "b", [103, 104, 102])
    assert compare.main(["--agree", "--base", *base, "--new", *new]) == 0


def test_agree_fails_beyond_the_bound(tmp_path):
    spec = json.loads(compare.SPEC.read_text())
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "latency_p50_ms")
    base = _set(tmp_path, "a", [100, 101, 99])
    new = _set(tmp_path, "b", [100 * (1 + bound) + d for d in (2, 3, 1)])
    assert compare.main(["--agree", "--base", *base, "--new", *new]) == 1


def test_agree_fails_when_a_deterministic_output_differs(tmp_path, capsys):
    base = _set(tmp_path, "a", [100, 101, 99])
    new = _set(tmp_path, "b", [100, 101, 99], output=2.0)
    assert compare.main(["--agree", "--base", *base, "--new", *new]) == 1
    assert "3 differ" in capsys.readouterr().out


def test_regression_exits_nonzero(tmp_path):
    base = _set(tmp_path, "a", [100, 101, 99])
    new = _set(tmp_path, "b", [150, 151, 149])
    assert compare.main(["--base", *base, "--new", *new]) == 1
    assert compare.main(["--base", *base, "--new", *base]) == 0
