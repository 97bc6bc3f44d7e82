"""Timing checks of the RNS-CKKS kernels that CI runs.

FHE wall time is recorded by the end-to-end benchmark (``benchmarks/e2e``);
this module keeps the three checks that need a wall clock:

* ``test_bench_kernel_backend_matrix`` times an NTT roundtrip under every
  kernel backend and writes ``benchmarks/output/BENCH_fhe_kernels.json``,
  whose same-host speedup ``benchmarks/check_regression.py`` gates;
* ``test_default_backend_forward_speedup_floor`` asserts that the default
  backend runs the encrypted FxHENN-MNIST forward at least 1.5x faster than
  the ``reference`` oracle, and writes nothing;
* ``test_bench_obs_overhead_disabled`` bounds the disabled observability
  wrapper below 2% of a CCadd.

Bit-identity of the backends, their equal NTT rows and the decrypted error
are checked in tier-1 (``tests/hecnn/test_fastpath_regression.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.fhe import CkksContext, Evaluator, kernels, tiny_test_params
from repro.fhe.modmath import generate_ntt_primes
from repro.hecnn import fxhenn_mnist_model, synthetic_mnist_image

OUTPUT_DIR = Path(__file__).parent / "output"


def test_bench_kernel_backend_matrix(save_report):
    """Rows/sec and speedup vs the ``reference`` backend for every
    registered kernel backend on the production-shaped (L=7, N=2048)
    stack, emitting ``BENCH_fhe_kernels.json``.

    Bit-identity is asserted along the way — the registry's hard
    contract — so a backend that got fast by getting wrong fails here
    before its timing is ever reported.
    """
    n = 2048
    primes = tuple(generate_ntt_primes(28, 7, n))
    rng = np.random.default_rng(11)
    rows = np.stack(
        [rng.integers(0, q, n).astype(np.uint64) for q in primes]
    )
    expected = kernels.get_backend("reference").forward(n, primes, rows)

    results: dict[str, dict] = {}
    for name in kernels.available_backends():
        backend = kernels.get_backend(name)
        fwd = backend.forward(n, primes, rows)  # warms the plan cache
        assert np.array_equal(fwd, expected), name
        assert np.array_equal(backend.inverse(n, primes, fwd), rows), name
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            backend.inverse(n, primes, backend.forward(n, primes, rows))
            best = min(best, time.perf_counter() - start)
        results[name] = {
            "roundtrip_seconds": best,
            # forward + inverse each touch all L rows once.
            "rows_per_s": 2 * len(primes) / best,
        }
    ref_seconds = results["reference"]["roundtrip_seconds"]
    for stats in results.values():
        stats["speedup_vs_reference"] = (
            ref_seconds / stats["roundtrip_seconds"]
        )

    default_speedup = results[kernels.DEFAULT_BACKEND][
        "speedup_vs_reference"
    ]
    payload = {
        "benchmark": "kernel backend NTT roundtrip (N=2048, L=7)",
        "default_backend": kernels.DEFAULT_BACKEND,
        "backends": results,
        "default_beats_reference": default_speedup > 1.0,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_fhe_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    header = f"{'backend':<12} {'rows/s':>10} {'vs reference':>13}"
    table = "\n".join(
        f"{name:<12} {stats['rows_per_s']:>10.0f} "
        f"{stats['speedup_vs_reference']:>12.2f}x"
        for name, stats in sorted(results.items())
    )
    print(f"\n{header}\n{table}")
    save_report(
        "bench_fhe_kernels",
        f"kernel backends: default {kernels.DEFAULT_BACKEND!r} "
        f"{default_speedup:.2f}x vs reference across "
        f"{len(results)} backends",
    )
    # The default backend must actually earn its place.
    assert default_speedup > 1.0


def test_default_backend_forward_speedup_floor():
    """The encrypted FxHENN-MNIST forward (N=2048, L=7, warm plaintext
    cache) takes at least 1.5x longer under ``reference`` than under the
    default backend, on the same ciphertexts, best of three passes each."""
    params = tiny_test_params(poly_degree=2048, level=7)
    net = fxhenn_mnist_model(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    net.provision_keys(ctx)
    encrypted = net.encrypt_input(ctx, synthetic_mnist_image(seed=2))

    def best_of_three() -> float:
        net.forward_encrypted(Evaluator(ctx), encrypted)  # warm-up
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            net.forward_encrypted(Evaluator(ctx), encrypted)
            best = min(best, time.perf_counter() - start)
        return best

    with kernels.using_backend("reference"):
        reference_s = best_of_three()
    with kernels.using_backend(kernels.DEFAULT_BACKEND):
        default_s = best_of_three()
    speedup = reference_s / default_s
    print(f"\nMNIST N=2048 forward: reference {reference_s:.3f} s, "
          f"{kernels.DEFAULT_BACKEND} {default_s:.3f} s ({speedup:.2f}x)")
    assert speedup >= 1.5


def test_bench_obs_overhead_disabled():
    """With observability off, the ``_probed`` wrapper must cost < 2 % of
    a CCadd, the cheapest op it wraps — even with a lineage tracker,
    time-series recorder and cost ledger installed.

    The wrapper is timed on its own: the real ``_probed`` decorates a
    no-op with ``add``'s signature, and interleaved min-of-rounds timing
    of many calls of it against the undecorated no-op gives the wrapper's
    cost per call.  That is divided by the undecorated CCadd's min time
    per op on the N=2048 ring (``__wrapped__``).  Timing the decorated
    CCadd against the raw one instead would let host jitter of a few us
    decide a sub-us bound.  The probed calls happen inside an (ambient,
    but dormant) lineage context with a charged cost ledger and a
    non-empty time-series store around: the lineage hook and the
    telemetry all live on the enabled path only, so installed recorders
    must neither slow the disabled path nor record anything new.
    """
    from repro.fhe.ops import _probed
    from repro.obs.timeseries import TIMESERIES
    from repro.serve.costs import CostLedger

    assert not obs.enabled()
    ctx = CkksContext(tiny_test_params(poly_degree=2048, level=4), seed=3)
    ct = ctx.encrypt_values(
        np.random.default_rng(0).uniform(-1, 1, ctx.slot_count)
    )

    def noop(self, a, b):
        return a

    probed = _probed("CCadd")(noop)
    raw_add = Evaluator.add.__wrapped__
    ev = Evaluator(ctx)
    tracker = obs.LineageTracker()
    ledger = CostLedger()
    ledger.note_batch(["bench:k0"], 0.001)
    samples_before = TIMESERIES.sample_count
    calls, adds, rounds = 20_000, 50, 15
    best = {"probed": float("inf"), "noop": float("inf"),
            "add": float("inf")}
    with obs.lineage_context(tracker):
        for _ in range(rounds):
            for name, fn, reps in (("probed", probed, calls),
                                   ("noop", noop, calls),
                                   ("add", raw_add, adds)):
                start = time.perf_counter()
                for _ in range(reps):
                    fn(ev, ct, ct)
                best[name] = min(best[name],
                                 (time.perf_counter() - start) / reps)
    wrapper_s = best["probed"] - best["noop"]
    share = wrapper_s / best["add"]
    print(f"disabled-obs wrapper: {wrapper_s * 1e6:.2f} us/call = "
          f"{share:.2%} of CCadd ({best['add'] * 1e6:.1f} us/op raw)")
    # Obs disabled => the lineage hook never ran: an empty DAG; the
    # time-series clock never advanced; the ledger still reconciles.
    assert not tracker.nodes
    assert TIMESERIES.sample_count == samples_before
    assert ledger.report().reconciled
    assert share < 0.02
