"""Per-layer noise baselines feeding the regression gate.

Propagates the analytic :class:`~repro.fhe.noise.NoiseBound` through the
tiny (N=512) and reduced FxHENN-MNIST (N=2048) networks and — for the
tiny network, where decryption is cheap — runs the decrypt-at-boundary
noise audit, recording the measured precision and the conservativeness
gap per layer.  The record lands in ``benchmarks/output/BENCH_noise.json``
and is gated by ``check_regression.py`` against the committed baseline:
a packing or estimator change that silently costs analytic precision
(or flips a bound from conservative to optimistic) fails CI instead of
landing.

Everything here is deterministic — fixed context seed, fixed image seed,
closed-form bound propagation — so the gate runs at the tight default
tolerance, not the lenient wall-clock one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.fhe import CkksContext, CkksParameters, kernels, tiny_test_params
from repro.hecnn import fxhenn_mnist_model, tiny_mnist_model

OUTPUT_DIR = Path(__file__).parent / "output"


def _analytic_layers(model, context):
    return [
        {"layer": name, "analytic_bits": bound.error_bits}
        for name, bound in model.noise_profile(context)
    ]


def test_bench_noise_baseline(save_report):
    """Emit ``BENCH_noise.json``: per-layer analytic (and, for the tiny
    network, measured) noise bits, plus the audit verdict."""
    networks = []

    # Tiny network: full audit — decrypt every layer boundary and check
    # the analytic bound stayed conservative.
    params = tiny_test_params(poly_degree=512, level=7)
    model = tiny_mnist_model(seed=0, params=params)
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    image = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    layers = _analytic_layers(model, context)
    audit = model.audit_noise(context, image)  # raises on under-estimate
    for row, audit_row in zip(layers, audit):
        assert row["layer"] == audit_row["layer"]
        row["measured_bits"] = audit_row["measured_bits"]
        row["gap_bits"] = audit_row["gap_bits"]
    networks.append({
        "name": model.name,
        "poly_degree": params.poly_degree,
        "level": params.level,
        "audit_ok": True,
        "layers": layers,
        "final_analytic_bits": layers[-1]["analytic_bits"],
        "min_gap_bits": min(r["gap_bits"] for r in layers),
    })

    # Reduced MNIST: analytic profile only (decrypting every boundary at
    # N=2048 would dominate the bench-gate wall clock for no extra
    # signal — the estimator is the same code path).
    params = CkksParameters(
        poly_degree=2048, prime_bits=28, level=7, scale_bits=26
    )
    model = fxhenn_mnist_model(seed=0, params=params)
    context = CkksContext(params, seed=1)
    layers = _analytic_layers(model, context)
    networks.append({
        "name": model.name,
        "poly_degree": params.poly_degree,
        "level": params.level,
        "layers": layers,
        "final_analytic_bits": layers[-1]["analytic_bits"],
    })

    payload = {
        "benchmark": "per-layer analytic noise budget (+ tiny audit)",
        "kernel_backend": kernels.active_backend().name,
        "networks": networks,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_noise.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    tiny, mnist = networks
    save_report(
        "bench_noise",
        f"noise baseline: {tiny['name']} final "
        f"{tiny['final_analytic_bits']:.2f} bits analytic, min audit gap "
        f"{tiny['min_gap_bits']:+.2f} bits; {mnist['name']} final "
        f"{mnist['final_analytic_bits']:.2f} bits analytic",
    )

    # The audit already hard-fails on any under-estimate; also require a
    # real conservativeness margin so a bound drifting toward optimistic
    # trips the bench before it trips the audit.
    assert tiny["min_gap_bits"] > 0.5
    # Synthetic MNIST forward must retain usable precision analytically
    # at every decision the regression gate later pins down.
    assert all(
        later["analytic_bits"] <= earlier["analytic_bits"]
        for earlier, later in zip(mnist["layers"], mnist["layers"][1:])
    )
