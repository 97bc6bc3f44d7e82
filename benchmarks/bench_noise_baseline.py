"""Per-layer noise baselines feeding the regression gate.

Propagates the analytic :class:`~repro.fhe.noise.NoiseBound` through the
tiny (N=512) and reduced FxHENN-MNIST (N=2048) networks and runs the
decrypt-at-boundary noise audit on both (under a second each), recording
the measured precision and the conservativeness gap per layer.  The
record lands in ``benchmarks/output/BENCH_noise.json``
and is gated by ``check_regression.py`` against the committed baseline:
a packing or estimator change that silently costs analytic precision
(or flips a bound from conservative to optimistic) fails CI instead of
landing.

Everything here is deterministic — fixed context seed, fixed image seed,
closed-form bound propagation — so the gate runs at the tight default
tolerance, not the lenient wall-clock one.  Only the tiny network's
measured bits are gated: MNIST's come from one encryption draw, so its
audit is gated on its verdict alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.fhe import CkksContext, CkksParameters, kernels, tiny_test_params
from repro.hecnn import fxhenn_mnist_model, synthetic_mnist_image, tiny_mnist_model

OUTPUT_DIR = Path(__file__).parent / "output"


def _audited_network(model, params, context, image):
    """Per-layer analytic and measured bits of one network, plus the audit
    verdict (``audit_noise`` raises on any optimistic layer)."""
    layers = [
        {"layer": name, "analytic_bits": bound.error_bits}
        for name, bound in model.noise_profile(context)
    ]
    audit = model.audit_noise(context, image)
    for row, audit_row in zip(layers, audit, strict=True):
        assert row["layer"] == audit_row["layer"]
        row["measured_bits"] = audit_row["measured_bits"]
        row["gap_bits"] = audit_row["gap_bits"]
    return {
        "name": model.name,
        "poly_degree": params.poly_degree,
        "level": params.level,
        "audit_ok": True,
        "layers": layers,
        "final_analytic_bits": layers[-1]["analytic_bits"],
        "min_gap_bits": min(r["gap_bits"] for r in layers),
    }


def test_bench_noise_baseline(save_report):
    """Emit ``BENCH_noise.json``: per-layer analytic and measured noise
    bits of both networks, plus the audit verdicts."""
    params = tiny_test_params(poly_degree=512, level=7)
    model = tiny_mnist_model(seed=0, params=params)
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    image = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    tiny = _audited_network(model, params, context, image)

    params = CkksParameters(
        poly_degree=2048, prime_bits=28, level=7, scale_bits=26
    )
    model = fxhenn_mnist_model(seed=0, params=params)
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    mnist = _audited_network(
        model, params, context, synthetic_mnist_image(seed=4)
    )

    payload = {
        "benchmark": "per-layer analytic noise budget + decrypt audit",
        "kernel_backend": kernels.active_backend().name,
        "networks": [tiny, mnist],
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_noise.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    save_report(
        "bench_noise",
        f"noise baseline: {tiny['name']} final "
        f"{tiny['final_analytic_bits']:.2f} bits analytic, min audit gap "
        f"{tiny['min_gap_bits']:+.2f} bits; {mnist['name']} final "
        f"{mnist['final_analytic_bits']:.2f} bits analytic, min audit gap "
        f"{mnist['min_gap_bits']:+.2f} bits",
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
