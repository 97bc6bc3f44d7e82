"""Per-layer noise baselines feeding the regression gate.

Propagates the analytic :class:`~repro.fhe.noise.NoiseBound` through the
tiny (N=512) and reduced FxHENN-MNIST (N=2048) networks and runs the
decrypt-at-boundary noise audit on both at each of twelve context seeds
(a few seconds per network), recording per layer the median measured
precision and the smallest conservativeness gap over the seeds.  The
record lands in ``benchmarks/output/BENCH_noise.json`` and is gated by
``check_regression.py`` against the committed baseline: a packing or
estimator change that silently costs analytic precision (or flips a bound
from conservative to optimistic) fails CI instead of landing.

Everything here is deterministic — fixed context seeds, fixed image seed,
closed-form bound propagation — so the gate runs at the tight default
tolerance, not the lenient wall-clock one.  One encryption draw moves a
layer's measured bits by more than that tolerance, so the gated value is
the median over the seeds, and every seed's audit is a hard check.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median

import numpy as np

from repro.fhe import CkksContext, CkksParameters, kernels, tiny_test_params
from repro.hecnn import fxhenn_mnist_model, synthetic_mnist_image, tiny_mnist_model

OUTPUT_DIR = Path(__file__).parent / "output"
#: The context seeds every network is audited at.
SEEDS = tuple(range(1, 13))


def _audited_network(model, params, image):
    """Per-layer analytic bits, and the median measured bits and smallest
    audit gap over the seeds (``audit_noise`` raises on any optimistic
    layer at any seed)."""
    measured: dict[str, list[float]] = {}
    for seed in SEEDS:
        context = CkksContext(params, seed=seed)
        model.provision_keys(context)
        for row in model.audit_noise(context, image):
            measured.setdefault(row["layer"], []).append(row["measured_bits"])
    layers = []
    for name, bound in model.noise_profile(context):
        by_seed = measured[name]
        layers.append({
            "layer": name,
            "analytic_bits": bound.error_bits,
            "measured_bits": median(by_seed),
            "gap_bits": min(by_seed) - bound.error_bits,
            "measured_bits_by_seed": by_seed,
        })
    return {
        "name": model.name,
        "poly_degree": params.poly_degree,
        "level": params.level,
        **params.security_summary(),
        "audit_ok": True,
        "layers": layers,
        "final_analytic_bits": layers[-1]["analytic_bits"],
        "min_gap_bits": min(r["gap_bits"] for r in layers),
    }


def test_bench_noise_baseline(save_report):
    """Emit ``BENCH_noise.json``: per-layer analytic and measured noise
    bits of both networks over the seed set, plus the audit verdicts."""
    params = tiny_test_params(poly_degree=512, level=7)
    tiny = _audited_network(
        tiny_mnist_model(seed=0, params=params), params,
        np.random.default_rng(4).uniform(0, 1, (1, 8, 8)),
    )

    params = CkksParameters(
        poly_degree=2048, prime_bits=28, level=7, scale_bits=26
    )
    mnist = _audited_network(
        fxhenn_mnist_model(seed=0, params=params), params,
        synthetic_mnist_image(seed=4),
    )

    payload = {
        "benchmark": "per-layer analytic noise budget + decrypt audit",
        "kernel_backend": kernels.active_backend().name,
        "seeds": list(SEEDS),
        "networks": [tiny, mnist],
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_noise.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    save_report(
        "bench_noise",
        f"noise baseline over context seeds {SEEDS[0]}-{SEEDS[-1]}: "
        f"{tiny['name']} final "
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
