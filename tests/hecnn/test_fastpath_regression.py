"""End-to-end regression: the kernel backend leaves encrypted inference bit-exact.

Encrypts once, then runs the same ciphertexts through the network under
the ``reference`` kernel oracle and the production ``montgomery`` backend:
the output ciphertexts must match bit for bit (the server side is
deterministic), the NTT row count must be equal (the backend changes how a
transform runs, never which transforms run), and the result must decrypt
to the plaintext reference.  This runs on Tiny at N=512 and on FxHENN-MNIST
at N=2048 (the ``mnist-n2048`` parameters of ``benchmarks/e2e``), and a
montgomery transform one residue off must fail it.

Hoisted rotation folds are an *algorithm-level* choice — a hoisted fold
group shares a single rescale, so its rounding order differs from the
sequential walk.  They are regression-tested separately, against the
sequential walk forced by a fold group size of one, for numerical
equivalence and a transform-row reduction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.fhe import CkksContext, Evaluator, kernels, ops
from repro.fhe.kernels.montgomery import MontgomeryBackend

from .test_network import NETWORKS


def _component_residues(cts):
    return [
        comp.to_ntt().residues.copy()
        for ct in cts
        for comp in ct.components
    ]


def _ntt_rows() -> int:
    reg = obs.get_registry()
    return sum(
        reg.counter("ntt_transform_rows", direction=d).value
        for d in ("forward", "inverse")
    )


def _counted_forward(model, ctx, encrypted):
    """Warm the plaintext cache, then run and count one steady-state pass."""
    ctx.clear_plaintext_cache()
    model.forward_encrypted(Evaluator(ctx), encrypted)
    rows = _ntt_rows()
    out = model.forward_encrypted(Evaluator(ctx), encrypted)
    return out, _ntt_rows() - rows


def _forward_under_both_backends(model, ctx, encrypted):
    """``(outputs, rows)`` of one warm pass under ``reference``, then under
    ``montgomery``."""
    with kernels.using_backend("reference"):
        reference = _counted_forward(model, ctx, encrypted)
    with kernels.using_backend("montgomery"):
        montgomery = _counted_forward(model, ctx, encrypted)
    return reference, montgomery


def _bit_identical(outputs, expected) -> bool:
    got, want = _component_residues(outputs), _component_residues(expected)
    return len(got) == len(want) and all(map(np.array_equal, got, want))


@pytest.fixture()
def tiny_n512(tiny_model, tiny_ctx, tiny_image):
    return tiny_model, tiny_ctx, tiny_image


@pytest.fixture(scope="module")
def mnist_n2048():
    build, params, image = NETWORKS["mnist-n2048"]
    model = build(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    model.provision_keys(ctx)
    return model, ctx, image()


@pytest.mark.parametrize("network,max_err", [
    pytest.param("tiny_n512", 0.05, id="tiny-n512"),
    pytest.param("mnist_n2048", 0.5, id="mnist-n2048"),
])
def test_reference_and_montgomery_forward_bit_identical(
    network, max_err, request
):
    model, ctx, image = request.getfixturevalue(network)
    encrypted = model.encrypt_input(ctx, image)
    (ref_out, ref_rows), (fast_out, fast_rows) = _forward_under_both_backends(
        model, ctx, encrypted
    )

    # Bit-identical ciphertexts out of the whole network.
    assert _bit_identical(fast_out, ref_out)
    assert fast_rows == ref_rows > 0

    # And the encrypted result still decrypts to the plaintext reference.
    layout = model.layers[-1].output_layout
    decrypted = layout.extract([ctx.decrypt_values(ct) for ct in fast_out])
    reference = model.infer_plain(image)
    assert np.max(np.abs(decrypted - reference)) < max_err


def test_one_residue_off_fails_bit_identity(
    tiny_params, tiny_model, tiny_image, monkeypatch
):
    """Counter-example: a montgomery forward transform whose first residue
    is off by one (mod its prime) makes the comparison above report a
    mismatch.  A context of its own keeps the faulty plaintexts it caches
    away from the other tests."""
    ctx = CkksContext(tiny_params, seed=11)
    tiny_model.provision_keys(ctx)
    encrypted = tiny_model.encrypt_input(ctx, tiny_image)
    real = MontgomeryBackend.forward

    def one_residue_off(self, n, primes, values):
        out = real(self, n, primes, values)
        first = (0,) * out.ndim
        out[first] = (out[first] + np.uint64(1)) % np.uint64(primes[0])
        return out

    monkeypatch.setattr(MontgomeryBackend, "forward", one_residue_off)
    (ref_out, ref_rows), (fast_out, fast_rows) = _forward_under_both_backends(
        tiny_model, ctx, encrypted
    )
    assert fast_rows == ref_rows
    assert not _bit_identical(fast_out, ref_out)


def test_hoisted_rotations_equivalent_and_fewer_transforms(
    tiny_model, tiny_ctx, tiny_image, monkeypatch
):
    """The hoisted-rotation fold matches the sequential walk numerically
    and trims the transform-row count further."""
    encrypted = tiny_model.encrypt_input(tiny_ctx, tiny_image)

    with monkeypatch.context() as patch:
        patch.setattr(ops, "_FOLD_GROUP", 1)
        seq_out, seq_rows = _counted_forward(tiny_model, tiny_ctx, encrypted)
    hoisted_out, hoisted_rows = _counted_forward(
        tiny_model, tiny_ctx, encrypted
    )

    layout = tiny_model.layers[-1].output_layout
    seq_vals = layout.extract([tiny_ctx.decrypt_values(ct) for ct in seq_out])
    hoisted_vals = layout.extract(
        [tiny_ctx.decrypt_values(ct) for ct in hoisted_out]
    )
    # Same computation up to rescale rounding order: both stay within the
    # CKKS noise budget of each other and of the plaintext reference.
    assert np.max(np.abs(hoisted_vals - seq_vals)) < 0.02
    reference = tiny_model.infer_plain(tiny_image)
    assert np.max(np.abs(hoisted_vals - reference)) < 0.05
    # The tiny model's dense layers fold in multi-step groups, so hoisting
    # shares a lift across each group.
    assert 0 < hoisted_rows < seq_rows


def test_cold_cache_forward_matches_warm(tiny_model, tiny_ctx, tiny_image):
    """First inference (cache misses) and later ones agree exactly."""
    encrypted = tiny_model.encrypt_input(tiny_ctx, tiny_image)
    tiny_ctx.clear_plaintext_cache()
    cold = tiny_model.forward_encrypted(Evaluator(tiny_ctx), encrypted)
    warm = tiny_model.forward_encrypted(Evaluator(tiny_ctx), encrypted)
    for f, s in zip(_component_residues(cold), _component_residues(warm)):
        assert np.array_equal(f, s)
