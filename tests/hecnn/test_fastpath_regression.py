"""End-to-end regression: the kernel backend leaves encrypted inference bit-exact.

Encrypts once, then runs the same ciphertexts through the network under
the ``reference`` kernel oracle and the production ``montgomery`` backend:
the output ciphertexts must match bit for bit (the server side is
deterministic), the NTT row count must be equal (the backend changes how a
transform runs, never which transforms run), and the result must decrypt
to the plaintext reference.

Hoisted rotation folds are an *algorithm-level* choice — a hoisted fold
group shares a single rescale, so its rounding order differs from the
sequential walk.  They are regression-tested separately, against the
sequential walk forced by a fold group size of one, for numerical
equivalence and a transform-row reduction.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.fhe import Evaluator, kernels, ops


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


def test_reference_and_montgomery_forward_bit_identical(
    tiny_model, tiny_ctx, tiny_image
):
    encrypted = tiny_model.encrypt_input(tiny_ctx, tiny_image)

    with kernels.using_backend("reference"):
        ref_out, ref_rows = _counted_forward(tiny_model, tiny_ctx, encrypted)
    with kernels.using_backend("montgomery"):
        fast_out, fast_rows = _counted_forward(tiny_model, tiny_ctx, encrypted)

    # Bit-identical ciphertexts out of the whole network.
    assert len(fast_out) == len(ref_out)
    for f, s in zip(
        _component_residues(fast_out), _component_residues(ref_out)
    ):
        assert np.array_equal(f, s)
    assert fast_rows == ref_rows > 0

    # And the encrypted result still decrypts to the plaintext reference.
    layout = tiny_model.layers[-1].output_layout
    decrypted = layout.extract(
        [tiny_ctx.decrypt_values(ct) for ct in fast_out]
    )
    reference = tiny_model.infer_plain(tiny_image)
    assert np.max(np.abs(decrypted - reference)) < 0.05


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
