"""The diagonal dense packing end to end: builder selection, encrypted
inference against the plaintext reference, traces, keys, the noise audit
and lineage."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.fhe import (
    CkksContext,
    CkksParameters,
    Evaluator,
    GaloisKeys,
    NoiseEstimator,
    OperationRecorder,
    tiny_test_params,
)
from repro.hecnn import (
    NetworkBuilder,
    PackedDense,
    PackedDiagonalDense,
    fxhenn_mnist_model,
)


@pytest.fixture(scope="module")
def params():
    return tiny_test_params(poly_degree=512, level=7)


@pytest.fixture(scope="module")
def net(params):
    """144 conv outputs in 256 slots: LoLa's Fc1 would be one copy of 16
    one-row chunks, so the builder packs it by diagonals."""
    return (
        NetworkBuilder("diagonal-demo", params, seed=5)
        .conv(out_channels=4, kernel_size=3, stride=1, in_channels=1,
              in_size=8)
        .square()
        .dense(16)
        .square()
        .dense(4)
        .build()
    )


@pytest.fixture(scope="module")
def ctx(params, net):
    context = CkksContext(params, seed=9)
    net.provision_keys(context)
    return context


@pytest.fixture()
def image():
    return np.random.default_rng(6).uniform(0, 1, (1, 8, 8))


def test_builder_picks_diagonal_where_lola_has_one_copy(net):
    fc1, fc2 = net.layers[2], net.layers[4]
    assert isinstance(fc1, PackedDiagonalDense)
    assert (fc1.packing.baby, fc1.packing.giant) == (4, 4)
    assert fc1.trace(5).keyswitch_count == 3 + 3 + 4  # baby, giant, fold
    assert isinstance(fc2, PackedDense)
    assert fc2.packing.replicated and fc2.packing.replication_steps() == []
    # No mask: every layer consumes one level.
    assert net.layer_entry_levels() == [7, 6, 5, 4, 3]


def test_encrypted_matches_plaintext_and_trace(net, ctx, image):
    rec = OperationRecorder()
    enc = net.infer(ctx, image, recorder=rec)
    assert np.allclose(enc, net.infer_plain(image), atol=1e-2)
    for lt in net.trace().layers:
        assert rec.by_phase[lt.name] == lt.op_counts, lt.name


def test_provisions_exactly_the_fetched_keys(params, net, image, monkeypatch):
    context = CkksContext(params, seed=10)
    net.provision_keys(context)
    fetched: set[tuple[int, int]] = set()
    real = GaloisKeys.get

    def get(keys, step, level):
        fetched.add((step, level))
        return real(keys, step, level)

    monkeypatch.setattr(GaloisKeys, "get", get)
    net.forward_encrypted(Evaluator(context), net.encrypt_input(context, image))
    assert fetched == set(context.galois_keys.keys) == set(net.rotation_keys())


def test_noise_audit_holds(net, ctx, image):
    rows = net.audit_noise(ctx, image)  # raises on an optimistic layer
    assert [r["layer"] for r in rows] == ["Cnv1", "Act1", "Fc1", "Act2", "Fc2"]
    assert all(r["gap_bits"] > 0 for r in rows)


def test_lineage_bounds_every_op(net, ctx, image):
    tracker = obs.LineageTracker(estimator=NoiseEstimator.for_context(ctx))
    with obs.observed(), obs.lineage_context(tracker):
        net.infer(ctx, image)
    obs.reset()
    assert tracker.propagation_failures == 0
    assert tracker.is_connected()
    assert all(
        node.noise_bits_after is not None for node in tracker.nodes.values()
    )
    fc1 = {n.op for n in tracker.nodes.values() if n.layer == "Fc1"}
    # The four fold steps run as a hoisted group of three and one Rotate
    # and CCadd.
    assert fc1 == {"BSGS", "RotateFold", "Rotate", "CCadd", "PCadd"}
    # The whole baby-step/giant-step product is one node on Act1's output,
    # bounded as the logical loop it replaces (the dry run's bound).
    (bsgs,) = [n for n in tracker.nodes.values() if n.op == "BSGS"]
    (parent,) = bsgs.parents
    assert tracker.nodes[parent].layer == "Act1"
    assert bsgs.level_after == bsgs.level_before - 1
    dry = net.noise_profile(ctx)
    rows = tracker.waterfall()
    assert [r["layer"] for r in rows] == [name for name, _ in dry]
    for (name, bound), row in zip(dry, rows):
        assert bound.error_bits == pytest.approx(row["exit_bits"], abs=1e-5)


def test_mnist_n2048_fc1_is_diagonal():
    params = CkksParameters(
        poly_degree=2048, prime_bits=28, level=7, scale_bits=26
    )
    model = fxhenn_mnist_model(seed=0, params=params)
    assert [type(layer) for layer in model.layers[2::2]] == [
        PackedDiagonalDense, PackedDense,
    ]
    fc1, fc2 = model.trace().layers[2::2]
    assert (fc1.hop_count, fc1.keyswitch_count) == (292, 25)
    assert (fc2.hop_count, fc2.keyswitch_count) == (34, 14)
    assert len(model.rotation_keys()) == 44


def test_shipped_paper_networks_keep_lola(tiny_model, mnist_model, cifar_model):
    for model in (tiny_model, mnist_model, cifar_model):
        assert not any(
            isinstance(layer, PackedDiagonalDense) for layer in model.layers
        ), model.name
