"""Tests for the fluent network builder and the average-pooling layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, OperationRecorder, tiny_test_params
from repro.hecnn import (
    ConvMatrix,
    NetworkBuilder,
    PackedAveragePool,
    PackedDense,
    PackedDiagonalDense,
    PlainAveragePool,
    PlainConv2d,
    PoolSpec,
    SlotLayout,
)

from .test_network import _fetch_log


@pytest.fixture(scope="module")
def pool_params():
    return tiny_test_params(poly_degree=1024, level=7)


@pytest.fixture(scope="module")
def pooled_net(pool_params):
    return (
        NetworkBuilder("pool-demo", pool_params, seed=4)
        .conv(out_channels=2, kernel_size=3, stride=1, in_channels=1, in_size=10)
        .average_pool(2)
        .square()
        .dense(6)
        .build()
    )


@pytest.fixture(scope="module")
def pool_ctx(pool_params, pooled_net):
    ctx = CkksContext(pool_params, seed=2)
    pooled_net.provision_keys(ctx)
    return ctx


# -- PoolSpec / plain reference ---------------------------------------------------


def test_pool_spec_geometry():
    spec = PoolSpec(channels=3, in_size=8, k=2)
    assert spec.out_size == 4
    assert spec.out_positions == 16
    assert spec.output_count == 48
    with pytest.raises(ValueError):
        PoolSpec(channels=1, in_size=9, k=2)


def test_plain_average_pool():
    spec = PoolSpec(channels=1, in_size=4, k=2)
    x = np.arange(16, dtype=float)
    out = PlainAveragePool(spec).forward(x)
    # windows: [[0,1,4,5],[2,3,6,7],[8,9,12,13],[10,11,14,15]] means
    assert np.allclose(out, [2.5, 4.5, 10.5, 12.5])


def test_plain_pool_multichannel():
    spec = PoolSpec(channels=2, in_size=2, k=2)
    x = np.array([1.0, 2, 3, 4, 10, 20, 30, 40])
    assert np.allclose(PlainAveragePool(spec).forward(x), [2.5, 25.0])


def test_plain_pool_shape_validation():
    spec = PoolSpec(channels=1, in_size=4, k=2)
    with pytest.raises(ValueError):
        PlainAveragePool(spec).forward(np.zeros(15))


# -- packed pooling ------------------------------------------------------------------


def test_packed_pool_trace_counts():
    spec = PoolSpec(channels=2, in_size=8, k=2)
    layout = SlotLayout.contiguous(256, spec.channels * spec.in_positions)
    layer = PackedAveragePool("Pool", spec, layout)
    trace = layer.trace(level=5)
    assert trace.kind == "KS"
    assert trace.keyswitch_count == 2 * (spec.k - 1)  # separable reduction
    from repro.optypes import HeOp

    assert trace.op_counts[HeOp.PC_MULT] == 1  # one mask per ciphertext
    assert trace.op_counts[HeOp.RESCALE] == 1
    assert trace.op_counts[HeOp.CC_ADD] == trace.keyswitch_count
    assert layer.levels_consumed == 1
    assert trace.rotation_steps == (1, 8)


def test_packed_pool_k3_rotations():
    spec = PoolSpec(channels=1, in_size=9, k=3)
    layout = SlotLayout.contiguous(128, 81)
    layer = PackedAveragePool("Pool", spec, layout)
    trace = layer.trace(4)
    assert trace.rotation_steps == (1, 2, 9, 18)
    assert trace.keyswitch_count == 4  # 2*(k-1)


def test_packed_pool_layout_validation():
    spec = PoolSpec(channels=2, in_size=8, k=2)
    with pytest.raises(ValueError, match="expects"):
        PackedAveragePool("Pool", spec, SlotLayout.contiguous(256, 100))


def test_pool_output_layout_matches_plain_ordering():
    spec = PoolSpec(channels=2, in_size=4, k=2)
    layout = SlotLayout.contiguous(64, 32)
    layer = PackedAveragePool("Pool", spec, layout)
    out = layer.output_layout
    assert out.value_count == spec.output_count
    assert out.clean
    # Value 0 (map 0, output position 0) anchors at slot 0.
    assert out.slot_index[0] == 0
    # Value for map 1, position 0 sits one map-block later.
    assert out.slot_index[spec.out_positions] == spec.in_positions


# -- end-to-end through the builder ------------------------------------------------


def test_builder_layer_naming(pooled_net):
    assert [l.name for l in pooled_net.layers] == [
        "Cnv1", "Pool2x2", "Act1", "Fc1",
    ]


def test_builder_end_to_end(pooled_net, pool_ctx):
    img = np.random.default_rng(0).uniform(0, 1, (1, 10, 10))
    enc = pooled_net.infer(pool_ctx, img)
    plain = pooled_net.infer_plain(img)
    assert np.allclose(enc, plain, atol=2e-2)


def test_builder_pool_trace_matches_recording(pooled_net, pool_ctx):
    img = np.random.default_rng(1).uniform(0, 1, (1, 10, 10))
    rec = OperationRecorder()
    pooled_net.infer(pool_ctx, img, recorder=rec)
    for lt in pooled_net.trace().layers:
        assert rec.by_phase[lt.name] == lt.op_counts, lt.name


def test_builder_plaintext_count_is_the_encoded_plaintexts(
    pooled_net, pool_ctx, encoded_plaintexts
):
    img = np.random.default_rng(3).uniform(0, 1, (1, 10, 10))
    encoded = encoded_plaintexts(pooled_net, pool_ctx, img)
    counts = [lt.plaintext_count for lt in pooled_net.trace().layers]
    assert counts == [len(pairs) for pairs in encoded]
    assert counts[-1] == 6 + 6  # unmerged Fc1: a bias per row


def _replicated_mid_conv():
    """72 conv outputs in one clean ciphertext: LoLa's replicated plan."""
    return (
        NetworkBuilder("two-conv", tiny_test_params(poly_degree=1024, level=7),
                       seed=7)
        .conv(out_channels=2, kernel_size=3, stride=1, in_channels=1, in_size=8)
        .square()
        .conv(out_channels=3, kernel_size=2, stride=2)
        .build()
    )


def _scattered_mid_conv():
    """288 conv outputs spread over two ciphertexts, as CIFAR10's Cnv2."""
    return (
        NetworkBuilder("scattered-conv", tiny_test_params(poly_degree=512,
                                                          level=7), seed=8)
        .conv(out_channels=8, kernel_size=3, stride=1, in_channels=1, in_size=8)
        .square()
        .conv(out_channels=2, kernel_size=3, stride=2)
        .square()
        .dense(4)
        .build()
    )


def _diagonal_mid_conv():
    """144 conv outputs in 256 slots and 64 rows: one copy, many chunks."""
    return (
        NetworkBuilder("diagonal-conv", tiny_test_params(poly_degree=512,
                                                         level=7), seed=9)
        .conv(out_channels=4, kernel_size=3, stride=1, in_channels=1, in_size=8)
        .square()
        .conv(out_channels=4, kernel_size=3)
        .square()
        .dense(4)
        .build()
    )


@pytest.mark.parametrize(
    "build, packed, input_cts",
    [
        (_replicated_mid_conv, PackedDense, 1),
        (_scattered_mid_conv, PackedDense, 2),
        (_diagonal_mid_conv, PackedDiagonalDense, 1),
    ],
    ids=["replicated", "scattered", "diagonal"],
)
def test_builder_mid_network_conv(build, packed, input_cts, monkeypatch):
    """A second conv is lowered to a matrix layer (like CIFAR's Cnv2) in
    each packing regime: it decrypts to the plain convolution, runs its
    trace, fetches exactly its provisioned keys and passes the audit."""
    net = build()
    cnv2 = net.layers[2]
    assert cnv2.name == "Cnv2" and type(cnv2) is packed
    assert isinstance(cnv2.weights, ConvMatrix)
    assert cnv2.packing.input_layout.num_cts == input_cts
    assert isinstance(net.plain_reference.layers[2], PlainConv2d)
    if packed is PackedDense:
        assert cnv2.packing.replicated == (input_cts == 1)

    ctx = CkksContext(tiny_test_params(net.poly_degree, level=7), seed=3)
    net.provision_keys(ctx)
    fetched = _fetch_log(monkeypatch)
    img = np.random.default_rng(2).uniform(0, 1, (1, 8, 8))
    rec = OperationRecorder()
    assert np.allclose(
        net.infer(ctx, img, recorder=rec), net.infer_plain(img), atol=2e-2
    )
    for lt in net.trace().layers:
        assert rec.by_phase[lt.name] == lt.op_counts, lt.name
    assert fetched == set(ctx.galois_keys.keys) == set(net.rotation_keys())
    net.audit_noise(ctx, img)  # raises on an optimistic layer


def test_builder_requires_conv_first(pool_params):
    with pytest.raises(ValueError, match="conv"):
        NetworkBuilder("bad", pool_params).square()
    with pytest.raises(ValueError, match="in_size"):
        NetworkBuilder("bad", pool_params).conv(out_channels=2, kernel_size=3)


def test_builder_final_dense_unmerged(pooled_net):
    last = pooled_net.layers[-1]
    assert not last.packing.merge_output


def test_builder_pool_requires_grid(pool_params):
    b = (
        NetworkBuilder("bad", pool_params, seed=0)
        .conv(out_channels=1, kernel_size=3, stride=1, in_channels=1, in_size=8)
        .dense(4)
    )
    with pytest.raises(ValueError, match="grid"):
        b.average_pool(2)
