"""Tests pinning the benchmark models to the paper's reported workloads."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.hecnn import ConvMatrix, ConvSpec, PlainConv2d, fxhenn_cifar10_model
from repro.optypes import HeOp


def test_mnist_layer_names(mnist_model):
    assert [layer.name for layer in mnist_model.layers] == [
        "Cnv1", "Act1", "Fc1", "Act2", "Fc2",
    ]


def test_cifar_layer_names(cifar_model):
    assert [layer.name for layer in cifar_model.layers] == [
        "Cnv1", "Act1", "Cnv2", "Act2", "Fc2",
    ]


def test_mnist_macs_match_table4(mnist_model):
    """Paper Table IV: Cnv1 MACs = 2.11e4, Fc1 MACs = 8.45e4 (exact)."""
    trace = mnist_model.trace()
    assert trace.layer("Cnv1").macs == 21125
    assert trace.layer("Fc1").macs == 84500
    # The paper's headline: 4x plain-MAC ratio between Fc1 and Cnv1.
    assert trace.layer("Fc1").macs / trace.layer("Cnv1").macs == pytest.approx(4.0)


def test_mnist_cnv1_hop_count_matches_table4(mnist_model):
    """Paper Table IV: Cnv1 = 75 HOPs (25 PCmult + 25 Rescale + 24 CCadd +
    1 bias PCadd)."""
    cnv1 = mnist_model.trace().layer("Cnv1")
    assert cnv1.hop_count == 75
    assert cnv1.op_counts[HeOp.PC_MULT] == 25
    assert cnv1.op_counts[HeOp.RESCALE] == 25
    assert cnv1.keyswitch_count == 0
    assert cnv1.kind == "NKS"


def test_mnist_totals_near_paper(mnist_model):
    """Paper Table VII: FxHENN-MNIST has 826 HOPs and 280 KeySwitches; our
    packing derivation must land within 20%."""
    trace = mnist_model.trace()
    assert trace.hop_count == pytest.approx(826, rel=0.20)
    assert trace.keyswitch_count == pytest.approx(280, rel=0.20)


def test_mnist_he_mac_blowup(mnist_model):
    """Table IV's phenomenon: the Fc1/Cnv1 workload ratio grows from 4x
    (plain MACs) to >10x under HE, and HE-MACs are ~4 orders of magnitude
    above plain MACs."""
    trace = mnist_model.trace()
    cnv1, fc1 = trace.layer("Cnv1"), trace.layer("Fc1")
    he_ratio = fc1.he_macs(8192) / cnv1.he_macs(8192)
    assert he_ratio > 10
    assert cnv1.he_macs(8192) / cnv1.macs > 1000


def test_mnist_he_macs_near_paper(mnist_model):
    """Cnv1 HE-MACs ~ 1.198e8 in Table IV; ours derive from the same
    algorithmic structure and must be within 2x."""
    cnv1 = mnist_model.trace().layer("Cnv1")
    assert 0.5e8 < cnv1.he_macs(8192) < 2.4e8


def test_cifar_totals_two_orders_above_mnist(mnist_model, cifar_model):
    """Table VI: CIFAR-10 has ~2 orders of magnitude more HOPs than MNIST."""
    m, c = mnist_model.trace(), cifar_model.trace()
    ratio = c.hop_count / m.hop_count
    assert 50 < ratio < 200
    assert c.keyswitch_count > 30 * m.keyswitch_count


def test_cifar_totals_near_paper(cifar_model):
    """Paper: 82.73e3 HOPs, 57e3 KS for FxHENN-CIFAR10 (we accept 0.5-1.5x)."""
    trace = cifar_model.trace()
    assert 0.5 * 82730 < trace.hop_count < 1.5 * 82730
    assert 0.5 * 57000 < trace.keyswitch_count < 1.5 * 57000


def test_model_sizes_same_ballpark(mnist_model, cifar_model):
    """Table VI Mod.Size: 15.57 MB (MNIST) and 2471 MB (CIFAR-10)."""
    m = mnist_model.trace().model_size_bytes() / 1e6
    c = cifar_model.trace().model_size_bytes() / 1e6
    assert 7 < m < 32
    assert 1200 < c < 5000
    assert c / m > 50  # two orders of magnitude, as the paper stresses


def test_both_networks_depth_five(mnist_model, cifar_model):
    """Both networks have multiplication depth 5 (Sec. VII-A) — five
    mult layers; the packing may spend the spare levels on re-packing."""
    for model in (mnist_model, cifar_model):
        assert len(model.layers) == 5
        assert model.base_level == 7
        assert model.layer_entry_levels()[0] == 7
        assert model.layer_entry_levels()[-1] >= 2


def test_rotation_steps_are_provisionable(mnist_model):
    steps = mnist_model.trace().rotation_steps()
    assert steps  # dense layers need rotations
    assert all(0 < s < mnist_model.input_packing.slot_count for s in steps)


def _conv_as_dense_matrix_loop(spec, weights, rows=None):
    """Element-by-element lowering of the given output rows (all by
    default): the oracle for :class:`ConvMatrix`'s entries."""
    in_positions = spec.in_size * spec.in_size
    rows = range(spec.output_count) if rows is None else rows
    matrix = np.zeros((len(rows), spec.in_channels * in_positions))
    for n, out_idx in enumerate(rows):
        m, p_out = divmod(out_idx, spec.out_positions)
        oy, ox = divmod(p_out, spec.out_size)
        for c in range(spec.in_channels):
            for ky in range(spec.kernel_size):
                for kx in range(spec.kernel_size):
                    iy = oy * spec.stride + ky - spec.padding
                    ix = ox * spec.stride + kx - spec.padding
                    if 0 <= iy < spec.in_size and 0 <= ix < spec.in_size:
                        in_idx = c * in_positions + iy * spec.in_size + ix
                        matrix[n, in_idx] = weights[m, c, ky, kx]
    return matrix


def _full(matrix: ConvMatrix) -> np.ndarray:
    """Every entry of the lowered matrix, read through ``[rows, cols]``."""
    rows, cols = np.indices(matrix.shape)
    return matrix[rows, cols]


@pytest.mark.parametrize(
    "in_channels, out_channels, kernel_size, stride, padding, in_size",
    [
        (2, 3, 3, 1, 0, 5),
        (3, 4, 3, 2, 1, 7),  # stride 2 with padding: border offsets clip
        (2, 2, 4, 2, 1, 8),
        (1, 5, 5, 2, 1, 28),  # FxHENN-MNIST Cnv1 geometry
        (4, 3, 5, 1, 0, 5),  # a single output position
    ],
)
def test_conv_as_dense_matrix_bit_identical_to_loop(
    in_channels, out_channels, kernel_size, stride, padding, in_size
):
    spec = ConvSpec(
        in_channels=in_channels, out_channels=out_channels,
        kernel_size=kernel_size, stride=stride, padding=padding,
        in_size=in_size,
    )
    rng = np.random.default_rng(in_size)
    w = rng.normal(size=(out_channels, in_channels, kernel_size, kernel_size))
    matrix = ConvMatrix(spec, w)
    want = _conv_as_dense_matrix_loop(spec, w)
    assert matrix.shape == want.shape
    got = _full(matrix)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # A single row against an index array, as the scattered packing reads.
    assert np.array_equal(matrix[1, np.arange(3)], want[1, :3])
    with pytest.raises(IndexError):
        matrix[np.array([matrix.shape[0]]), np.array([0])]


def test_conv_matrix_rows_of_cifar10_cnv2():
    """Whole rows of CIFAR10's Cnv2 lowering (163 maps of 10x10x83 on
    13x13): the first, the last and one in each output map block."""
    spec = ConvSpec(
        in_channels=83, out_channels=163, kernel_size=10, stride=1,
        padding=0, in_size=13,
    )
    w = np.random.default_rng(10).normal(size=(163, 83, 10, 10))
    matrix = ConvMatrix(spec, w)
    p_out = spec.out_positions
    rows = [0, spec.output_count - 1] + [
        m * p_out + m % p_out for m in range(spec.out_channels)
    ]
    cols = np.arange(matrix.shape[1])
    want = _conv_as_dense_matrix_loop(spec, w, rows)
    for n, row in enumerate(rows):
        assert np.array_equal(matrix[row, cols], want[n]), row


def test_conv_as_dense_matrix_equivalence():
    """The lowered matrix reproduces the convolution on map-major vectors,
    and the plain conv reads that flat vector as its grid."""
    rng = np.random.default_rng(3)
    spec = ConvSpec(
        in_channels=2, out_channels=3, kernel_size=3, stride=1, padding=0,
        in_size=5,
    )
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    img = rng.uniform(0, 1, (2, 5, 5))
    flat_in = img.reshape(-1)  # c * P_in + p_in ordering
    plain = PlainConv2d(spec, w, b)
    bias_vec = np.repeat(b, spec.out_positions)
    lowered = _full(ConvMatrix(spec, w)) @ flat_in + bias_vec
    assert np.allclose(plain.forward(flat_in), lowered)
    assert np.array_equal(plain.forward(flat_in), plain.forward(img))


def test_cifar10_trace_stores_no_dense_matrix():
    """Tracing FxHENN-CIFAR10 allocates its kernels, not Cnv2's 279 MiB
    lowered matrix (2608 x 14027 float64); the Cnv2 kernel is 10.3 MiB."""
    tracemalloc.start()
    try:
        fxhenn_cifar10_model().trace()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
