"""The paper's benchmark HE-CNN models, plus scaled-down test variants.

Paper Table VI:

================ ============================== =========
Network          Layers                         Dataset
================ ============================== =========
FxHENN-MNIST     Cnv1, Act1, Fc1, Act2, Fc2     MNIST
FxHENN-CIFAR10   Cnv1, Act1, Cnv2, Act2, Fc2    CIFAR-10
================ ============================== =========

Both networks have multiplication depth 5 and follow the LoLa/CryptoNets
topology:

* **FxHENN-MNIST** (N=8192): Conv 5 maps of 5x5 stride 2 pad 1 on 28x28
  (-> 5x13x13 = 845), square, FC 845->100, square, FC 100->10.  These
  shapes reproduce the paper's Table IV exactly: Cnv1 MACs = 169*25*5 =
  21_100-ish (2.11e4) and Fc1 MACs = 845*100 = 8.45e4.
* **FxHENN-CIFAR10** (N=16384): Conv 83 maps of 8x8x3 stride 2 on 32x32
  (-> 83x13x13 = 14_027), square, Conv2 163 maps of 10x10x83 stride 1
  (-> 163x4x4 = 2_608) *expressed as a matrix layer* (mid-network
  convolutions cannot use the client-side per-offset packing, so LoLa — and
  we — lower them to matrix multiplication), square, FC 2608->10.  The
  matrix is a :class:`ConvMatrix`: its entries are read from the conv
  kernel when a weight plaintext is built, so the 2608 x 14027 dense
  matrix is never stored.

Weights are deterministic Glorot samples (see DESIGN.md substitutions:
the paper's trained LoLa weights are unavailable and accuracy is orthogonal
to the accelerator framework).  Weight *values* never affect the operation
trace — only shapes do.
"""

from __future__ import annotations

import numpy as np

from ..fhe.params import CkksParameters, fxhenn_cifar10_params, fxhenn_mnist_params
from .network import HeCnn
from .reference import ConvSpec


class ConvMatrix:
    """A convolution's lowered matrix, read from its kernel on demand.

    Rows are output features ``m * P_out + oy * out + ox`` and columns
    input features ``c * P_in + iy * in + ix`` (map-major, matching the
    previous packed layer's output layout).  Entry ``(r, i)`` is
    ``w[m, c, iy - oy * stride + pad, ix - ox * stride + pad]`` when both
    kernel offsets fall in ``[0, k)``, else 0.  The packed matrix layers
    read weights only as ``weights[rows, cols]`` on integer indices, so
    only the kernel is stored, never the (mostly zero) dense matrix.
    """

    def __init__(self, spec: ConvSpec, kernel: np.ndarray) -> None:
        self.spec = spec
        self.kernel = np.asarray(kernel, dtype=np.float64)
        in_positions = spec.in_size * spec.in_size
        self.shape = (spec.output_count, spec.in_channels * in_positions)

    def __getitem__(self, index: tuple) -> np.ndarray:
        rows, cols = index
        s, k = self.spec, self.spec.kernel_size
        m, p_out = np.divmod(rows, s.out_positions)
        c, p_in = np.divmod(cols, s.in_size * s.in_size)
        ky = p_in // s.in_size - (p_out // s.out_size) * s.stride + s.padding
        kx = p_in % s.in_size - (p_out % s.out_size) * s.stride + s.padding
        inside = (ky >= 0) & (ky < k) & (kx >= 0) & (kx < k)
        taps = self.kernel[m, c, np.clip(ky, 0, k - 1), np.clip(kx, 0, k - 1)]
        return np.where(inside, taps, 0.0)


def _build_conv_square_dense_model(
    name: str,
    params: CkksParameters,
    conv_spec: ConvSpec,
    dense_shapes: list[int],
    seed: int,
    conv2_spec: ConvSpec | None = None,
) -> HeCnn:
    """Assemble Conv -> Square -> [Conv2-as-matrix -> Square ->] Dense chain
    via :class:`~repro.hecnn.builder.NetworkBuilder`."""
    from .builder import NetworkBuilder

    builder = NetworkBuilder(name, params, seed=seed)
    builder.conv(
        out_channels=conv_spec.out_channels,
        kernel_size=conv_spec.kernel_size,
        stride=conv_spec.stride,
        padding=conv_spec.padding,
        in_channels=conv_spec.in_channels,
        in_size=conv_spec.in_size,
    )
    builder.square()

    dense_idx = 1
    if conv2_spec is not None:
        builder.conv(
            out_channels=conv2_spec.out_channels,
            kernel_size=conv2_spec.kernel_size,
            stride=conv2_spec.stride,
            padding=conv2_spec.padding,
            name="Cnv2",
        )
        builder.square()
        dense_idx = 2

    for i, out_features in enumerate(dense_shapes):
        builder.dense(out_features, name=f"Fc{dense_idx}")
        if i != len(dense_shapes) - 1:
            builder.square()
        dense_idx += 1

    return builder.build()


def fxhenn_mnist_model(seed: int = 0, params: CkksParameters | None = None) -> HeCnn:
    """The paper's FxHENN-MNIST: Cnv1, Act1, Fc1, Act2, Fc2 at N=8192."""
    params = params or fxhenn_mnist_params()
    conv = ConvSpec(
        in_channels=1, out_channels=5, kernel_size=5, stride=2, padding=1,
        in_size=28,
    )
    model = _build_conv_square_dense_model(
        "FxHENN-MNIST", params, conv, dense_shapes=[100, 10], seed=seed
    )
    return model


def fxhenn_cifar10_model(seed: int = 0, params: CkksParameters | None = None) -> HeCnn:
    """The paper's FxHENN-CIFAR10: Cnv1, Act1, Cnv2, Act2, Fc2 at N=16384.

    Note: functional execution requires ``params.functional_variant()``;
    with the default (36-bit) preset this model is trace/model-only.
    """
    params = params or fxhenn_cifar10_params()
    conv1 = ConvSpec(
        in_channels=3, out_channels=83, kernel_size=8, stride=2, padding=0,
        in_size=32,
    )
    conv2 = ConvSpec(
        in_channels=83, out_channels=163, kernel_size=10, stride=1, padding=0,
        in_size=13,
    )
    return _build_conv_square_dense_model(
        "FxHENN-CIFAR10", params, conv1, dense_shapes=[10], seed=seed,
        conv2_spec=conv2,
    )


def tiny_mnist_model(
    seed: int = 0, params: CkksParameters | None = None
) -> HeCnn:
    """A scaled-down MNIST-topology model for fast functional tests.

    Conv 2 maps of 3x3 stride 2 on 8x8 (-> 2x3x3 = 18), square, FC 18->8,
    square, FC 8->4 — same layer taxonomy (NKS conv, KS dense, squares) at
    N=512.
    """
    from ..fhe.params import tiny_test_params

    params = params or tiny_test_params(poly_degree=512, level=7)
    conv = ConvSpec(
        in_channels=1, out_channels=2, kernel_size=3, stride=2, padding=0,
        in_size=8,
    )
    return _build_conv_square_dense_model(
        "Tiny-MNIST", params, conv, dense_shapes=[8, 4], seed=seed
    )
