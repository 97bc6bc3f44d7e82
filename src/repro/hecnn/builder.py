"""Fluent builder for packed HE-CNN networks.

Composes the packed layer types into an :class:`~repro.hecnn.network.HeCnn`
together with its plaintext reference, wiring the slot layouts between
layers automatically:

    >>> from repro.fhe import tiny_test_params
    >>> params = tiny_test_params(poly_degree=512, level=7)
    >>> net = (NetworkBuilder("demo", params, seed=1)
    ...        .conv(out_channels=2, kernel_size=3, stride=2, in_size=8)
    ...        .square()
    ...        .dense(8)
    ...        .square()
    ...        .dense(4)
    ...        .build())

The first layer must be a convolution (it defines the client-side input
packing); the final dense layer is automatically built unmerged (LoLa's
output-layer convention, saving the mask level).  Mid-network convolutions
are lowered to matrix layers, exactly like the paper's FxHENN-CIFAR10
``Cnv2``; the matrix is a :class:`~repro.hecnn.models.ConvMatrix`, whose
entries are read from the conv kernel on demand, and the plain reference
is the convolution itself.

Matrix layers use LoLa's packing, except where its replicated plan has a
single copy and several chunks: there each chunk is one row paying a full
rotate-and-sum and a mask, and the diagonal packing
(:class:`~repro.hecnn.packing.DiagonalPacking`) replaces it.
"""

from __future__ import annotations

import numpy as np

from ..fhe.params import CkksParameters
from .data import glorot_weights, small_bias
from .layers import (
    PackedAveragePool,
    PackedConv,
    PackedDense,
    PackedDiagonalDense,
    PackedLayer,
    PackedSquare,
)
from .network import HeCnn
from .packing import ConvPacking, DensePacking, DiagonalPacking
from .reference import (
    ConvSpec,
    DenseSpec,
    PlainAveragePool,
    PlainConv2d,
    PlainDense,
    PlainNetwork,
    PlainSquare,
    PoolSpec,
)


class NetworkBuilder:
    """Accumulates layers; call :meth:`build` to obtain the network.

    Weights default to seeded Glorot samples; pass explicit ``weights`` /
    ``bias`` arrays to any layer method to override.
    """

    def __init__(self, name: str, params: CkksParameters, seed: int = 0) -> None:
        self.name = name
        self.params = params
        self.rng = np.random.default_rng(seed)
        self._layers: list = []
        self._plain: list = []
        self._conv_packing: ConvPacking | None = None
        self._act_count = 0
        self._dense_count = 0
        self._conv_count = 0
        #: (channels, spatial size) of the current feature map, if grid-shaped.
        self._grid: tuple[int, int] | None = None

    # -- layer methods -----------------------------------------------------------

    def conv(
        self,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        in_channels: int | None = None,
        in_size: int | None = None,
        weights: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        name: str | None = None,
    ) -> "NetworkBuilder":
        """Add a convolution.

        The first conv defines the input image (``in_channels``/``in_size``
        required); later convs are lowered to matrix layers over the
        current grid, whose weights a :class:`~repro.hecnn.models
        .ConvMatrix` reads from the kernel.
        """
        self._conv_count += 1
        name = name or f"Cnv{self._conv_count}"
        if not self._layers:
            if in_channels is None or in_size is None:
                in_channels, in_size = in_channels or 1, in_size
            if in_size is None:
                raise ValueError("the first conv needs in_size")
            spec = ConvSpec(
                in_channels=in_channels, out_channels=out_channels,
                kernel_size=kernel_size, stride=stride, padding=padding,
                in_size=in_size,
            )
            w = weights if weights is not None else glorot_weights(
                (out_channels, in_channels, kernel_size, kernel_size), self.rng
            )
            b = bias if bias is not None else small_bias(out_channels, self.rng)
            packing = ConvPacking(spec=spec, slot_count=self.params.slot_count)
            self._conv_packing = packing
            self._layers.append(PackedConv(name, packing, w, b))
            self._plain.append(PlainConv2d(spec, w, b))
            self._grid = (out_channels, spec.out_size)
            return self
        # Mid-network conv: lower to a matrix layer on the current grid.
        if self._grid is None:
            raise ValueError("mid-network conv needs a grid-shaped input")
        from .models import ConvMatrix

        channels, size = self._grid
        spec = ConvSpec(
            in_channels=channels, out_channels=out_channels,
            kernel_size=kernel_size, stride=stride, padding=padding,
            in_size=size,
        )
        w = weights if weights is not None else glorot_weights(
            (out_channels, channels, kernel_size, kernel_size), self.rng
        )
        b = bias if bias is not None else small_bias(out_channels, self.rng)
        matrix = ConvMatrix(spec, w)
        bias_vec = np.repeat(np.asarray(b, dtype=float), spec.out_positions)
        dspec = DenseSpec(
            in_features=channels * size * size,
            out_features=spec.output_count,
        )
        self._layers.append(self._matrix_layer(name, dspec, matrix, bias_vec))
        self._plain.append(PlainConv2d(spec, w, b))
        self._grid = (out_channels, spec.out_size)
        return self

    def square(self, name: str | None = None) -> "NetworkBuilder":
        """Add a square activation over the current layout."""
        self._require_started()
        self._act_count += 1
        name = name or f"Act{self._act_count}"
        self._layers.append(PackedSquare(name, self._layers[-1].output_layout))
        self._plain.append(PlainSquare())
        return self

    def average_pool(self, k: int, name: str | None = None) -> "NetworkBuilder":
        """Add non-overlapping k x k average pooling (grid input only)."""
        self._require_started()
        if self._grid is None:
            raise ValueError("average_pool needs a grid-shaped input")
        channels, size = self._grid
        spec = PoolSpec(channels=channels, in_size=size, k=k)
        name = name or f"Pool{k}x{k}"
        self._layers.append(
            PackedAveragePool(name, spec, self._layers[-1].output_layout)
        )
        self._plain.append(PlainAveragePool(spec))
        self._grid = (channels, spec.out_size)
        return self

    def dense(
        self,
        out_features: int,
        weights: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        name: str | None = None,
    ) -> "NetworkBuilder":
        """Add a fully connected layer over the current layout."""
        self._require_started()
        self._dense_count += 1
        name = name or f"Fc{self._dense_count}"
        in_features = self._layers[-1].output_layout.value_count
        spec = DenseSpec(in_features=in_features, out_features=out_features)
        w = weights if weights is not None else glorot_weights(
            (out_features, in_features), self.rng
        )
        b = bias if bias is not None else small_bias(out_features, self.rng)
        self._layers.append(self._matrix_layer(name, spec, w, b))
        self._plain.append(PlainDense(spec, w, b))
        self._grid = None
        return self

    def _matrix_layer(
        self, name: str, spec: DenseSpec, weights: np.ndarray,
        bias: np.ndarray,
    ) -> PackedLayer:
        """The packed layer for a matrix over the current layout: LoLa's,
        or the diagonal one where LoLa's replicated plan has one copy and
        more than one chunk."""
        layout = self._layers[-1].output_layout
        packing = DensePacking(spec=spec, input_layout=layout)
        if packing.replicated and packing.copies == 1 and packing.num_chunks > 1:
            return PackedDiagonalDense(
                name, DiagonalPacking(spec=spec, input_layout=layout),
                weights, bias,
            )
        return PackedDense(name, packing, weights, bias)

    # -- assembly ------------------------------------------------------------------

    def build(self) -> HeCnn:
        """Assemble the network (re-packing the last dense as unmerged)."""
        self._require_started()
        layers = list(self._layers)
        if isinstance(layers[-1], PackedDense):
            last = layers[-1]
            repacked = DensePacking(
                spec=last.packing.spec,
                input_layout=last.packing.input_layout,
                merge_output=False,
            )
            layers[-1] = PackedDense(
                last.name, repacked, last.weights, last.bias
            )
        return HeCnn(
            name=self.name,
            poly_degree=self.params.poly_degree,
            base_level=self.params.level,
            input_packing=self._conv_packing,
            layers=layers,
            plain_reference=PlainNetwork(self._plain),
            prime_bits=self.params.prime_bits,
        )

    def _require_started(self) -> None:
        if not self._layers:
            raise ValueError("add the input conv layer first")
