"""HE-CNN layer library: LoLa-style packing, packed layers, benchmark models.

Everything needed to express a CNN as a sequence of homomorphic operations
on packed ciphertexts: the plaintext reference, slot layouts and packing
plans, packed layers with functional execution *and* analytic operation
traces, and the paper's two benchmark networks.
"""

from .batched import (
    BatchedLayerSpec,
    batched_layer_trace,
    batched_network_trace,
    cryptonets_mnist_batched,
    max_batch_lanes,
)
from .builder import NetworkBuilder
from .data import (
    glorot_weights,
    small_bias,
    synthetic_cifar10_image,
    synthetic_mnist_image,
)
from .layers import (
    PackedAveragePool,
    PackedConv,
    PackedDense,
    PackedDiagonalDense,
    PackedLayer,
    PackedSquare,
)
from .models import (
    ConvMatrix,
    fxhenn_cifar10_model,
    fxhenn_mnist_model,
    tiny_mnist_model,
)
from .network import HeCnn
from .packing import (
    ConvPacking,
    DensePacking,
    DiagonalPacking,
    RotationPhase,
    SlotLayout,
    next_pow2,
)
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
from .trace import LayerTrace, NetworkTrace, he_op_basic_ops, ntt_pass_basic_ops

__all__ = [
    "BatchedLayerSpec",
    "ConvMatrix",
    "ConvPacking",
    "ConvSpec",
    "DensePacking",
    "DenseSpec",
    "DiagonalPacking",
    "HeCnn",
    "NetworkBuilder",
    "PackedAveragePool",
    "LayerTrace",
    "NetworkTrace",
    "PackedConv",
    "PackedDense",
    "PackedDiagonalDense",
    "PackedLayer",
    "PackedSquare",
    "PlainAveragePool",
    "PlainConv2d",
    "PlainDense",
    "PlainNetwork",
    "PlainSquare",
    "PoolSpec",
    "RotationPhase",
    "SlotLayout",
    "batched_layer_trace",
    "batched_network_trace",
    "cryptonets_mnist_batched",
    "max_batch_lanes",
    "fxhenn_cifar10_model",
    "fxhenn_mnist_model",
    "glorot_weights",
    "he_op_basic_ops",
    "next_pow2",
    "ntt_pass_basic_ops",
    "small_bias",
    "synthetic_cifar10_image",
    "synthetic_mnist_image",
    "tiny_mnist_model",
]
