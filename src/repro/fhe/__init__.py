"""RNS-CKKS fully homomorphic encryption substrate.

A from-scratch implementation of the CKKS scheme in its RNS variant
(Cheon et al. 2017/2018), sufficient to run the paper's HE-CNN inference
workloads on encrypted data: modular kernels, negacyclic NTT, RNS
polynomials, canonical-embedding batching, key generation and all seven HE
operations (PCadd, PCmult, CCadd, CCmult, Rescale, Relinearize, Rotate).

Low-level ring kernels (batched NTT, Galois, modular arithmetic) dispatch
through the pluggable backend registry in :mod:`repro.fhe.kernels` —
select with ``REPRO_KERNEL_BACKEND`` or ``kernels.set_backend``; see
``docs/kernels.md``.
"""

from . import fastpath, kernels
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .encoder import CkksEncoder
from .fastpath import FastPathConfig
from .kernels import KernelBackend
from .keys import GaloisKeys, KeyGenerator, KeySwitchKey, PublicKey, SecretKey
from .modmath import (
    BarrettConstant,
    BatchedBarrett,
    barrett_reduce,
    batched_barrett_reduce,
    batched_mod_add,
    batched_mod_mul,
    batched_mod_neg,
    batched_mod_sub,
    find_primitive_root,
    find_root_of_unity,
    generate_ntt_primes,
    is_prime,
    mod_add,
    mod_inverse,
    mod_mul,
    mod_pow,
    mod_sub,
)
from .noise import (
    NoiseBound,
    NoiseEstimator,
    depth_capacity,
    measured_noise_bits,
    publish_noise_budget,
)
from .ntt import (
    BatchedNttContext,
    NttContext,
    clear_caches,
    get_batched_ntt_context,
    get_ntt_context,
    registry_info,
)
from .ops import Evaluator, OperationRecorder
from .params import (
    CkksParameters,
    build_prime_chain,
    fxhenn_cifar10_params,
    fxhenn_mnist_params,
    max_coeff_modulus_bits,
    security_bits,
    tiny_test_params,
)
from .poly import RnsBasis, RnsPolynomial
from .serialization import (
    SerializationError,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    ciphertext_wire_bytes,
    ciphertext_wire_size,
    plaintext_from_bytes,
    plaintext_to_bytes,
    plaintext_wire_size,
)

__all__ = [
    "BarrettConstant",
    "BatchedBarrett",
    "BatchedNttContext",
    "Ciphertext",
    "CkksContext",
    "CkksEncoder",
    "CkksParameters",
    "Evaluator",
    "FastPathConfig",
    "GaloisKeys",
    "KernelBackend",
    "KeyGenerator",
    "KeySwitchKey",
    "NoiseBound",
    "NoiseEstimator",
    "NttContext",
    "OperationRecorder",
    "Plaintext",
    "PublicKey",
    "RnsBasis",
    "RnsPolynomial",
    "SecretKey",
    "SerializationError",
    "ciphertext_from_bytes",
    "ciphertext_to_bytes",
    "ciphertext_wire_bytes",
    "ciphertext_wire_size",
    "plaintext_from_bytes",
    "plaintext_to_bytes",
    "plaintext_wire_size",
    "barrett_reduce",
    "batched_barrett_reduce",
    "batched_mod_add",
    "batched_mod_mul",
    "batched_mod_neg",
    "batched_mod_sub",
    "build_prime_chain",
    "clear_caches",
    "fastpath",
    "get_batched_ntt_context",
    "kernels",
    "registry_info",
    "depth_capacity",
    "measured_noise_bits",
    "publish_noise_budget",
    "find_primitive_root",
    "find_root_of_unity",
    "fxhenn_cifar10_params",
    "fxhenn_mnist_params",
    "generate_ntt_primes",
    "get_ntt_context",
    "is_prime",
    "max_coeff_modulus_bits",
    "mod_add",
    "mod_inverse",
    "mod_mul",
    "mod_pow",
    "mod_sub",
    "security_bits",
    "tiny_test_params",
]
