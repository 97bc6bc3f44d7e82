"""Packed HE-CNN layers: functional encrypted execution + analytic traces.

Each layer implements two faces of the same computation:

* :meth:`forward` runs the layer on real ciphertexts via an
  :class:`~repro.fhe.ops.Evaluator` — the functional ground truth;
* :meth:`trace` computes, from geometry alone, the exact HE-operation
  counts, pipeline work-unit counts and rotation steps the forward pass
  will perform — the input to the FPGA performance model and DSE.

The test suite asserts that an :class:`~repro.fhe.ops.OperationRecorder`
attached to :meth:`forward` reproduces :meth:`trace` op-for-op.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..fhe.ciphertext import Ciphertext
from ..fhe.noise import NoiseBound, NoiseEstimator
from ..fhe.ops import Evaluator, fold_composite_steps
from ..optypes import HeOp
from .packing import ConvPacking, DensePacking, DiagonalPacking, SlotLayout
from .reference import PoolSpec
from .trace import LayerTrace

#: Monotone ids distinguishing layer instances in the context-level
#: plaintext cache (:meth:`~repro.fhe.ops.Evaluator.encode_cached`), so
#: weight plaintexts survive across the fresh Evaluator each inference uses.
_cache_tokens = itertools.count()


def _fold_keys(steps, slot_count: int, level: int) -> set[tuple[int, int]]:
    """Keys :meth:`~repro.fhe.ops.Evaluator.rotate_fold` fetches at
    ``level``: the subset sums of its hoisted groups plus every non-zero
    step (a grouped step is its own one-element subset sum; the rest run
    through the sequential walk)."""
    fetched = {s % slot_count for s in steps} - {0}
    fetched.update(fold_composite_steps(steps, slot_count))
    return {(s, level) for s in fetched}


class PackedLayer:
    """Interface of a packed HE-CNN layer."""

    name: str

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        raise NotImplementedError

    def trace(self, level: int) -> LayerTrace:
        """Analytic trace when entered at ciphertext ``level``."""
        raise NotImplementedError

    @property
    def levels_consumed(self) -> int:
        """Rescales applied between layer input and output (always 1 for
        the LoLa layer types: one multiplication per layer)."""
        return 1

    @property
    def output_layout(self) -> SlotLayout:
        raise NotImplementedError

    def rotation_keys(self, level: int) -> list[tuple[int, int]]:
        """The ``(step, level)`` Galois keys :meth:`forward` fetches when
        entered at ``level``."""
        return []

    def propagate_noise(
        self, est: NoiseEstimator, bound: NoiseBound
    ) -> NoiseBound:
        """Push an analytic noise bound through this layer's op structure.

        Mirrors :meth:`forward` with the estimator's op set, so per-layer
        noise budgets are observable without the secret key (the gauges
        behind ``repro profile``).  Conservative: worst-case operand
        magnitudes at every step.
        """
        raise NotImplementedError


@dataclass
class PackedConv(PackedLayer):
    """LoLa convolution: one ``PCmult -> Rescale -> CCadd`` pass per kernel
    offset per output group, plus a bias PCadd (an **NKS** layer).

    Each group's passes execute as one
    :meth:`~repro.fhe.ops.Evaluator.multiply_plain_rescale_sum`, which
    records (and is traced as) the same logical operations.
    """

    name: str
    packing: ConvPacking
    weights: np.ndarray
    bias: np.ndarray
    _cache_token: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = self.packing.spec
        expected = (s.out_channels, s.in_channels, s.kernel_size, s.kernel_size)
        if self.weights.shape != expected:
            raise ValueError(f"weights must have shape {expected}")
        if self.bias.shape != (s.out_channels,):
            raise ValueError(f"bias must have shape ({s.out_channels},)")
        self._cache_token = next(_cache_tokens)

    @property
    def output_layout(self) -> SlotLayout:
        return self.packing.output_layout()

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        k = self.packing.spec.kernel_offsets
        if len(cts) != k:
            raise ValueError(f"expected {k} per-offset ciphertexts, got {len(cts)}")
        outputs: list[Ciphertext] = []
        for g in range(self.packing.num_groups):
            # Scale-stationary weights: encoded at the prime each Rescale
            # divides out, so the output keeps the input scale.
            pts = [
                evaluator.encode_cached(
                    lambda g=g, o=offset: self.packing.weight_vector(
                        g, o, self.weights
                    ),
                    level=ct.level,
                    scale=float(ct.basis.primes[-1]),
                    cache_key=(self._cache_token, "w", g, offset),
                )
                for offset, ct in enumerate(cts)
            ]
            acc = evaluator.multiply_plain_rescale_sum(cts, pts)
            bias_pt = evaluator.encode_cached(
                lambda g=g: self.packing.bias_vector(g, self.bias),
                level=acc.level,
                scale=acc.scale,
                cache_key=(self._cache_token, "b", g),
            )
            outputs.append(evaluator.add_plain(acc, bias_pt))
        return outputs

    def propagate_noise(
        self, est: NoiseEstimator, bound: NoiseBound
    ) -> NoiseBound:
        k = self.packing.spec.kernel_offsets
        w_bound = max(float(np.max(np.abs(self.weights))), 1e-12)
        term = est.multiply_values_rescale(bound, w_bound)
        acc = term
        for _ in range(k - 1):
            acc = est.add(acc, term)
        return est.add_plain(acc, float(np.max(np.abs(self.bias))))

    def trace(self, level: int) -> LayerTrace:
        k = self.packing.spec.kernel_offsets
        g = self.packing.num_groups
        counts = {
            HeOp.PC_MULT: k * g,
            HeOp.RESCALE: k * g,
            HeOp.CC_ADD: (k - 1) * g,
            HeOp.PC_ADD: g,
        }
        return LayerTrace(
            name=self.name,
            kind="NKS",
            op_counts=counts,
            nks_units=k * g,
            ks_units=0,
            level=level,
            num_input_cts=k,
            num_output_cts=g,
            macs=self.packing.spec.macs,
            plaintext_count=(k + 1) * g,
        )


@dataclass
class PackedSquare(PackedLayer):
    """Square activation: ``CCmult -> Relinearize -> Rescale`` per
    ciphertext (a **KS** layer — Relinearize is a KeySwitch)."""

    name: str
    layout: SlotLayout

    @property
    def output_layout(self) -> SlotLayout:
        return self.layout

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        return [evaluator.square_relinearize_rescale(ct) for ct in cts]

    def propagate_noise(
        self, est: NoiseEstimator, bound: NoiseBound
    ) -> NoiseBound:
        return est.square_relinearize_rescale(bound)

    def trace(self, level: int) -> LayerTrace:
        n = self.layout.num_cts
        counts = {HeOp.CC_MULT: n, HeOp.KEY_SWITCH: n, HeOp.RESCALE: n}
        return LayerTrace(
            name=self.name,
            kind="KS",
            op_counts=counts,
            nks_units=n,
            ks_units=n,
            level=level,
            num_input_cts=n,
            num_output_cts=n,
            macs=self.layout.value_count,  # one multiply per activation
            plaintext_count=0,
        )


@dataclass
class _MatrixLayer(PackedLayer):
    """A fully connected layer: ``out x in`` weights and a bias over a
    packing plan that owns the output layout."""

    name: str
    packing: DensePacking | DiagonalPacking
    weights: np.ndarray
    bias: np.ndarray
    _cache_token: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = self.packing.spec
        if self.weights.shape != (spec.out_features, spec.in_features):
            raise ValueError(
                f"weights must have shape {(spec.out_features, spec.in_features)}"
            )
        if self.bias.shape != (spec.out_features,):
            raise ValueError(f"bias must have shape ({spec.out_features},)")
        self._cache_token = next(_cache_tokens)

    @property
    def output_layout(self) -> SlotLayout:
        return self.packing.output_layout()


class PackedDense(_MatrixLayer):
    """LoLa fully connected layer (a **KS** layer).

    ``PCmult`` with stacked/masked matrix rows, rotate-and-sum reduction,
    chunk merging and a bias PCadd.  See :class:`~repro.hecnn.packing
    .DensePacking` for the two packing regimes.
    """

    packing: DensePacking

    @property
    def levels_consumed(self) -> int:
        """Masked merges spend one extra level on the mask PCmult."""
        return 2 if self.packing.needs_mask else 1

    def rotation_keys(self, level: int) -> list[tuple[int, int]]:
        """Mirrors :meth:`forward`: replication folds at the entry level,
        rotate-and-sum phases after the weight rescale (one lower), merge
        rotations after the mask rescale.  The *analytic* trace keeps the
        logical schedule (``packing.rotation_steps_needed()``) unchanged.
        """
        pk = self.packing
        keys: set[tuple[int, int]] = set()
        if pk.replicated and pk.copies > 1:
            keys |= _fold_keys(pk.replication_steps(), pk.slot_count, level)
        for phase in pk.rotation_phases():
            keys |= _fold_keys(phase.steps, pk.slot_count, level - 1)
        merge_level = level - self.levels_consumed
        keys.update((s, merge_level) for s in pk.merge_rotation_steps())
        return sorted(keys)

    def _rotate_sum(self, evaluator: Evaluator, ct: Ciphertext) -> Ciphertext:
        for phase in self.packing.rotation_phases():
            ct = evaluator.rotate_fold(ct, phase.steps)
        return ct

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        pk = self.packing
        if len(cts) != pk.input_layout.num_cts:
            raise ValueError(
                f"expected {pk.input_layout.num_cts} ciphertexts, got {len(cts)}"
            )
        inputs = list(cts)
        if pk.replicated and pk.copies > 1:
            base = evaluator.rotate_fold(inputs[0], pk.replication_steps())
            inputs = [base]

        chunk_results: list[Ciphertext] = []
        for chunk in range(pk.num_chunks):
            partial: Ciphertext | None = None
            for g, ct in enumerate(inputs):
                term = evaluator.multiply_values_rescale(
                    ct,
                    lambda c=chunk, g=g: pk.weight_vector(c, g, self.weights),
                    cache_key=(self._cache_token, "w", chunk, g),
                )
                partial = term if partial is None else evaluator.add(partial, term)
            reduced = self._rotate_sum(evaluator, partial)
            if pk.needs_mask:
                # Isolate this chunk's output slots so merging cannot
                # pollute other chunks' results (see DensePacking.needs_mask).
                reduced = evaluator.multiply_values_rescale(
                    reduced,
                    lambda c=chunk: pk.mask_vector(c),
                    cache_key=(self._cache_token, "m", chunk),
                )
            chunk_results.append(reduced)

        if not pk.merge_output:
            outputs = []
            for chunk, result in enumerate(chunk_results):
                bias_pt = evaluator.encode_cached(
                    lambda c=chunk: pk.chunk_bias_vector(c, self.bias),
                    level=result.level,
                    scale=result.scale,
                    cache_key=(self._cache_token, "b", chunk),
                )
                outputs.append(evaluator.add_plain(result, bias_pt))
            return outputs

        if pk.replicated:
            merged = chunk_results[0]
            for other in chunk_results[1:]:
                merged = evaluator.add(merged, other)
        else:
            # Shift-by-one accumulator: row r ends up at slot r.
            merged = chunk_results[-1]
            for result in reversed(chunk_results[:-1]):
                merged = evaluator.rotate(merged, pk.slot_count - 1)
                merged = evaluator.add(merged, result)

        bias_pt = evaluator.encode_cached(
            lambda: pk.bias_vector(self.bias),
            level=merged.level,
            scale=merged.scale,
            cache_key=(self._cache_token, "b"),
        )
        return [evaluator.add_plain(merged, bias_pt)]

    def propagate_noise(
        self, est: NoiseEstimator, bound: NoiseBound
    ) -> NoiseBound:
        pk = self.packing
        w_bound = max(float(np.max(np.abs(self.weights))), 1e-12)
        if pk.replicated and pk.copies > 1:
            for _ in pk.replication_steps():
                bound = est.add(bound, est.rotate(bound))
        term = est.multiply_values_rescale(bound, w_bound)
        g = 1 if pk.replicated else pk.input_layout.num_cts
        partial = term
        for _ in range(g - 1):
            partial = est.add(partial, term)
        for phase in pk.rotation_phases():
            for _ in phase.steps:
                partial = est.add(partial, est.rotate(partial))
        if pk.needs_mask:
            partial = est.multiply_values_rescale(partial, 1.0)
        if pk.merge_output and pk.num_chunks > 1:
            # Every chunk carries the same worst-case bound; merging adds
            # them (merge rotations only add key-switch noise).
            merged = partial
            for _ in range(pk.num_chunks - 1):
                other = partial if pk.replicated else est.rotate(partial)
                merged = est.add(merged, other)
            partial = merged
        return est.add_plain(partial, float(np.max(np.abs(self.bias))))

    def trace(self, level: int) -> LayerTrace:
        pk = self.packing
        g = 1 if pk.replicated else pk.input_layout.num_cts
        repl_steps = pk.replication_steps()
        rot_per_chunk = sum(len(ph.steps) for ph in pk.rotation_phases())
        merge_rot = len(pk.merge_rotation_steps())
        chunks = pk.num_chunks
        mask_ops = chunks if pk.needs_mask else 0
        merge_adds = chunks - 1 if pk.merge_output else 0
        counts = {
            HeOp.PC_MULT: chunks * g + mask_ops,
            HeOp.RESCALE: chunks * g + mask_ops,
            HeOp.KEY_SWITCH: len(repl_steps) + chunks * rot_per_chunk + merge_rot,
            HeOp.CC_ADD: (
                len(repl_steps)
                + chunks * (g - 1)
                + chunks * rot_per_chunk
                + merge_adds
            ),
            HeOp.PC_ADD: 1 if pk.merge_output else chunks,
        }
        return LayerTrace(
            name=self.name,
            kind="KS",
            op_counts=counts,
            nks_units=chunks * g + mask_ops,
            ks_units=counts[HeOp.KEY_SWITCH],
            level=level,
            num_input_cts=pk.input_layout.num_cts,
            num_output_cts=1 if pk.merge_output else chunks,
            rotation_steps=tuple(pk.rotation_steps_needed()),
            macs=pk.spec.macs,
            plaintext_count=chunks * g + mask_ops + 1,
        )


class PackedDiagonalDense(_MatrixLayer):
    """Fully connected layer by generalized diagonals (a **KS** layer).

    Baby-step rotations of the input (one hoisted decomposition), per giant
    step ``n1`` PCmults by pre-rotated diagonals summed
    (:meth:`~repro.fhe.ops.Evaluator.multiply_plain_sum`) before one
    Rescale and one giant rotation, a fold adding the ``S / m`` copies of
    each row, and a bias PCadd.  See
    :class:`~repro.hecnn.packing.DiagonalPacking`.
    """

    packing: DiagonalPacking

    def rotation_keys(self, level: int) -> list[tuple[int, int]]:
        """Baby steps at the entry level; giant steps and the fold after
        the Rescale, one level lower."""
        pk = self.packing
        keys = {(s, level) for s in pk.baby_steps() if s}
        keys.update((s, level - 1) for s in pk.giant_steps() if s)
        keys |= _fold_keys(pk.fold_steps(), pk.slot_count, level - 1)
        return sorted(keys)

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        if len(cts) != 1:
            raise ValueError(f"expected 1 ciphertext, got {len(cts)}")
        pk = self.packing
        babies = evaluator.rotate_hoisted(cts[0], pk.baby_steps())
        # Encoded at the prime the Rescale divides out, so each giant
        # step's sum returns to the input scale.
        q_last = float(cts[0].basis.primes[-1])
        total: Ciphertext | None = None
        for g, giant in enumerate(pk.giant_steps()):
            pts = [
                evaluator.encode_cached(
                    lambda g=g, b=b: pk.weight_vector(g, b, self.weights),
                    level=baby.level,
                    scale=q_last,
                    cache_key=(self._cache_token, "w", g, b),
                )
                for b, baby in enumerate(babies)
            ]
            partial = evaluator.multiply_plain_sum(babies, pts)
            partial = evaluator.rotate(evaluator.rescale(partial), giant)
            total = partial if total is None else evaluator.add(total, partial)
        total = evaluator.rotate_fold(total, pk.fold_steps())
        bias_pt = evaluator.encode_cached(
            lambda: pk.bias_vector(self.bias),
            level=total.level,
            scale=total.scale,
            cache_key=(self._cache_token, "b"),
        )
        return [evaluator.add_plain(total, bias_pt)]

    def propagate_noise(
        self, est: NoiseEstimator, bound: NoiseBound
    ) -> NoiseBound:
        pk = self.packing
        w_bound = max(float(np.max(np.abs(self.weights))), 1e-12)
        partial = est.multiply_plain(bound, w_bound)
        rotated = est.multiply_plain(est.rotate(bound), w_bound)
        for _ in range(pk.baby - 1):
            partial = est.add(partial, rotated)
        partial = est.rescale(partial)
        total = partial
        for _ in range(pk.giant - 1):
            total = est.add(total, est.rotate(partial))
        for _ in pk.fold_steps():
            total = est.add(total, est.rotate(total))
        return est.add_plain(total, float(np.max(np.abs(self.bias))))

    def trace(self, level: int) -> LayerTrace:
        pk = self.packing
        products = pk.baby * pk.giant
        folds = len(pk.fold_steps())
        rotations = (pk.baby - 1) + (pk.giant - 1) + folds
        counts = {
            HeOp.PC_MULT: products,
            HeOp.RESCALE: pk.giant,
            HeOp.KEY_SWITCH: rotations,
            HeOp.CC_ADD: pk.giant * (pk.baby - 1) + (pk.giant - 1) + folds,
            HeOp.PC_ADD: 1,
        }
        return LayerTrace(
            name=self.name,
            kind="KS",
            op_counts=counts,
            nks_units=products,
            ks_units=rotations,
            level=level,
            num_input_cts=1,
            num_output_cts=1,
            rotation_steps=tuple(pk.rotation_steps_needed()),
            macs=pk.spec.macs,
            plaintext_count=products + 1,
        )


@dataclass
class PackedAveragePool(PackedLayer):
    """Non-overlapping k x k average pooling (a **KS** layer).

    Uses the separable reduction: ``k - 1`` horizontal rotate-adds of the
    input followed by ``k - 1`` vertical ones (``2(k-1)`` rotations instead
    of ``k^2 - 1``), leaving each window's sum at its anchor slot; a mask
    PCmult then keeps the anchors, folds in the ``1/k^2`` mean factor, and
    zeroes the residue (consuming one level, like the dense merge mask).

    The input must be in the conv-style map-major layout: value
    ``m * P + p`` at slot ``m_local * P + p`` of its group ciphertext.
    """

    name: str
    spec: PoolSpec
    input_layout: SlotLayout
    _cache_token: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expected = self.spec.channels * self.spec.in_positions
        if self.input_layout.value_count != expected:
            raise ValueError(
                f"layout carries {self.input_layout.value_count} values, "
                f"pool expects {expected}"
            )
        self._cache_token = next(_cache_tokens)

    @property
    def levels_consumed(self) -> int:
        return 1

    def _maps_per_ct(self) -> int:
        return -(-self.spec.channels // self.input_layout.num_cts)

    def rotation_steps(self) -> list[int]:
        k, s = self.spec.k, self.spec.in_size
        horizontal = list(range(1, k))
        vertical = [dy * s for dy in range(1, k)]
        return sorted(set(horizontal + vertical))

    def rotation_keys(self, level: int) -> list[tuple[int, int]]:
        """Both window passes rotate at the entry level."""
        return [(s, level) for s in self.rotation_steps()]

    def _anchor_slots(self, ct: int) -> np.ndarray:
        """Slots holding window anchors within one input ciphertext."""
        s = self.spec
        mpg = self._maps_per_ct()
        anchors = []
        for m_local in range(mpg):
            m = ct * mpg + m_local
            if m >= s.channels:
                break
            base = m_local * s.in_positions
            for oy in range(s.out_size):
                for ox in range(s.out_size):
                    anchors.append(base + s.k * oy * s.in_size + s.k * ox)
        return np.array(anchors, dtype=np.int64)

    def mask_vector(self, ct: int) -> np.ndarray:
        vec = np.zeros(self.input_layout.slot_count)
        vec[self._anchor_slots(ct)] = 1.0 / (self.spec.k ** 2)
        return vec

    @property
    def output_layout(self) -> SlotLayout:
        s = self.spec
        mpg = self._maps_per_ct()
        values = np.arange(s.output_count)
        m, op = np.divmod(values, s.out_positions)
        oy, ox = np.divmod(op, s.out_size)
        ct = m // mpg
        slot = (m % mpg) * s.in_positions + s.k * oy * s.in_size + s.k * ox
        return SlotLayout(
            slot_count=self.input_layout.slot_count,
            num_cts=self.input_layout.num_cts,
            ct_index=ct.astype(np.int64),
            slot_index=slot.astype(np.int64),
            clean=True,
        )

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        if len(cts) != self.input_layout.num_cts:
            raise ValueError(
                f"expected {self.input_layout.num_cts} ciphertexts"
            )
        k, s = self.spec.k, self.spec.in_size
        outputs = []
        for i, ct in enumerate(cts):
            # Horizontal window sums: accumulate rotations of the original.
            acc = ct
            for dx in range(1, k):
                acc = evaluator.add(acc, evaluator.rotate(ct, dx))
            # Vertical window sums over the horizontal partials.
            rows = acc
            for dy in range(1, k):
                rows = evaluator.add(rows, evaluator.rotate(acc, dy * s))
            outputs.append(
                evaluator.multiply_values_rescale(
                    rows,
                    lambda i=i: self.mask_vector(i),
                    cache_key=(self._cache_token, "m", i),
                )
            )
        return outputs

    def propagate_noise(
        self, est: NoiseEstimator, bound: NoiseBound
    ) -> NoiseBound:
        k = self.spec.k
        acc = bound
        for _ in range(2 * (k - 1)):
            acc = est.add(acc, est.rotate(acc))
        return est.multiply_values_rescale(acc, 1.0 / (k * k))

    def trace(self, level: int) -> LayerTrace:
        k = self.spec.k
        n = self.input_layout.num_cts
        rot_per_ct = 2 * (k - 1)
        counts = {
            HeOp.KEY_SWITCH: n * rot_per_ct,
            HeOp.CC_ADD: n * rot_per_ct,
            HeOp.PC_MULT: n,
            HeOp.RESCALE: n,
        }
        return LayerTrace(
            name=self.name,
            kind="KS",
            op_counts=counts,
            nks_units=n,
            ks_units=n * rot_per_ct,
            level=level,
            num_input_cts=n,
            num_output_cts=n,
            rotation_steps=tuple(self.rotation_steps()),
            macs=self.spec.output_count * k * k,
            plaintext_count=n,
        )
