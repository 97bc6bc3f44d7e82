"""Packed HE-CNN layers: one op schedule, both executed and priced.

Each layer states its computation once, as :meth:`PackedLayer.forward`
over an :class:`~repro.fhe.ops.Evaluator`.  On real ciphertexts that is
the functional ground truth; on a :class:`~repro.fhe.dryrun
.DryRunEvaluator` it is a dry run, from which the base class derives the
trace (HE-operation and work-unit counts, rotation steps, plaintexts: the
input to the FPGA model and DSE), the Galois and relinearization keys,
the levels consumed and, given a :class:`~repro.fhe.noise.NoiseEstimator`,
the per-op analytic noise bound.  The test suite checks the dry run
against an :class:`~repro.fhe.ops.OperationRecorder` and the Galois-key
fetch log of a real :meth:`~PackedLayer.forward`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..fhe.ciphertext import Ciphertext
from ..fhe.dryrun import DryCiphertext, DryRunEvaluator, dry_inputs
from ..fhe.noise import NoiseBound, NoiseEstimator
from ..fhe.ops import Evaluator
from ..optypes import HeOp
from .packing import ConvPacking, DensePacking, DiagonalPacking, SlotLayout
from .reference import PoolSpec
from .trace import LayerTrace

#: Monotone ids distinguishing layer instances in the context-level
#: plaintext cache (:meth:`~repro.fhe.ops.Evaluator.encode_cached`), so
#: weight plaintexts survive across the fresh Evaluator each inference uses.
_cache_tokens = itertools.count()


@dataclass(frozen=True)
class LayerRun:
    """What one dry run of a layer's :meth:`~PackedLayer.forward` did."""

    trace: LayerTrace
    #: ``(step, level)`` Galois keys fetched, hoisted-fold composites included.
    keys: frozenset[tuple[int, int]]
    #: Levels at which a relinearization key is fetched.
    relin_levels: frozenset[int]
    outputs: list[DryCiphertext]

    @property
    def levels_consumed(self) -> int:
        return self.trace.level - min(ct.level for ct in self.outputs)

    @property
    def bound(self) -> NoiseBound:
        """The loosest analytic bound over the outputs (noise mode)."""
        return max((ct.bound for ct in self.outputs), key=lambda b: b.error)


class PackedLayer:
    """Interface of a packed HE-CNN layer: :meth:`forward`,
    :attr:`output_layout` and :attr:`macs`; the rest is derived from a dry
    run of :meth:`forward`."""

    name: str
    #: Ciphertexts :meth:`forward` takes.
    num_input_cts: int = 1

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        raise NotImplementedError

    @property
    def output_layout(self) -> SlotLayout:
        raise NotImplementedError

    @property
    def macs(self) -> int:
        """Plain-CNN MAC count of the original layer (Table IV "MACs")."""
        raise NotImplementedError

    def dry_run(
        self, cts: list[DryCiphertext], estimator: NoiseEstimator | None = None
    ) -> LayerRun:
        """Run :meth:`forward` once on shape-only ciphertexts."""
        ev = DryRunEvaluator(self.output_layout.slot_count, estimator)
        outputs = self.forward(ev, cts)
        counts = {op: n for op in HeOp if (n := ev.recorder.counts.get(op))}
        ks = counts.get(HeOp.KEY_SWITCH, 0)
        trace = LayerTrace(
            name=self.name,
            kind="KS" if ks else "NKS",
            op_counts=counts,
            nks_units=counts.get(HeOp.PC_MULT, 0) + counts.get(HeOp.CC_MULT, 0),
            ks_units=ks,
            level=cts[0].level,
            num_input_cts=len(cts),
            num_output_cts=len(outputs),
            rotation_steps=tuple(sorted(ev.steps)),
            macs=self.macs,
            plaintext_count=len(ev.plaintexts),
        )
        return LayerRun(
            trace, frozenset(ev.keys), frozenset(ev.relin_levels), outputs
        )

    def _dry_run_at(self, level: int) -> LayerRun:
        return self.dry_run(dry_inputs(self.num_input_cts, level))

    def trace(self, level: int) -> LayerTrace:
        """Operation trace when entered at ciphertext ``level``."""
        return self._dry_run_at(level).trace

    def rotation_keys(self, level: int) -> list[tuple[int, int]]:
        """The ``(step, level)`` Galois keys :meth:`forward` fetches when
        entered at ``level``."""
        return sorted(self._dry_run_at(level).keys)

    @property
    def levels_consumed(self) -> int:
        """Rescales between input and output (whatever the entry level)."""
        return self._dry_run_at(0).levels_consumed


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
    def num_input_cts(self) -> int:
        return self.packing.spec.kernel_offsets

    @property
    def output_layout(self) -> SlotLayout:
        return self.packing.output_layout()

    @property
    def macs(self) -> int:
        return self.packing.spec.macs

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


@dataclass
class PackedSquare(PackedLayer):
    """Square activation: ``CCmult -> Relinearize -> Rescale`` per
    ciphertext (a **KS** layer — Relinearize is a KeySwitch)."""

    name: str
    layout: SlotLayout

    @property
    def num_input_cts(self) -> int:
        return self.layout.num_cts

    @property
    def output_layout(self) -> SlotLayout:
        return self.layout

    @property
    def macs(self) -> int:
        return self.layout.value_count  # one multiply per activation

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        return [evaluator.square_relinearize_rescale(ct) for ct in cts]


@dataclass
class _MatrixLayer(PackedLayer):
    """A fully connected layer: ``out x in`` weights and a bias over a
    packing plan that owns the output layout.  The packing reads the
    weights only as ``weights[rows, cols]``, so they may be a lowered
    conv's :class:`~repro.hecnn.models.ConvMatrix` instead of an array."""

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
    def num_input_cts(self) -> int:
        return self.packing.input_layout.num_cts

    @property
    def output_layout(self) -> SlotLayout:
        return self.packing.output_layout()

    @property
    def macs(self) -> int:
        return self.packing.spec.macs


class PackedDense(_MatrixLayer):
    """LoLa fully connected layer (a **KS** layer).

    ``PCmult`` with stacked/masked matrix rows, rotate-and-sum reduction,
    chunk merging and a bias PCadd.  See :class:`~repro.hecnn.packing
    .DensePacking` for the two packing regimes.
    """

    packing: DensePacking

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

        phases = pk.rotation_phases()
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
            for phase in phases:  # rotate-and-sum
                partial = evaluator.rotate_fold(partial, phase.steps)
            if pk.needs_mask:
                # Isolate this chunk's output slots so merging cannot
                # pollute other chunks' results (see DensePacking.needs_mask).
                partial = evaluator.multiply_values_rescale(
                    partial,
                    lambda c=chunk: pk.mask_vector(c),
                    cache_key=(self._cache_token, "m", chunk),
                )
            chunk_results.append(partial)

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
            for step, result in zip(
                pk.merge_rotation_steps(), reversed(chunk_results[:-1])
            ):
                merged = evaluator.add(evaluator.rotate(merged, step), result)

        bias_pt = evaluator.encode_cached(
            lambda: pk.bias_vector(self.bias),
            level=merged.level,
            scale=merged.scale,
            cache_key=(self._cache_token, "b"),
        )
        return [evaluator.add_plain(merged, bias_pt)]


class PackedDiagonalDense(_MatrixLayer):
    """Fully connected layer by generalized diagonals (a **KS** layer).

    One :meth:`~repro.fhe.ops.Evaluator.multiply_diagonals`: baby-step
    rotations of the input, per giant step ``n1`` PCmults by pre-rotated
    diagonals summed before one Rescale and one giant rotation.  Then a
    fold adds the ``S / m`` copies of each row, and a bias PCadd.  See
    :class:`~repro.hecnn.packing.DiagonalPacking`.
    """

    packing: DiagonalPacking

    def forward(self, evaluator: Evaluator, cts: list[Ciphertext]) -> list[Ciphertext]:
        if len(cts) != 1:
            raise ValueError(f"expected 1 ciphertext, got {len(cts)}")
        pk = self.packing
        total = evaluator.multiply_diagonals(
            cts[0], pk.baby_steps(), pk.giant_steps(),
            lambda g, b: pk.weight_vector(g, b, self.weights),
            cache_key=(self._cache_token, "w"),
        )
        total = evaluator.rotate_fold(total, pk.fold_steps())
        bias_pt = evaluator.encode_cached(
            lambda: pk.bias_vector(self.bias),
            level=total.level,
            scale=total.scale,
            cache_key=(self._cache_token, "b"),
        )
        return [evaluator.add_plain(total, bias_pt)]


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
    def num_input_cts(self) -> int:
        return self.input_layout.num_cts

    @property
    def macs(self) -> int:
        return self.spec.output_count * self.spec.k ** 2

    def _maps_per_ct(self) -> int:
        return -(-self.spec.channels // self.input_layout.num_cts)

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
