"""LoLa-style ciphertext packing for HE-CNN layers.

The paper adopts LoLa's [5] input/weight packing (Sec. VII-A), in which the
CNN's data layout inside ciphertext slots is reorganized so that:

* a convolution becomes a single loop of ``PCmult -> Rescale -> CCadd`` over
  *kernel offsets* (paper Listing 1) — an **NKS** layer;
* a fully connected layer becomes ``PCmult`` with stacked matrix rows
  followed by a rotate-and-sum reduction (``Rotate`` + ``CCadd``
  iterations) — a **KS** layer (paper Sec. V-A, Fig. 3).

This module defines the slot-layout bookkeeping and the client/server-side
packing math; the layers in :mod:`repro.hecnn.layers` consume it both for
functional encrypted execution and for analytic operation-trace extraction.

Packing scheme details
----------------------

**Convolution.**  For a conv with ``K`` kernel offsets (channel x ky x kx),
``P`` output positions and ``M`` output maps, the client sends ``K``
ciphertexts; ciphertext ``k`` holds, at slot ``m_local * P + p``, the input
pixel that kernel offset ``k`` touches when computing output position ``p``
(replicated across the per-map blocks ``m_local``).  The server multiplies
each by a weight plaintext carrying ``w[m][k]`` across map block ``m`` and
accumulates.  When ``M * P`` exceeds the slot count, output maps are split
into groups, one output ciphertext per group — the input ciphertexts are
shared by all groups.

**Dense.**  Inputs of width ``W`` occupying slots ``[0, W)`` are replicated
into ``C = slots // B`` blocks of width ``B = next_pow2(W)``.  Rows are
processed ``C`` at a time ("chunks"); chunk ``j``'s weight plaintext uses a
wrap-around diagonal placement so that after a sliding rotate-and-sum of
``log2(B)`` rotations, the dot product of row ``j*C + b`` lands exactly at
slot ``b*B + j`` — chunks then merge with plain ``CCadd`` and **no** extra
rotations.  For scattered inputs (the output of a previous dense layer) the
reduction uses a two-phase schedule (intra-block window then inter-block
strides), and per-row results merge through a shift-by-one accumulator that
needs only a single rotation key.

**Dense, diagonal.**  Where the replicated plan degenerates to one copy
and many one-row chunks (``C = 1``), :class:`DiagonalPacking` multiplies
by the matrix's generalized diagonals instead, with baby-step/giant-step
rotations and a final fold; its output repeats every ``m`` slots, which a
following replicated dense layer uses as its copies (``SlotLayout.period``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .reference import ConvSpec, DenseSpec


def next_pow2(x: int) -> int:
    """Smallest power of two >= x (x >= 1)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return 1 << (x - 1).bit_length()


@dataclass(frozen=True)
class SlotLayout:
    """Where each logical value of a layer boundary lives.

    Attributes
    ----------
    slot_count:
        Slots per ciphertext.
    num_cts:
        Number of ciphertexts the values span.
    ct_index / slot_index:
        Parallel arrays mapping value ``v`` to ``(ct, slot)``.
    clean:
        True if every slot *not* listed (nor a periodic copy of a listed
        one) is exactly zero — required before a dense layer may
        replicate the input into multiple blocks.
    block_stride / offset_span:
        Structural metadata set by dense outputs: values sit at slots
        ``b * block_stride + j`` with ``j < offset_span``.  Enables the
        reduced two-phase rotation schedule downstream.
    period:
        Set by diagonal dense outputs: every slot ``s`` holds the same
        value as ``s + period`` (cyclically), so the listed slots, all
        below ``period``, have copies at every ``s + t * period``.
    """

    slot_count: int
    num_cts: int
    ct_index: np.ndarray
    slot_index: np.ndarray
    clean: bool
    block_stride: int | None = None
    offset_span: int | None = None
    period: int | None = None

    def __post_init__(self) -> None:
        if self.ct_index.shape != self.slot_index.shape:
            raise ValueError("ct_index and slot_index must align")
        if len(self.ct_index) and int(self.ct_index.max()) >= self.num_cts:
            raise ValueError("ct_index out of range")
        limit = self.slot_count if self.period is None else self.period
        if self.slot_count % limit:
            raise ValueError("period must divide the slot count")
        if len(self.slot_index) and int(self.slot_index.max()) >= limit:
            raise ValueError("slot_index out of range")

    @property
    def value_count(self) -> int:
        return len(self.ct_index)

    @classmethod
    def contiguous(cls, slot_count: int, width: int, clean: bool = True) -> "SlotLayout":
        """Values ``0..width-1`` at slots ``0..width-1`` of one ciphertext."""
        if width > slot_count:
            raise ValueError("width exceeds slot count")
        return cls(
            slot_count=slot_count,
            num_cts=1,
            ct_index=np.zeros(width, dtype=np.int64),
            slot_index=np.arange(width, dtype=np.int64),
            clean=clean,
        )

    def gather(self, flat_values: np.ndarray) -> list[np.ndarray]:
        """Scatter a flat value vector into per-ciphertext slot vectors.

        Test/diagnostic helper: produces the slot contents a noiseless
        execution would yield at this boundary.
        """
        if len(flat_values) != self.value_count:
            raise ValueError("value count mismatch")
        out = [np.zeros(self.slot_count) for _ in range(self.num_cts)]
        copies = np.arange(0, self.slot_count, self.period or self.slot_count)
        for v, (c, s) in enumerate(zip(self.ct_index, self.slot_index)):
            out[c][s + copies] = flat_values[v]
        return out

    def extract(self, slot_vectors: list[np.ndarray]) -> np.ndarray:
        """Read the layout's values back out of per-ciphertext slot vectors."""
        return np.array(
            [slot_vectors[c][s] for c, s in zip(self.ct_index, self.slot_index)]
        )


# ---------------------------------------------------------------------------
# Convolution packing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvPacking:
    """Server/client-agreed packing plan for one convolution layer."""

    spec: ConvSpec
    slot_count: int
    maps_per_group: int = field(init=False)
    num_groups: int = field(init=False)

    def __post_init__(self) -> None:
        p = self.spec.out_positions
        if p > self.slot_count:
            raise ValueError(
                f"{p} output positions do not fit in {self.slot_count} slots"
            )
        mpg = min(self.spec.out_channels, self.slot_count // p)
        object.__setattr__(self, "maps_per_group", mpg)
        object.__setattr__(
            self, "num_groups", -(-self.spec.out_channels // mpg)
        )

    # -- client side -------------------------------------------------------------

    def gather_offsets(self, image: np.ndarray) -> list[np.ndarray]:
        """Build the ``K`` per-offset slot vectors the client encrypts.

        Vector ``k`` holds, at slot ``m_local * P + p``, the padded input
        pixel at channel/dy/dx offset ``k`` of output window ``p``.
        """
        s = self.spec
        padded = np.pad(image, ((0, 0), (s.padding, s.padding), (s.padding, s.padding)))
        p_count = s.out_positions
        vectors: list[np.ndarray] = []
        oy, ox = np.divmod(np.arange(p_count), s.out_size)
        base_y = oy * s.stride
        base_x = ox * s.stride
        for c in range(s.in_channels):
            for ky in range(s.kernel_size):
                for kx in range(s.kernel_size):
                    window_vals = padded[c, base_y + ky, base_x + kx]
                    vec = np.zeros(self.slot_count)
                    for m_local in range(self.maps_per_group):
                        vec[m_local * p_count : m_local * p_count + p_count] = (
                            window_vals
                        )
                    vectors.append(vec)
        return vectors

    # -- server side -------------------------------------------------------------

    def weight_vector(self, group: int, offset: int, weights: np.ndarray) -> np.ndarray:
        """Weight plaintext slots for one (group, kernel offset) PCmult."""
        s = self.spec
        c, rem = divmod(offset, s.kernel_size * s.kernel_size)
        ky, kx = divmod(rem, s.kernel_size)
        vec = np.zeros(self.slot_count)
        p_count = s.out_positions
        for m_local in range(self.maps_per_group):
            m = group * self.maps_per_group + m_local
            if m >= s.out_channels:
                break
            vec[m_local * p_count : (m_local + 1) * p_count] = weights[m, c, ky, kx]
        return vec

    def bias_vector(self, group: int, bias: np.ndarray) -> np.ndarray:
        """Bias plaintext slots for one group's final PCadd."""
        s = self.spec
        vec = np.zeros(self.slot_count)
        p_count = s.out_positions
        for m_local in range(self.maps_per_group):
            m = group * self.maps_per_group + m_local
            if m >= s.out_channels:
                break
            vec[m_local * p_count : (m_local + 1) * p_count] = bias[m]
        return vec

    def output_layout(self) -> SlotLayout:
        """Layout of the conv output: value ``m * P + p`` at group ``m //
        mpg``, slot ``(m % mpg) * P + p``."""
        s = self.spec
        p_count = s.out_positions
        values = np.arange(s.output_count)
        m, p = np.divmod(values, p_count)
        ct = m // self.maps_per_group
        slot = (m % self.maps_per_group) * p_count + p
        return SlotLayout(
            slot_count=self.slot_count,
            num_cts=self.num_groups,
            ct_index=ct.astype(np.int64),
            slot_index=slot.astype(np.int64),
            clean=True,
        )


# ---------------------------------------------------------------------------
# Dense packing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationPhase:
    """One phase of a rotate-and-sum reduction: steps are applied in order,
    each followed by a (pipeline-fused) CCadd."""

    steps: tuple[int, ...]


@dataclass(frozen=True)
class DensePacking:
    """Packing plan for one fully connected (KS-type) layer.

    Two regimes, chosen from the input layout:

    * **replicated** (clean contiguous input): ``C`` copies, wrap-around
      diagonal weights, outputs at ``b * B + j``;
    * **scattered** (previous dense output): one chunk per row, two-phase
      reduction, outputs merged via a shift-by-one accumulator.
    """

    spec: DenseSpec
    input_layout: SlotLayout
    #: When False (the network's final layer), chunk results are returned as
    #: separate ciphertexts instead of being masked and merged — saving the
    #: mask level and the merge rotations, exactly like LoLa's output layer.
    merge_output: bool = True
    slot_count: int = field(init=False)
    replicated: bool = field(init=False)
    block_width: int = field(init=False)
    copies: int = field(init=False)
    num_chunks: int = field(init=False)

    def __post_init__(self) -> None:
        lay = self.input_layout
        if lay.value_count != self.spec.in_features:
            raise ValueError(
                f"layout carries {lay.value_count} values, layer expects "
                f"{self.spec.in_features}"
            )
        object.__setattr__(self, "slot_count", lay.slot_count)
        replicated = (
            lay.clean
            and lay.num_cts == 1
            and bool(np.all(lay.ct_index == 0))
            and bool(np.array_equal(lay.slot_index, np.arange(lay.value_count)))
        )
        object.__setattr__(self, "replicated", replicated)
        if replicated:
            b = next_pow2(self.spec.in_features)
            c = max(1, lay.slot_count // b)
            chunks = -(-self.spec.out_features // c)
            if chunks > b:
                # The diagonal shift j must stay below the block width.
                raise ValueError("too many rows for the replicated packing")
        else:
            b = lay.slot_count
            c = 1
            chunks = self.spec.out_features
        object.__setattr__(self, "block_width", b)
        object.__setattr__(self, "copies", c)
        object.__setattr__(self, "num_chunks", chunks)

    # -- replication -------------------------------------------------------------

    def replication_steps(self) -> list[int]:
        """Left-rotation steps that replicate block 0 into all ``C`` blocks.

        Each step doubles the number of copies (rotate right by
        ``B * 2^t`` == rotate left by ``S - B * 2^t``, then CCadd).  An
        input whose layout has a ``period`` already holds a copy every
        ``period`` slots, so the doubling stops there: summing those
        copies again would scale the input instead of replicating it.
        """
        if not self.replicated or self.copies == 1:
            return []
        steps = []
        width = self.block_width
        span = self.input_layout.period or self.block_width * self.copies
        while width * 2 <= span:
            steps.append(self.slot_count - width)
            width *= 2
        return steps

    # -- weight plaintexts ----------------------------------------------------------

    def weight_vector(
        self, chunk: int, input_ct: int, weights: np.ndarray
    ) -> np.ndarray:
        """Weight plaintext slots for one (chunk, input ciphertext) PCmult.

        Replicated regime: wrap-around diagonal placement (see module
        docstring).  Scattered regime: row ``chunk``'s weights at the input
        layout's positions within ``input_ct``.
        """
        vec = np.zeros(self.slot_count)
        lay = self.input_layout
        if self.replicated:
            c, j = self.copies, chunk
            b = np.arange(c)[:, None]
            u = np.arange(self.spec.in_features)
            # Slots below the diagonal shift serve the previous block's
            # row (the rotate-and-sum window wraps there).
            row = j * c + np.where(u >= j, b, (b - 1) % c)
            keep = row < self.spec.out_features
            col = np.broadcast_to(u, row.shape)
            vec[(b * self.block_width + u)[keep]] = weights[row[keep], col[keep]]
            return vec
        row = chunk
        mask = lay.ct_index == input_ct
        vec[lay.slot_index[mask]] = weights[row, np.nonzero(mask)[0]]
        return vec

    def bias_vector(self, bias: np.ndarray) -> np.ndarray:
        """Bias plaintext matching the merged output layout (single PCadd)."""
        if not self.merge_output:
            raise ValueError("unmerged packing: use chunk_bias_vector")
        vec = np.zeros(self.slot_count)
        out = self.output_layout()
        vec[out.slot_index] = bias
        return vec

    def chunk_bias_vector(self, chunk: int, bias: np.ndarray) -> np.ndarray:
        """Bias plaintext for one chunk's (unmerged) output ciphertext."""
        vec = np.zeros(self.slot_count)
        if self.replicated:
            for b in range(self.copies):
                row = chunk * self.copies + b
                if row < self.spec.out_features:
                    vec[b * self.block_width + chunk] = bias[row]
        else:
            vec[0] = bias[chunk]
        return vec

    # -- reductions ------------------------------------------------------------------

    def rotation_phases(self) -> list[RotationPhase]:
        """The rotate-and-sum schedule applied after each chunk's PCmult."""
        if self.replicated:
            steps = []
            step = self.block_width // 2
            while step >= 1:
                steps.append(step)
                step //= 2
            return [RotationPhase(tuple(steps))]
        lay = self.input_layout
        if lay.block_stride is not None and lay.offset_span is not None:
            # Two-phase: a window covering the offsets within a block, then
            # strides across the blocks.
            window = next_pow2(lay.offset_span)
            phase1 = []
            step = window // 2
            while step >= 1:
                phase1.append(step)
                step //= 2
            blocks = self.slot_count // lay.block_stride
            phase2 = [lay.block_stride * (1 << t) for t in range(max(0, blocks.bit_length() - 1))]
            return [RotationPhase(tuple(phase1)), RotationPhase(tuple(phase2))]
        # Fallback: full-width reduction.
        steps = []
        step = self.slot_count // 2
        while step >= 1:
            steps.append(step)
            step //= 2
        return [RotationPhase(tuple(steps))]

    @property
    def needs_mask(self) -> bool:
        """Whether chunk results must be masked before merging.

        The sliding rotate-and-sum fills *every* slot, so adding two chunk
        results would pollute each other's output slots.  With more than
        one chunk, each result is therefore multiplied by a 0/1 mask
        plaintext (one extra PCmult + Rescale per chunk, consuming one
        additional ciphertext level for the layer).  This is exactly the
        slack the paper's parameter choice provides: L = 7 supports the
        5 multiplications of the network plus the dense-layer re-packing.
        """
        return self.merge_output and self.num_chunks > 1

    def mask_vector(self, chunk: int) -> np.ndarray:
        """The 0/1 plaintext isolating one chunk's output slots."""
        vec = np.zeros(self.slot_count)
        if self.replicated:
            for b in range(self.copies):
                row = chunk * self.copies + b
                if row < self.spec.out_features:
                    vec[b * self.block_width + chunk] = 1.0
        else:
            vec[0] = 1.0  # scattered chunks reduce into slot 0
        return vec

    def merge_rotation_steps(self) -> list[int]:
        """Rotations needed to merge chunk results into one ciphertext.

        Replicated regime: none (the diagonal trick places outputs
        directly).  Scattered regime: ``chunks - 1`` shift-by-one rotations
        of the accumulator (all the same step — one rotation key).
        Unmerged output layers need none."""
        if self.replicated or not self.merge_output:
            return []
        return [self.slot_count - 1] * (self.num_chunks - 1)

    def output_layout(self) -> SlotLayout:
        """Layout of the merged dense output.

        Masked merges leave every non-output slot exactly zero (clean);
        a single unmasked chunk leaves sliding-sum residue elsewhere.
        Unmerged (output-layer) packings spread chunk results over separate
        ciphertexts.
        """
        rows = np.arange(self.spec.out_features)
        if not self.merge_output:
            if self.replicated:
                j, b = np.divmod(rows, self.copies)
                return SlotLayout(
                    slot_count=self.slot_count,
                    num_cts=self.num_chunks,
                    ct_index=j.astype(np.int64),
                    slot_index=(b * self.block_width + j).astype(np.int64),
                    clean=False,
                )
            # Scattered: row r reduces into slot 0 of its own ciphertext.
            return SlotLayout(
                slot_count=self.slot_count,
                num_cts=self.num_chunks,
                ct_index=rows.astype(np.int64),
                slot_index=np.zeros_like(rows),
                clean=False,
            )
        if self.replicated:
            j, b = np.divmod(rows, self.copies)
            slot = b * self.block_width + j
            return SlotLayout(
                slot_count=self.slot_count,
                num_cts=1,
                ct_index=np.zeros_like(rows),
                slot_index=slot.astype(np.int64),
                clean=self.needs_mask,
                block_stride=self.block_width,
                offset_span=self.num_chunks,
            )
        # Scattered regime: accumulator merging leaves row r at slot r.
        return SlotLayout(
            slot_count=self.slot_count,
            num_cts=1,
            ct_index=np.zeros_like(rows),
            slot_index=rows.astype(np.int64),
            clean=self.needs_mask,
            block_stride=self.slot_count,
            offset_span=self.spec.out_features,
        )


@dataclass(frozen=True)
class DiagonalPacking:
    """Packing plan for a dense layer by generalized diagonals: the hybrid
    Halevi-Shoup method with baby-step/giant-step rotations.

    The ``out x in`` weights are zero-padded to ``m x S`` (``m`` the next
    power of two of ``out``, ``S`` the slot count).  Diagonal ``k`` holds
    ``W[i mod m][(i + k) mod S]`` at slot ``i``, so
    ``sum_k diag_k * rot(x, k)`` over ``k < m`` leaves at slot ``i`` the
    partial dot product of row ``i mod m`` with the columns ``i + k``.
    Folding by ``S/2, ..., m`` adds the ``S/m`` slots of each residue class
    mod ``m``, whose columns together cover all of ``0..S-1`` once: row
    ``r``'s full dot product lands at every slot ``r + t * m``.  No mask is
    needed, so the layer consumes one level.

    With ``k = g * n1 + b`` (``n1`` baby steps, ``n2 = m / n1`` giant
    steps), ``rot(diag_k, -g * n1)`` is encoded in place of ``diag_k`` so
    the ``n1`` baby rotations of the input are shared by every giant step,
    which rotates its partial sum once.
    """

    spec: DenseSpec
    input_layout: SlotLayout
    slot_count: int = field(init=False)
    rows: int = field(init=False)
    baby: int = field(init=False)
    giant: int = field(init=False)

    def __post_init__(self) -> None:
        lay = self.input_layout
        if lay.value_count != self.spec.in_features:
            raise ValueError(
                f"layout carries {lay.value_count} values, layer expects "
                f"{self.spec.in_features}"
            )
        if lay.num_cts != 1 or not np.array_equal(
            lay.slot_index, np.arange(lay.value_count)
        ):
            raise ValueError("diagonal packing needs values at slots 0..in-1")
        m = next_pow2(self.spec.out_features)
        if m > lay.slot_count:
            raise ValueError("more rows than slots")
        baby = 1 << (m.bit_length() // 2)  # ceil(log2(m) / 2) doublings
        object.__setattr__(self, "slot_count", lay.slot_count)
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "baby", baby)
        object.__setattr__(self, "giant", m // baby)

    def baby_steps(self) -> list[int]:
        """Rotations of the input shared by every giant step (0 first)."""
        return list(range(self.baby))

    def giant_steps(self) -> list[int]:
        """Rotation of each giant step's partial sum (0 first)."""
        return [g * self.baby for g in range(self.giant)]

    def fold_steps(self) -> list[int]:
        """Rotate-and-sum steps adding the ``S / m`` copies of each row."""
        steps = []
        step = self.slot_count // 2
        while step >= self.rows:
            steps.append(step)
            step //= 2
        return steps

    def weight_vector(
        self, giant: int, baby: int, weights: np.ndarray
    ) -> np.ndarray:
        """Diagonal ``giant * n1 + baby``, pre-rotated right by the giant
        step (``weights`` is ``out x in``)."""
        s = self.slot_count
        i = np.arange(s)
        row, col = i % self.rows, (i + giant * self.baby + baby) % s
        inside = (row < weights.shape[0]) & (col < weights.shape[1])
        diagonal = np.zeros(s)
        diagonal[inside] = weights[row[inside], col[inside]]
        return np.roll(diagonal, giant * self.baby)

    def bias_vector(self, bias: np.ndarray) -> np.ndarray:
        """Bias at every copy ``r + t * m`` of each row ``r``."""
        block = np.zeros(self.rows)
        block[: len(bias)] = bias
        return np.tile(block, self.slot_count // self.rows)

    def output_layout(self) -> SlotLayout:
        """Row ``r`` at slot ``r``, repeated every ``m`` slots; the padded
        rows' slots are exactly zero."""
        rows = np.arange(self.spec.out_features)
        return SlotLayout(
            slot_count=self.slot_count,
            num_cts=1,
            ct_index=np.zeros_like(rows),
            slot_index=rows.astype(np.int64),
            clean=True,
            period=self.rows,
        )
