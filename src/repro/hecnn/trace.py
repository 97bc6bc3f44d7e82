"""Operation traces and workload accounting for HE-CNN layers.

A :class:`LayerTrace` is the analytic record of what a layer *will* execute:
HE-operation counts, the NKS/KS pipeline work-unit counts consumed by the
latency model (paper Eqs. 1-2), the rotation steps needed for key
provisioning, and the ciphertext level at which the layer operates.

A packed layer's trace is a dry run of its ``forward`` on shape-only
ciphertexts (:mod:`repro.fhe.dryrun`) — no ring arithmetic, no
:class:`~repro.fhe.context.CkksContext` — and is validated in the test
suite against an :class:`~repro.fhe.ops.OperationRecorder` attached to a
real encrypted run.  The slot-batched CryptoNets traces
(:mod:`repro.hecnn.batched`) are analytic.

The module also provides the HE-MAC cost model behind paper Table IV
("MACs of HOPs"): the number of basic modular operations each HE operation
expands into, counting one NTT butterfly as 3 basic ops (multiply + add +
subtract) and one elementwise lane as 1 op per coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..optypes import HeOp


@dataclass(frozen=True)
class LayerTrace:
    """Analytic operation trace of a single HE-CNN layer.

    Attributes
    ----------
    name / kind:
        Layer name and pipeline classification: ``"KS"`` if the layer
        contains KeySwitch operations, else ``"NKS"`` (paper Sec. V-A).
    op_counts:
        HE operations by type.
    nks_units:
        Number of elementwise pipeline passes (PCmult/CCmult chains) — the
        ``N_in`` of Eq. 1.
    ks_units:
        Number of KeySwitch invocations — the ``N_in`` of Eq. 2 (each
        occupies ``L`` pipeline intervals, Fig. 3).
    level:
        Ciphertext level on entry to the layer.
    num_input_cts / num_output_cts:
        Ciphertext stream widths at the layer boundary (buffer sizing).
    rotation_steps:
        Distinct non-zero logical rotation steps (key provisioning adds
        the composite steps of hoisted folds).
    macs:
        Plain-CNN MAC count of the original layer (Table IV "MACs").
    plaintext_count:
        Encoded weight/bias plaintexts the layer streams from memory.
    """

    name: str
    kind: str
    op_counts: dict[HeOp, int]
    nks_units: int
    ks_units: int
    level: int
    num_input_cts: int
    num_output_cts: int
    rotation_steps: tuple[int, ...] = ()
    macs: int = 0
    plaintext_count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("KS", "NKS"):
            raise ValueError("kind must be 'KS' or 'NKS'")
        ks_in_counts = self.op_counts.get(HeOp.KEY_SWITCH, 0)
        if (self.kind == "KS") != (ks_in_counts > 0):
            raise ValueError("kind must reflect presence of KeySwitch ops")

    @property
    def hop_count(self) -> int:
        """Total HE operations (the paper's "HOPs")."""
        return sum(self.op_counts.values())

    @property
    def keyswitch_count(self) -> int:
        """KeySwitch operations (the paper's "KS" column)."""
        return self.op_counts.get(HeOp.KEY_SWITCH, 0)

    def he_macs(self, poly_degree: int) -> int:
        """Basic modular operations this layer expands into (Table IV)."""
        return sum(
            count * he_op_basic_ops(op, poly_degree, self.level)
            for op, count in self.op_counts.items()
        )

    def ops_used(self) -> tuple[HeOp, ...]:
        """HE operation modules this layer invokes (paper Table II column)."""
        from ..optypes import module_for

        mods = {module_for(op) for op, c in self.op_counts.items() if c > 0}
        order = (HeOp.CC_ADD, HeOp.PC_MULT, HeOp.CC_MULT, HeOp.RESCALE, HeOp.KEY_SWITCH)
        return tuple(op for op in order if op in mods)


@dataclass(frozen=True)
class NetworkTrace:
    """Aggregated trace of a full HE-CNN.

    ``batch_lanes`` annotates slot-batched (CryptoNets-style) traces with
    the number of images riding the slot lanes — ``None`` for per-image
    (LoLa) packing.  The operation counts themselves are lane-invariant
    (that is the point of batching); the field only drives amortized
    per-image accounting in the serving layer.
    """

    name: str
    layers: tuple[LayerTrace, ...]
    poly_degree: int
    base_level: int
    prime_bits: int = 30
    batch_lanes: int | None = None

    def __post_init__(self) -> None:
        if self.batch_lanes is not None and not (
            1 <= self.batch_lanes <= self.poly_degree // 2
        ):
            raise ValueError(
                f"batch_lanes must be in [1, N/2] = [1, "
                f"{self.poly_degree // 2}], got {self.batch_lanes}"
            )

    @property
    def hop_count(self) -> int:
        return sum(layer.hop_count for layer in self.layers)

    @property
    def keyswitch_count(self) -> int:
        return sum(layer.keyswitch_count for layer in self.layers)

    @property
    def macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def he_macs(self) -> int:
        return sum(layer.he_macs(self.poly_degree) for layer in self.layers)

    def rotation_steps(self) -> list[int]:
        steps: set[int] = set()
        for layer in self.layers:
            steps.update(layer.rotation_steps)
        return sorted(steps)

    def model_size_bytes(self) -> int:
        """Encoded plaintext model size (Table VI "Mod.Size").

        Each weight/bias plaintext is an RNS polynomial at its layer's
        level — ``level * N`` residues stored at the native word width
        (``prime_bits`` bits each), as the accelerator streams them from
        off-chip DRAM.
        """
        bits = sum(
            layer.plaintext_count * layer.level * self.poly_degree * self.prime_bits
            for layer in self.layers
        )
        return bits // 8

    def model_wire_size_bytes(self) -> int:
        """Encoded model size in the ``repro.fhe.serialization`` wire format.

        Where :meth:`model_size_bytes` prices the accelerator's native
        DRAM stream (residues packed at ``prime_bits``), this is the exact
        byte count of shipping every weight/bias plaintext over the wire —
        the client-upload column of the Table VI accounting.
        """
        from ..fhe.serialization import plaintext_wire_size

        return sum(
            layer.plaintext_count
            * plaintext_wire_size(self.poly_degree, layer.level)
            for layer in self.layers
        )

    def boundary_wire_bytes(self, cut_after: int) -> int:
        """Exact wire bytes crossing the cut after layer ``cut_after``.

        This is what one pipeline stage ships to the next when the network
        is split across devices: the upstream layer's output ciphertexts,
        serialized at the level the downstream layer receives them.
        """
        if not 0 <= cut_after < len(self.layers) - 1:
            raise ValueError(
                f"cut_after must be in [0, {len(self.layers) - 2}], "
                f"got {cut_after}"
            )
        from ..fhe.serialization import ciphertext_wire_size

        upstream = self.layers[cut_after]
        downstream = self.layers[cut_after + 1]
        return upstream.num_output_cts * ciphertext_wire_size(
            self.poly_degree, downstream.level
        )

    def slice(self, start: int, stop: int) -> "NetworkTrace":
        """Contiguous sub-network ``layers[start:stop]`` as its own trace.

        The slice keeps the parent's CKKS geometry and gets a
        deterministic derived name (``"{name}[start:stop]"``) so design
        caches key each stage of a cluster partition distinctly; a
        full-range slice returns ``self`` unchanged, sharing the parent's
        cache entry.
        """
        if not 0 <= start < stop <= len(self.layers):
            raise ValueError(
                f"invalid slice [{start}:{stop}] of {len(self.layers)} layers"
            )
        if start == 0 and stop == len(self.layers):
            return self
        return NetworkTrace(
            name=f"{self.name}[{start}:{stop}]",
            layers=self.layers[start:stop],
            poly_degree=self.poly_degree,
            base_level=self.base_level,
            prime_bits=self.prime_bits,
            batch_lanes=self.batch_lanes,
        )

    def layer(self, name: str) -> LayerTrace:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")


# ---------------------------------------------------------------------------
# HE-MAC cost model (Table IV)
# ---------------------------------------------------------------------------


def ntt_pass_basic_ops(poly_degree: int) -> int:
    """Basic ops of one NTT/INTT pass: N/2 * log2(N) butterflies x 3."""
    return 3 * (poly_degree // 2) * int(math.log2(poly_degree))


def he_op_basic_ops(op: HeOp, poly_degree: int, level: int) -> int:
    """Basic modular operations one HE operation expands into.

    Derived from the RNS-CKKS algorithms implemented in ``repro.fhe``:

    * elementwise ops touch ``components * level * N`` lanes;
    * Rescale INTTs all ``L`` rows, corrects ``L-1`` rows (2 lanes each)
      and NTTs them back — per component;
    * KeySwitch INTTs the input (L passes), lifts each of the ``L``
      decomposed rows into the ``L+1``-prime extended basis with an NTT per
      row-prime pair, multiply-accumulates against both key components, and
      finally rescales both accumulators by the special prime.
    """
    n = poly_degree
    ell = level
    ntt = ntt_pass_basic_ops(n)
    if op in (HeOp.CC_ADD, HeOp.PC_MULT):
        return 2 * ell * n
    if op == HeOp.PC_ADD:
        return ell * n
    if op == HeOp.CC_MULT:
        # c0*d0, c0*d1 + c1*d0, c1*d1 -> 4 products + 1 add, over L rows.
        return 5 * ell * n
    if op == HeOp.RESCALE:
        per_component = (2 * ell - 1) * ntt + 2 * (ell - 1) * n
        return 2 * per_component
    if op == HeOp.KEY_SWITCH:
        ext = ell + 1
        decompose = ell * ntt  # INTT of the switched component
        lift = ell * ext * ntt  # NTT of each lifted row into the extended basis
        mac = 2 * 2 * ell * ext * n  # products + accumulation, both components
        divide = 2 * ((2 * ext - 1) * ntt + 2 * (ext - 1) * n)
        return decompose + lift + mac + divide
    raise ValueError(f"unknown op {op}")
