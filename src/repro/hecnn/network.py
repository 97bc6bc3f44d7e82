"""End-to-end HE-CNN container: packing, key provisioning, inference, trace.

The deployment model mirrors the paper (Fig. 1 and Sec. IV): the *client*
encodes and encrypts its image into the per-offset convolution ciphertexts
and holds the secret key; the *server* (in the paper, the generated FPGA
accelerator; here, the functional evaluator or the performance model) runs
every layer on ciphertexts — non-interactively, with no decryption of
intermediate results — and returns the encrypted logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..fhe.ciphertext import Ciphertext
from ..fhe.context import CkksContext
from ..fhe.dryrun import dry_inputs
from ..fhe.noise import NoiseBound, NoiseEstimator, publish_noise_budget
from ..fhe.ops import Evaluator, OperationRecorder
from ..obs import lineage
from ..obs.lineage import NoiseAuditError
from ..obs.tracing import trace_span
from .layers import LayerRun, PackedConv, PackedLayer
from .packing import ConvPacking
from .reference import PlainNetwork
from .trace import NetworkTrace


@dataclass
class HeCnn:
    """A packed HE-CNN: an input conv packing plus a sequence of layers.

    Attributes
    ----------
    name:
        Model name (e.g. ``"FxHENN-MNIST"``).
    poly_degree / base_level / prime_bits:
        HE parameters the network is defined against.  The first layer
        enters at ``base_level``; each layer consumes one level.
    input_packing:
        Client-side conv packing for the first layer.
    layers:
        Packed layers in execution order (first must be a
        :class:`~repro.hecnn.layers.PackedConv` using ``input_packing``).
    plain_reference:
        The cleartext oracle computing the identical function.
    """

    name: str
    poly_degree: int
    base_level: int
    input_packing: ConvPacking
    layers: list[PackedLayer]
    plain_reference: PlainNetwork
    prime_bits: int = 30
    output_slots: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if not self.layers or not isinstance(self.layers[0], PackedConv):
            raise ValueError("first layer must be a PackedConv")
        self._runs = self._dry_run()
        depth = sum(run.levels_consumed for run in self._runs)
        if self.base_level < depth + 1:
            raise ValueError(
                f"network consumes {depth} levels; base_level must be >= "
                f"{depth + 1} (got {self.base_level})"
            )
        if self.output_slots is None:
            last = self.layers[-1].output_layout
            self.output_slots = last.slot_index.copy()

    def _dry_run(self, estimator=None, message_bound=1.0) -> list[LayerRun]:
        """One dry run of the forward pass (:mod:`repro.fhe.dryrun`); with
        ``estimator``, every ciphertext carries its analytic bound."""
        cts = dry_inputs(
            self.input_packing.spec.kernel_offsets, self.base_level,
            estimator, message_bound,
        )
        runs = []
        for layer in self.layers:
            runs.append(layer.dry_run(cts, estimator))
            cts = runs[-1].outputs
        return runs

    # -- trace ---------------------------------------------------------------------

    def layer_entry_levels(self) -> list[int]:
        """Ciphertext level at each layer's entry (each layer consumes its
        Rescales: 1 for most, 2 for dense layers that mask their chunk
        merge)."""
        return [run.trace.level for run in self._runs]

    def trace(self) -> NetworkTrace:
        return NetworkTrace(
            name=self.name,
            layers=tuple(run.trace for run in self._runs),
            poly_degree=self.poly_degree,
            base_level=self.base_level,
            prime_bits=self.prime_bits,
        )

    def noise_profile(
        self, context: CkksContext, message_bound: float = 1.0
    ) -> list[tuple[str, NoiseBound]]:
        """Analytic per-layer noise budget for an inference on ``context``.

        A dry run of the forward pass pushes a conservative
        :class:`~repro.fhe.noise.NoiseBound` through every op with the
        lineage tracker's per-op rules (no secret key required) and
        publishes one ``noise_budget_bits`` gauge per layer when
        observability is enabled.  Returns ``[(layer_name,
        bound_after_layer), ...]``, each the loosest over the layer's
        output ciphertexts.
        """
        self._check_context(context)
        est = NoiseEstimator.for_context(context)
        profile = [
            (run.trace.name, run.bound)
            for run in self._dry_run(est, message_bound)
        ]
        for name, bound in profile:
            publish_noise_budget(bound, layer=name)
        return profile

    # -- key provisioning --------------------------------------------------------------

    def rotation_keys(self) -> list[tuple[int, int]]:
        """Every ``(step, level)`` Galois key the forward pass fetches."""
        return sorted(set().union(*(run.keys for run in self._runs)))

    def provision_keys(self, context: CkksContext) -> None:
        """Generate exactly the relin/Galois keys the forward pass fetches."""
        relin_levels = sorted(
            set().union(*(run.relin_levels for run in self._runs))
        )
        context.ensure_relin_keys(relin_levels)
        context.ensure_rotation_keys(self.rotation_keys())

    # -- inference ----------------------------------------------------------------------

    def encrypt_input(self, context: CkksContext, image: np.ndarray) -> list[Ciphertext]:
        """Client side: gather, encode and encrypt the per-offset vectors."""
        self._check_context(context)
        vectors = self.input_packing.gather_offsets(image)
        return [
            context.encrypt_values(vec, level=self.base_level) for vec in vectors
        ]

    def forward_encrypted(
        self,
        evaluator: Evaluator,
        cts: list[Ciphertext],
        recorder: OperationRecorder | None = None,
    ) -> list[Ciphertext]:
        """Server side: run every layer on ciphertexts.

        When a :class:`~repro.obs.lineage.LineageTracker` is installed
        (:func:`repro.obs.lineage.lineage_context`), the inputs are
        registered as DAG roots, every op is attributed to its layer, and
        each layer exit marks a noise-waterfall boundary (publishing the
        per-layer ``noise_headroom_bits`` gauge and the threshold watch).
        """
        state = cts
        tracker = lineage.current_tracker()
        with trace_span("inference", category="network", network=self.name):
            if tracker is not None:
                tracker.begin_inputs(cts)
            for layer in self.layers:
                if recorder is not None:
                    recorder.set_phase(layer.name)
                if tracker is not None:
                    tracker.set_layer(layer.name)
                with trace_span(
                    layer.name, category="layer",
                    layer_type=type(layer).__name__,
                ) as span:
                    state = layer.forward(evaluator, state)
                    span.set(output_cts=len(state), level=state[0].level)
                if tracker is not None:
                    tracker.mark_boundary(layer.name, state)
            if tracker is not None:
                tracker.set_layer(None)
        if recorder is not None:
            recorder.set_phase(None)
        return state

    def infer(
        self,
        context: CkksContext,
        image: np.ndarray,
        recorder: OperationRecorder | None = None,
    ) -> np.ndarray:
        """Full round trip: encrypt, evaluate, decrypt, extract the logits."""
        self._check_context(context)
        evaluator = Evaluator(context, recorder=recorder)
        cts = self.encrypt_input(context, image)
        outputs = self.forward_encrypted(evaluator, cts, recorder)
        layout = self.layers[-1].output_layout
        slot_vectors = [context.decrypt_values(ct) for ct in outputs]
        return layout.extract(slot_vectors)

    def infer_plain(self, image: np.ndarray) -> np.ndarray:
        """The cleartext oracle on the same image."""
        return self.plain_reference.forward(image)

    def audit_noise(
        self,
        context: CkksContext,
        image: np.ndarray,
        message_bound: float = 1.0,
        estimator: NoiseEstimator | None = None,
    ) -> list[dict[str, float | str]]:
        """Debug noise audit: decrypt at every layer boundary and compare
        the measured error against the analytic bound.

        Requires the secret key — a client-side/debugging facility, never
        available to the accelerator.  For each layer the packed output
        is decrypted, its value slots (via the layer's
        :class:`~repro.hecnn.packing.SlotLayout`) are compared against
        the plain reference run to the same depth, and the measured
        precision is checked against the analytic
        :class:`~repro.fhe.noise.NoiseBound`.  An analytic
        *under-estimate* raises :class:`~repro.obs.lineage
        .NoiseAuditError` — a hard error, since every precision guarantee
        downstream rests on the bound being conservative.

        Returns one row per layer:
        ``{"layer", "analytic_bits", "measured_bits", "gap_bits"}``.
        """
        self._check_context(context)
        est = estimator if estimator is not None else \
            NoiseEstimator.for_context(context)
        runs = self._dry_run(est, message_bound)
        evaluator = Evaluator(context)
        state = self.encrypt_input(context, image)
        x = image
        rows: list[dict[str, float | str]] = []
        for layer, plain_layer, run in zip(
            self.layers, self.plain_reference.layers, runs
        ):
            state = layer.forward(evaluator, state)
            bound = run.bound
            x = plain_layer.forward(x)
            expected = np.asarray(x, dtype=float).reshape(-1)
            layout = layer.output_layout
            slot_vectors = [context.decrypt_values(ct) for ct in state]
            got = layout.extract(slot_vectors)
            if len(got) != len(expected):
                raise NoiseAuditError(
                    f"layer {layer.name}: layout carries {len(got)} values "
                    f"but the reference produced {len(expected)}"
                )
            err = float(np.max(np.abs(got - expected)))
            measured_bits = float("inf") if err == 0 else -math.log2(err)
            analytic_bits = bound.error_bits
            gap = measured_bits - analytic_bits
            if err > bound.error * (1 + 1e-9):
                worst = getattr(state[0], "lineage_id", None)
                raise NoiseAuditError(
                    f"layer {layer.name}: measured error {err:.3e} exceeds "
                    f"the analytic bound {bound.error:.3e} "
                    f"({measured_bits:.2f} < {analytic_bits:.2f} bits"
                    + (f", lineage {worst}" if worst else "") + ")"
                )
            rows.append({
                "layer": layer.name,
                "analytic_bits": analytic_bits,
                "measured_bits": measured_bits,
                "gap_bits": gap,
            })
        return rows

    def _check_context(self, context: CkksContext) -> None:
        if context.params.poly_degree != self.poly_degree:
            raise ValueError(
                f"context N={context.params.poly_degree} does not match "
                f"network N={self.poly_degree}"
            )
        if context.params.level < self.base_level:
            raise ValueError("context level below network base level")
