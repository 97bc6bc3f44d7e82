"""Per-ciphertext provenance: lineage IDs, op DAGs and noise accounting.

The paper fixes ``L = 7`` "to support the multiplication depth" of its
networks — an implicit noise-budget argument.  :mod:`repro.fhe.noise`
makes the budget analytic; this module makes it *attributable*: every
:class:`~repro.fhe.ciphertext.Ciphertext` that flows through an
:class:`~repro.fhe.ops.Evaluator` gets a lineage ID, and every evaluator
op records a :class:`LineageNode` — parent IDs, op type, kernel backend,
level/scale before and after, and the analytic noise-bound delta — so a
request's entire op history is a queryable DAG tied to its trace ID.

Usage::

    est = NoiseEstimator.for_context(context)
    tracker = LineageTracker(estimator=est, trace_id=new_trace_id("req"))
    with obs.observed(), lineage_context(tracker):
        model.infer(context, image)
    tracker.waterfall()          # per-layer noise spend
    tracker.dominant_spenders()  # which ops ate the headroom
    tracker.to_dot()             # Graphviz export

Recording only happens when *both* the observability master switch is on
and a tracker is installed via :func:`lineage_context` — the evaluator's
disabled path stays a single flag check (the <2 % contract of
``docs/observability.md``, re-asserted in CI with a tracker installed).

The tracker never raises into the hot path: a failed noise propagation
falls back to the parent bound and is counted in
:attr:`LineageTracker.propagation_failures`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

from . import probes


class NoiseAuditError(RuntimeError):
    """The measured noise of a ciphertext exceeded its analytic bound.

    Raised by the debug noise audit (``HeCnn.audit_noise``): an analytic
    under-estimate means every downstream precision guarantee is void, so
    it is a hard error, never a warning.
    """


@dataclass(frozen=True)
class LineageNode:
    """One recorded evaluator op (or ciphertext source) in the DAG.

    ``noise_bits_*`` are analytic precision bounds (``-log2`` of the
    estimator's error bound); ``None`` when the tracker runs without an
    estimator or a propagation failed.
    """

    lineage_id: str
    op: str
    parents: tuple[str, ...]
    seq: int
    backend: str | None = None
    layer: str | None = None
    level_before: int | None = None
    level_after: int | None = None
    scale_before: float | None = None
    scale_after: float | None = None
    noise_bits_before: float | None = None
    noise_bits_after: float | None = None

    @property
    def spent_bits(self) -> float | None:
        """Analytic precision this op consumed (entry minus exit bits)."""
        if self.noise_bits_before is None or self.noise_bits_after is None:
            return None
        return self.noise_bits_before - self.noise_bits_after

    def as_dict(self) -> dict[str, Any]:
        return {
            "lineage_id": self.lineage_id,
            "op": self.op,
            "parents": list(self.parents),
            "seq": self.seq,
            "backend": self.backend,
            "layer": self.layer,
            "level_before": self.level_before,
            "level_after": self.level_after,
            "scale_before": self.scale_before,
            "scale_after": self.scale_after,
            "noise_bits_before": self.noise_bits_before,
            "noise_bits_after": self.noise_bits_after,
        }


class HeadroomWatch:
    """Transition-based noise-headroom threshold watch.

    Publishes a ``noise_headroom_bits`` gauge on every observation and
    records exactly one ``noise_headroom_violation`` flight event per
    ok→below crossing (no flapping spam), carrying the lineage ID of the
    offending ciphertext so ``dump_on_error`` post-mortems can name it.
    """

    def __init__(self, threshold_bits: float) -> None:
        self.threshold_bits = float(threshold_bits)
        self.crossings = 0
        self._violated = False

    def observe(
        self,
        bits: float,
        layer: str | None = None,
        lineage_id: str | None = None,
    ) -> None:
        probes.record_noise_headroom(bits, layer=layer or "")
        below = bits < self.threshold_bits
        if below and not self._violated:
            self.crossings += 1
            probes.record_flight(
                "noise_headroom_violation",
                layer=layer,
                lineage_id=lineage_id,
                headroom_bits=bits,
                threshold_bits=self.threshold_bits,
            )
        self._violated = below


class LineageTracker:
    """Request-scoped ciphertext provenance recorder.

    Parameters
    ----------
    estimator:
        A :class:`~repro.fhe.noise.NoiseEstimator` (or compatible) used
        to propagate analytic noise bounds per op; without one the DAG
        still records structure, levels and scales, but no noise bits.
    trace_id:
        The request's trace ID (:func:`repro.obs.tracectx.new_trace_id`),
        tying the lineage DAG to the request's span tree.
    message_bound:
        Plaintext magnitude bound assumed for source ciphertexts.
    headroom_threshold_bits:
        When set, layer boundaries below this many analytic bits emit a
        flight-recorder violation event (one per crossing).
    """

    def __init__(
        self,
        estimator=None,
        trace_id: str | None = None,
        message_bound: float = 1.0,
        headroom_threshold_bits: float | None = None,
    ) -> None:
        self.estimator = estimator
        self.trace_id = trace_id
        self.message_bound = message_bound
        self.nodes: dict[str, LineageNode] = {}
        self.propagation_failures = 0
        self._bounds: dict[str, Any] = {}
        self._next_id = 1
        self._seq = 0
        self._layer: str | None = None
        #: ``(boundary_name, [lineage ids], worst_bits, worst_id)`` per
        #: layer boundary; index 0 is the encrypted input.
        self._boundaries: list[
            tuple[str, list[str], float | None, str | None]
        ] = []
        self._watch = (
            HeadroomWatch(headroom_threshold_bits)
            if headroom_threshold_bits is not None
            else None
        )

    # -- identity ---------------------------------------------------------------

    def ensure_id(self, ct, op: str = "Source") -> str:
        """The ciphertext's lineage ID, assigning one (and a source node)
        if this tracker has not seen it before."""
        lid = getattr(ct, "_lineage_id", None)
        if lid is not None and lid in self.nodes:
            return lid
        lid = f"ct-{self._next_id:06d}"
        self._next_id += 1
        object.__setattr__(ct, "_lineage_id", lid)
        bound = self._fresh_bound(ct)
        self._seq += 1
        self.nodes[lid] = LineageNode(
            lineage_id=lid,
            op=op,
            parents=(),
            seq=self._seq,
            layer=self._layer,
            level_after=ct.level,
            scale_after=ct.scale,
            noise_bits_after=_bits(bound),
        )
        self._bounds[lid] = bound
        return lid

    def _fresh_bound(self, ct):
        if self.estimator is None:
            return None
        try:
            bound = self.estimator.fresh(self.message_bound, level=ct.level)
            if bound.scale != ct.scale:
                bound = replace(bound, scale=ct.scale)
            return bound
        except Exception:
            self.propagation_failures += 1
            return None

    def bound_of(self, ct) -> Any:
        """The tracked analytic bound of a ciphertext (``None`` unknown)."""
        lid = getattr(ct, "_lineage_id", None)
        return self._bounds.get(lid) if lid is not None else None

    # -- recording --------------------------------------------------------------

    def observe(self, op_name: str, evaluator, args, kwargs, out) -> None:
        """Record one evaluator op.  Called by the ``_probed`` wrapper in
        :mod:`repro.fhe.ops` (obs-enabled path only)."""
        from ..fhe.ciphertext import Ciphertext, Plaintext

        if not isinstance(out, Ciphertext):
            return
        operands = [
            x
            for a in list(args) + list(kwargs.values())
            for x in (a if isinstance(a, (list, tuple)) else (a,))
        ]
        cts = [a for a in operands if isinstance(a, Ciphertext)]
        if any(out is c for c in cts):
            return  # identity early-return (e.g. rotate by 0): no new ct
        plains = [a for a in operands if isinstance(a, Plaintext)]
        parent_ids = tuple(self.ensure_id(c) for c in cts)
        parent_bounds = [self._bounds.get(pid) for pid in parent_ids]
        bound = self._propagate(
            op_name, parent_bounds, plains, evaluator,
            kwargs.get("logical", 1), out,
        )
        lid = f"ct-{self._next_id:06d}"
        self._next_id += 1
        object.__setattr__(out, "_lineage_id", lid)
        self._seq += 1
        self.nodes[lid] = LineageNode(
            lineage_id=lid,
            op=op_name,
            parents=parent_ids,
            seq=self._seq,
            backend=_active_backend_name(),
            layer=self._layer,
            level_before=cts[0].level if cts else None,
            level_after=out.level,
            scale_before=cts[0].scale if cts else None,
            scale_after=out.scale,
            noise_bits_before=_min_bits(parent_bounds),
            noise_bits_after=_bits(bound),
        )
        self._bounds[lid] = bound

    def _propagate(self, op_name, parent_bounds, plains, evaluator, logical,
                   out):
        """Analytic noise bound of ``out``; never raises into the hot path."""
        est = self.estimator
        if est is None or any(b is None for b in parent_bounds) \
                or not parent_bounds:
            return None
        from ..fhe.noise import propagate_op  # circular at module level

        try:
            # ``logical`` is the shape of the loop an op stands for, passed
            # by keyword (a fold group's step count, a BSGS op's steps).
            return propagate_op(
                est, op_name, parent_bounds,
                [(_plain_bound(evaluator, pt), pt.scale) for pt in plains],
                out.level, out.scale, logical,
            )
        except Exception:
            self.propagation_failures += 1
            worst = min(
                (b for b in parent_bounds if b is not None),
                key=lambda b: b.error_bits,
                default=None,
            )
            if worst is None:
                return None
            return replace(worst, level=out.level, scale=out.scale)

    # -- layer attribution ------------------------------------------------------

    def set_layer(self, name: str | None) -> None:
        """Attribute subsequent ops to the named layer."""
        self._layer = name

    def begin_inputs(self, cts) -> None:
        """Register the request's input ciphertexts as the DAG roots and
        the first waterfall boundary."""
        ids = [self.ensure_id(ct, op="Input") for ct in cts]
        bits, worst = self._worst(ids)
        self._boundaries = [("input", ids, bits, worst)]

    def mark_boundary(self, layer: str, cts) -> None:
        """Record a layer-exit boundary: the waterfall row source, the
        per-layer headroom gauge and the threshold-crossing watch."""
        ids = [self.ensure_id(ct) for ct in cts]
        bits, worst = self._worst(ids)
        self._boundaries.append((layer, ids, bits, worst))
        if bits is not None:
            if self._watch is not None:
                self._watch.observe(bits, layer=layer, lineage_id=worst)
            else:
                probes.record_noise_headroom(bits, layer=layer)

    def _worst(self, ids) -> tuple[float | None, str | None]:
        """Minimum analytic bits over a boundary and the offending ID."""
        best: tuple[float, str] | None = None
        for lid in ids:
            bits = _bits(self._bounds.get(lid))
            if bits is None:
                continue
            if best is None or bits < best[0]:
                best = (bits, lid)
        return (best[0], best[1]) if best is not None else (None, None)

    # -- queries ----------------------------------------------------------------

    @property
    def headroom_crossings(self) -> int:
        return self._watch.crossings if self._watch is not None else 0

    def edges(self) -> list[tuple[str, str]]:
        """All ``(parent, child)`` edges, in recording order."""
        out = []
        for node in sorted(self.nodes.values(), key=lambda n: n.seq):
            out.extend((p, node.lineage_id) for p in node.parents)
        return out

    def roots(self) -> list[str]:
        """Lineage IDs with no parents (inputs / sources)."""
        return [
            n.lineage_id
            for n in sorted(self.nodes.values(), key=lambda n: n.seq)
            if not n.parents
        ]

    def is_connected(self) -> bool:
        """True when every recorded ciphertext is reachable from a root."""
        if not self.nodes:
            return False
        children: dict[str, list[str]] = {}
        for parent, child in self.edges():
            children.setdefault(parent, []).append(child)
        frontier = list(self.roots())
        reached = set(frontier)
        while frontier:
            nxt = []
            for lid in frontier:
                for child in children.get(lid, ()):
                    if child not in reached:
                        reached.add(child)
                        nxt.append(child)
            frontier = nxt
        return len(reached) == len(self.nodes)

    @property
    def initial_bits(self) -> float | None:
        return self._boundaries[0][2] if self._boundaries else None

    @property
    def final_bits(self) -> float | None:
        return self._boundaries[-1][2] if self._boundaries else None

    def waterfall(self) -> list[dict[str, Any]]:
        """Per-layer noise spend between boundaries.

        ``sum(row["spent_bits"])`` equals ``initial_bits - final_bits``
        exactly — the waterfall reconciles to the final analytic bound.
        """
        rows = []
        for prev, cur in zip(self._boundaries, self._boundaries[1:]):
            spent = None
            if prev[2] is not None and cur[2] is not None:
                spent = prev[2] - cur[2]
            rows.append({
                "layer": cur[0],
                "entry_bits": prev[2],
                "exit_bits": cur[2],
                "spent_bits": spent,
                "worst_lineage_id": cur[3],
            })
        return rows

    def dominant_spenders(self, n: int = 5) -> list[dict[str, Any]]:
        """The ``n`` recorded ops that consumed the most analytic bits."""
        spenders = [
            node for node in self.nodes.values()
            if node.spent_bits is not None and node.parents
        ]
        spenders.sort(key=lambda node: (-node.spent_bits, node.seq))
        return [
            {
                "lineage_id": node.lineage_id,
                "op": node.op,
                "layer": node.layer,
                "spent_bits": node.spent_bits,
                "exit_bits": node.noise_bits_after,
            }
            for node in spenders[:n]
        ]

    def op_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    # -- export -----------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """JSON-ready record of the full DAG plus its noise accounting."""
        return {
            "trace_id": self.trace_id,
            "node_count": len(self.nodes),
            "edge_count": len(self.edges()),
            "connected": self.is_connected(),
            "initial_bits": self.initial_bits,
            "final_bits": self.final_bits,
            "propagation_failures": self.propagation_failures,
            "op_counts": self.op_counts(),
            "waterfall": self.waterfall(),
            "dominant_spenders": self.dominant_spenders(),
            "nodes": [
                node.as_dict()
                for node in sorted(self.nodes.values(), key=lambda n: n.seq)
            ],
        }

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the DAG, clustered by layer."""
        lines = [
            "digraph lineage {",
            '  rankdir="LR";',
            "  node [shape=box, fontsize=9];",
        ]
        by_layer: dict[str, list[LineageNode]] = {}
        for node in sorted(self.nodes.values(), key=lambda n: n.seq):
            by_layer.setdefault(node.layer or "input", []).append(node)
        for i, (layer, nodes) in enumerate(by_layer.items()):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="{_dot_escape(layer)}";')
            for node in nodes:
                label = f"{node.lineage_id}\\n{_dot_escape(node.op)}"
                if node.noise_bits_after is not None:
                    label += f"\\n{node.noise_bits_after:.1f} bits"
                lines.append(
                    f'    "{node.lineage_id}" [label="{label}"];'
                )
            lines.append("  }")
        for parent, child in self.edges():
            lines.append(f'  "{parent}" -> "{child}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ambient tracker (thread-local, like the trace-ID stack)
# ---------------------------------------------------------------------------

_STATE = threading.local()


def current_tracker() -> LineageTracker | None:
    """The thread's installed tracker, or ``None``."""
    return getattr(_STATE, "tracker", None)


@contextmanager
def lineage_context(tracker: LineageTracker) -> Iterator[LineageTracker]:
    """Install ``tracker`` as the thread's ambient lineage recorder."""
    prev = current_tracker()
    _STATE.tracker = tracker
    try:
        yield tracker
    finally:
        _STATE.tracker = prev


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _bits(bound) -> float | None:
    if bound is None:
        return None
    bits = bound.error_bits
    return bits if math.isfinite(bits) else None


def _min_bits(bounds) -> float | None:
    vals = [b for b in (_bits(bound) for bound in bounds) if b is not None]
    return min(vals) if vals else None


def _plain_bound(evaluator, plain) -> float:
    """Magnitude bound of a plaintext operand (decoded)."""
    values = evaluator.context.decode(plain)
    peak = float(abs(values).max()) if len(values) else 0.0
    return max(peak, 1e-12)


def _active_backend_name() -> str | None:
    try:
        from ..fhe import kernels

        return kernels.active_backend().name
    except Exception:  # pragma: no cover - backend registry unavailable
        return None


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
