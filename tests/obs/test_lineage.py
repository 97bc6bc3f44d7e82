"""Ciphertext lineage tracking: DAG structure, noise accounting, audit.

The heavyweight fixture runs one encrypted Tiny-MNIST inference under an
installed :class:`~repro.obs.lineage.LineageTracker` (module-scoped: the
DAG is immutable once built, every test just queries it).  The
acceptance criteria of the lineage PR are asserted here directly:
connected DAG with every ciphertext reachable from the inputs, waterfall
reconciling exactly to the final analytic bound, and measured noise
never exceeding the analytic bound in audit mode.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.fhe import CkksContext, NoiseEstimator, tiny_test_params
from repro.fhe.noise import NoiseBound
from repro.hecnn import tiny_mnist_model
from repro.obs.lineage import (
    HeadroomWatch,
    LineageTracker,
    NoiseAuditError,
    current_tracker,
    lineage_context,
)

HEADROOM_THRESHOLD = 8.0


@pytest.fixture(scope="module")
def run():
    """One tracked encrypted Tiny-MNIST inference (N=512, L=7)."""
    params = tiny_test_params(poly_degree=512, level=7)
    model = tiny_mnist_model(seed=0, params=params)
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    image = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    tracker = LineageTracker(
        estimator=NoiseEstimator.for_context(context),
        trace_id="req-lineage-test",
        headroom_threshold_bits=HEADROOM_THRESHOLD,
    )
    obs.set_enabled(True)
    obs.reset()
    try:
        with lineage_context(tracker):
            logits = model.infer(context, image)
    finally:
        obs.set_enabled(False)
    return SimpleNamespace(
        params=params, model=model, context=context, image=image,
        tracker=tracker, logits=logits,
    )


# -- DAG structure -----------------------------------------------------------


def test_dag_is_connected_from_the_inputs(run):
    tracker = run.tracker
    assert tracker.nodes, "inference recorded no lineage nodes"
    assert tracker.is_connected()
    # Every root is an encrypted input (one per conv offset), nothing
    # else materializes out of thin air.
    roots = tracker.roots()
    offset_vectors = run.model.input_packing.gather_offsets(run.image)
    assert len(roots) == len(offset_vectors)
    assert all(tracker.nodes[r].op == "Input" for r in roots)


def test_every_op_node_names_live_parents(run):
    tracker = run.tracker
    for node in tracker.nodes.values():
        for parent in node.parents:
            assert parent in tracker.nodes
            assert tracker.nodes[parent].seq < node.seq
        assert node.lineage_id not in node.parents  # no self-loops


def test_nodes_carry_backend_layer_and_bookkeeping(run):
    tracker = run.tracker
    op_nodes = [n for n in tracker.nodes.values() if n.parents]
    assert op_nodes
    layer_names = {layer.name for layer in run.model.layers}
    for node in op_nodes:
        assert node.backend, node.lineage_id
        assert node.layer in layer_names, node.lineage_id
        assert node.level_after is not None
        assert node.scale_after is not None
    assert tracker.propagation_failures == 0


def test_op_counts_cover_the_expected_op_mix(run):
    counts = run.tracker.op_counts()
    # Conv + dense packing guarantees these op families appear.
    for op in ("Input", "PCmult", "Rescale", "PCmultRescaleSum", "CCmult"):
        assert counts.get(op, 0) > 0, op
    # Rotations execute hoisted (RotateFold) or sequential (Rotate) as the
    # fold's grouping walk decides (a missing key raises); either way
    # they exist.
    assert counts.get("RotateFold", 0) + counts.get("Rotate", 0) > 0


def test_conv_sum_names_every_input_as_parent(run):
    """Cnv1's offsets run as one fused rescale sum over all the inputs."""
    tracker = run.tracker
    (conv,) = [
        n for n in tracker.nodes.values() if n.op == "PCmultRescaleSum"
    ]
    assert conv.layer == "Cnv1"
    assert list(conv.parents) == tracker.roots()


# -- noise accounting --------------------------------------------------------


def test_waterfall_reconciles_exactly_to_the_final_bound(run):
    tracker = run.tracker
    rows = tracker.waterfall()
    assert [r["layer"] for r in rows] == [
        layer.name for layer in run.model.layers
    ]
    assert all(r["spent_bits"] is not None for r in rows)
    total_spent = sum(r["spent_bits"] for r in rows)
    assert total_spent == pytest.approx(
        tracker.initial_bits - tracker.final_bits, abs=1e-9
    )
    # Boundaries chain: each row's entry is the previous row's exit.
    for prev, cur in zip(rows, rows[1:]):
        assert cur["entry_bits"] == prev["exit_bits"]
    for row in rows:
        assert row["worst_lineage_id"] in tracker.nodes


def test_per_op_bound_tracks_the_layer_composite_profile(run):
    """``noise_profile`` dry-runs the forward pass through the tracker's
    own per-op rules, so both agree at every layer boundary.  They differ
    only in how a plaintext's peak is read: the tracker decodes the
    plaintext, the dry run reads the slot vector it was encoded from."""
    profile = run.model.noise_profile(run.context)
    waterfall = run.tracker.waterfall()
    assert [name for name, _ in profile] == [r["layer"] for r in waterfall]
    for (name, bound), row in zip(profile, waterfall):
        assert bound.error_bits == pytest.approx(row["exit_bits"], abs=1e-5), (
            name
        )


def test_dominant_spenders_are_ranked_and_real(run):
    spenders = run.tracker.dominant_spenders(5)
    assert len(spenders) == 5
    spent = [s["spent_bits"] for s in spenders]
    assert spent == sorted(spent, reverse=True)
    assert all(s["lineage_id"] in run.tracker.nodes for s in spenders)
    # The squaring activation dominates the budget on this network.
    assert spenders[0]["op"] == "CCmult"


def test_headroom_watch_fired_on_the_activation_boundary(run):
    # Act1 exits at ~7.1 analytic bits < the 8-bit threshold; later
    # boundaries stay below, so there is exactly one ok->below crossing.
    assert run.tracker.headroom_crossings == 1


# -- audit mode --------------------------------------------------------------


def test_audit_measured_never_exceeds_analytic(run):
    rows = run.model.audit_noise(run.context, run.image)
    assert [r["layer"] for r in rows] == [
        layer.name for layer in run.model.layers
    ]
    for row in rows:
        assert row["measured_bits"] >= row["analytic_bits"], row
        assert row["gap_bits"] > 0, row


class _OptimisticEstimator:
    """Delegates to a real estimator but claims ~40 bits less error —
    an analytic under-estimate the audit must catch."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, NoiseBound):
                out = replace(out, error=out.error * 2.0**-40)
            return out

        return call


def test_audit_under_estimate_is_a_hard_error(run):
    liar = _OptimisticEstimator(NoiseEstimator.for_context(run.context))
    with pytest.raises(NoiseAuditError, match="exceeds the analytic"):
        run.model.audit_noise(run.context, run.image, estimator=liar)


# -- enable/disable contract -------------------------------------------------


def test_disabled_obs_records_nothing(ctx, evaluator, rng):
    assert not obs.enabled()
    ct = ctx.encrypt_values(rng.uniform(-1, 1, ctx.slot_count))
    tracker = LineageTracker(estimator=NoiseEstimator.for_context(ctx))
    with lineage_context(tracker):
        out = evaluator.add(ct, ct)
        evaluator.rotate(out, 1)
    assert not tracker.nodes
    assert out.lineage_id is None


def test_identity_returning_ops_create_no_node(ctx, evaluator, rng):
    ct = ctx.encrypt_values(rng.uniform(-1, 1, ctx.slot_count))
    tracker = LineageTracker(estimator=NoiseEstimator.for_context(ctx))
    obs.set_enabled(True)
    with lineage_context(tracker):
        out = evaluator.rotate(ct, 0)          # rotate by 0: same object
        same = evaluator.relinearize(out)      # already linear: same object
    assert out is ct and same is ct
    assert not tracker.nodes  # no node, in particular no self-loop


def test_tracker_is_ambient_and_restored(ctx):
    assert current_tracker() is None
    tracker = LineageTracker()
    with lineage_context(tracker):
        assert current_tracker() is tracker
        inner = LineageTracker()
        with lineage_context(inner):
            assert current_tracker() is inner
        assert current_tracker() is tracker
    assert current_tracker() is None


def test_lineage_id_rides_sideband_without_changing_equality(ctx, rng):
    x = rng.uniform(-1, 1, ctx.slot_count)
    ct = ctx.encrypt_values(x)
    assert ct.lineage_id is None
    tracker = LineageTracker()
    tracker.ensure_id(ct)
    assert ct.lineage_id == "ct-000001"
    # The ID is bookkeeping only: dataclass equality still compares the
    # ciphertext's mathematical content, not the side-band attribute.
    assert ct == replace(ct)


# -- exports -----------------------------------------------------------------


def test_json_export_is_self_contained(run):
    record = run.tracker.to_json()
    text = json.dumps(record)  # must be JSON-serializable as-is
    parsed = json.loads(text)
    assert parsed["trace_id"] == "req-lineage-test"
    assert parsed["node_count"] == len(run.tracker.nodes)
    assert parsed["edge_count"] == len(run.tracker.edges())
    assert parsed["connected"] is True
    assert parsed["propagation_failures"] == 0
    assert len(parsed["nodes"]) == parsed["node_count"]
    seqs = [n["seq"] for n in parsed["nodes"]]
    assert seqs == sorted(seqs)


def test_dot_export_renders_every_node_and_edge(run):
    dot = run.tracker.to_dot()
    assert dot.startswith("digraph lineage {")
    assert dot.rstrip().endswith("}")
    for lid in run.tracker.nodes:
        assert f'"{lid}"' in dot
    for parent, child in run.tracker.edges():
        assert f'"{parent}" -> "{child}";' in dot
    # One cluster per layer plus the input cluster.
    assert dot.count("subgraph cluster_") == len(run.model.layers) + 1


# -- headroom watch & flight recorder ----------------------------------------


def test_headroom_watch_emits_one_event_per_crossing():
    obs.set_enabled(True)
    obs.reset()
    watch = HeadroomWatch(8.0)
    watch.observe(12.0, layer="Cnv1", lineage_id="ct-000001")
    watch.observe(5.0, layer="Act1", lineage_id="ct-000002")   # crossing 1
    watch.observe(4.0, layer="Fc1", lineage_id="ct-000003")    # still below
    watch.observe(3.0, layer="Act2", lineage_id="ct-000004")   # still below
    watch.observe(10.0, layer="Fc2", lineage_id="ct-000005")   # recovered
    watch.observe(2.0, layer="Fc2", lineage_id="ct-000006")    # crossing 2
    events = obs.get_flight_recorder().events("noise_headroom_violation")
    assert watch.crossings == 2
    assert len(events) == 2
    assert events[0]["layer"] == "Act1"
    assert events[0]["lineage_id"] == "ct-000002"
    assert events[0]["threshold_bits"] == 8.0
    assert events[1]["lineage_id"] == "ct-000006"


def test_headroom_gauge_published_per_layer():
    obs.set_enabled(True)
    obs.reset()
    watch = HeadroomWatch(8.0)
    watch.observe(12.5, layer="Cnv1")
    gauges = {
        dict(g.labels).get("layer"): g.value
        for g in obs.get_registry().collect(
            kind="gauge", name="noise_headroom_bits"
        )
    }
    assert gauges["Cnv1"] == 12.5


def test_dump_on_error_names_the_offending_ciphertext(tmp_path):
    obs.set_enabled(True)
    obs.reset()
    watch = HeadroomWatch(8.0)
    path = tmp_path / "flight.jsonl"
    with pytest.raises(NoiseAuditError):
        with obs.dump_on_error(path):
            watch.observe(3.2, layer="Act2", lineage_id="ct-000048")
            raise NoiseAuditError("layer Act2: bound exceeded")
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    violations = [
        e for e in lines if e["kind"] == "noise_headroom_violation"
    ]
    assert len(violations) == 1
    assert violations[0]["lineage_id"] == "ct-000048"
    assert violations[0]["layer"] == "Act2"
