"""Functional tests of the packed layers on real ciphertexts (tiny sizes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.fhe import (
    CkksContext,
    Evaluator,
    GaloisKeys,
    NoiseEstimator,
    OperationRecorder,
    tiny_test_params,
)
from repro.fhe.dryrun import dry_inputs
from repro.hecnn import (
    ConvPacking,
    ConvSpec,
    DensePacking,
    DenseSpec,
    PackedConv,
    PackedDense,
    PackedLayer,
    PackedSquare,
    PlainConv2d,
    SlotLayout,
)
from repro.obs.lineage import LineageTracker, lineage_context

ATOL = 2e-2


@pytest.fixture(scope="module")
def layer_ctx():
    params = tiny_test_params(poly_degree=512, level=5)
    return CkksContext(params, seed=21)


def _conv_fixture(layer_ctx):
    rng = np.random.default_rng(7)
    spec = ConvSpec(
        in_channels=1, out_channels=2, kernel_size=3, stride=2, padding=0,
        in_size=8,
    )
    packing = ConvPacking(spec=spec, slot_count=layer_ctx.slot_count)
    w = rng.normal(0, 0.3, (2, 1, 3, 3))
    b = rng.normal(0, 0.05, 2)
    img = rng.uniform(0, 1, (1, 8, 8))
    return spec, packing, w, b, img


def test_packed_conv_matches_plain(layer_ctx):
    spec, packing, w, b, img = _conv_fixture(layer_ctx)
    layer = PackedConv("Cnv1", packing, w, b)
    ev = Evaluator(layer_ctx)
    cts = [
        layer_ctx.encrypt_values(vec) for vec in packing.gather_offsets(img)
    ]
    outs = layer.forward(ev, cts)
    assert len(outs) == packing.num_groups
    got = layer.output_layout.extract(
        [layer_ctx.decrypt_values(ct) for ct in outs]
    )
    expected = PlainConv2d(spec, w, b).forward(img)
    assert np.allclose(got, expected, atol=ATOL)


def test_packed_conv_consumes_one_level(layer_ctx):
    spec, packing, w, b, img = _conv_fixture(layer_ctx)
    layer = PackedConv("Cnv1", packing, w, b)
    ev = Evaluator(layer_ctx)
    cts = [layer_ctx.encrypt_values(v) for v in packing.gather_offsets(img)]
    outs = layer.forward(ev, cts)
    assert outs[0].level == layer_ctx.params.level - 1
    assert layer.levels_consumed == 1


def test_packed_conv_rejects_wrong_ct_count(layer_ctx):
    spec, packing, w, b, img = _conv_fixture(layer_ctx)
    layer = PackedConv("Cnv1", packing, w, b)
    ev = Evaluator(layer_ctx)
    with pytest.raises(ValueError):
        layer.forward(ev, [layer_ctx.encrypt_values(np.ones(4))])


def test_packed_conv_weight_shape_validation(layer_ctx):
    spec, packing, w, b, _ = _conv_fixture(layer_ctx)
    with pytest.raises(ValueError):
        PackedConv("bad", packing, w[:, :, :, :2], b)
    with pytest.raises(ValueError):
        PackedConv("bad", packing, w, b[:1])


def test_packed_square(layer_ctx):
    rng = np.random.default_rng(8)
    width = 12
    layout = SlotLayout.contiguous(layer_ctx.slot_count, width)
    layer = PackedSquare("Act", layout)
    layer_ctx.ensure_relin_keys()
    ev = Evaluator(layer_ctx)
    x = rng.uniform(-1, 1, width)
    ct = layer_ctx.encrypt_values(x)
    (out,) = layer.forward(ev, [ct])
    got = layout.extract([layer_ctx.decrypt_values(out)])
    assert np.allclose(got, x**2, atol=ATOL)
    assert out.level == ct.level - 1
    assert out.is_linear


def test_packed_dense_replicated(layer_ctx):
    rng = np.random.default_rng(9)
    spec = DenseSpec(in_features=18, out_features=8)
    layout = SlotLayout.contiguous(layer_ctx.slot_count, 18)
    packing = DensePacking(spec=spec, input_layout=layout)
    assert packing.replicated
    w = rng.normal(0, 0.3, (8, 18))
    b = rng.normal(0, 0.05, 8)
    layer = PackedDense("Fc", packing, w, b)
    layer_ctx.ensure_rotation_keys(layer.rotation_keys(layer_ctx.params.level))
    ev = Evaluator(layer_ctx)
    x = rng.uniform(-1, 1, 18)
    vec = np.zeros(layer_ctx.slot_count)
    vec[:18] = x
    (out,) = layer.forward(ev, [layer_ctx.encrypt_values(vec)])
    got = layer.output_layout.extract([layer_ctx.decrypt_values(out)])
    assert np.allclose(got, w @ x + b, atol=ATOL)


def test_packed_dense_unmerged_output(layer_ctx):
    rng = np.random.default_rng(10)
    spec = DenseSpec(in_features=6, out_features=3)
    layout = SlotLayout.contiguous(layer_ctx.slot_count, 6)
    # Scattered regime forced via a non-identity layout by disabling merge
    # on a replicated one is equally valid; use merge_output=False.
    packing = DensePacking(spec=spec, input_layout=layout, merge_output=False)
    w = rng.normal(0, 0.3, (3, 6))
    b = rng.normal(0, 0.05, 3)
    layer = PackedDense("FcOut", packing, w, b)
    layer_ctx.ensure_rotation_keys(layer.rotation_keys(layer_ctx.params.level))
    ev = Evaluator(layer_ctx)
    x = rng.uniform(-1, 1, 6)
    vec = np.zeros(layer_ctx.slot_count)
    vec[:6] = x
    outs = layer.forward(ev, [layer_ctx.encrypt_values(vec)])
    assert len(outs) == packing.num_chunks
    got = layer.output_layout.extract(
        [layer_ctx.decrypt_values(ct) for ct in outs]
    )
    assert np.allclose(got, w @ x + b, atol=ATOL)
    assert layer.levels_consumed == 1  # no mask level


def test_packed_dense_mask_level_accounting(layer_ctx):
    layout = SlotLayout.contiguous(layer_ctx.slot_count, 40)
    multi_chunk = DensePacking(
        spec=DenseSpec(40, 17), input_layout=layout
    )
    assert multi_chunk.needs_mask
    layer = PackedDense(
        "Fc", multi_chunk, np.zeros((17, 40)), np.zeros(17)
    )
    assert layer.levels_consumed == 2

    single_chunk = DensePacking(spec=DenseSpec(40, 2), input_layout=layout)
    assert not single_chunk.needs_mask
    layer1 = PackedDense("Fc", single_chunk, np.zeros((2, 40)), np.zeros(2))
    assert layer1.levels_consumed == 1


def test_packed_dense_masked_merge_functional(layer_ctx):
    """Multi-chunk replicated dense: masking keeps output slots exact."""
    rng = np.random.default_rng(11)
    in_f, out_f = 20, 9  # B=32, C=8, chunks=2 -> mask path
    spec = DenseSpec(in_f, out_f)
    layout = SlotLayout.contiguous(layer_ctx.slot_count, in_f)
    packing = DensePacking(spec=spec, input_layout=layout)
    assert packing.num_chunks > 1 and packing.needs_mask
    w = rng.normal(0, 0.3, (out_f, in_f))
    b = rng.normal(0, 0.05, out_f)
    layer = PackedDense("Fc", packing, w, b)
    layer_ctx.ensure_rotation_keys(layer.rotation_keys(layer_ctx.params.level))
    ev = Evaluator(layer_ctx)
    x = rng.uniform(-1, 1, in_f)
    vec = np.zeros(layer_ctx.slot_count)
    vec[:in_f] = x
    (out,) = layer.forward(ev, [layer_ctx.encrypt_values(vec)])
    got = layer.output_layout.extract([layer_ctx.decrypt_values(out)])
    assert np.allclose(got, w @ x + b, atol=ATOL)
    # Clean output: non-output slots decrypt to ~0.
    decrypted = layer_ctx.decrypt_values(out)
    mask = np.ones(layer_ctx.slot_count, dtype=bool)
    mask[layer.output_layout.slot_index] = False
    assert np.max(np.abs(decrypted[mask])) < ATOL


def test_packed_dense_scattered_merge_functional(layer_ctx):
    """Scattered input, merged output: each row's chunk is masked, then the
    shift-by-one accumulator merges them through the packing's merge
    rotations."""
    rng = np.random.default_rng(13)
    layout = SlotLayout(
        slot_count=layer_ctx.slot_count, num_cts=1,
        ct_index=np.zeros(5, dtype=np.int64),
        slot_index=np.arange(5, dtype=np.int64) * 8, clean=True,
    )
    packing = DensePacking(spec=DenseSpec(5, 3), input_layout=layout)
    assert not packing.replicated and packing.needs_mask
    w = rng.normal(0, 0.3, (3, 5))
    b = rng.normal(0, 0.05, 3)
    layer = PackedDense("Fc", packing, w, b)
    layer_ctx.ensure_rotation_keys(layer.rotation_keys(layer_ctx.params.level))
    x = rng.uniform(-1, 1, 5)
    ct = layer_ctx.encrypt_values(layout.gather(x)[0])
    (out,) = layer.forward(Evaluator(layer_ctx), [ct])
    got = layer.output_layout.extract([layer_ctx.decrypt_values(out)])
    assert np.allclose(got, w @ x + b, atol=ATOL)


def test_dense_weight_shape_validation(layer_ctx):
    layout = SlotLayout.contiguous(layer_ctx.slot_count, 6)
    packing = DensePacking(spec=DenseSpec(6, 3), input_layout=layout)
    with pytest.raises(ValueError):
        PackedDense("bad", packing, np.zeros((3, 5)), np.zeros(3))
    with pytest.raises(ValueError):
        PackedDense("bad", packing, np.zeros((3, 6)), np.zeros(2))


class _ForwardOnly(PackedLayer):
    """A layer that states its schedule once, as ``forward``: a
    rotate-and-sum, a masking multiply, a rotate-add and a bias."""

    name = "Probe"

    def __init__(self, slot_count: int) -> None:
        self.layout = SlotLayout.contiguous(slot_count, 4)

    @property
    def output_layout(self) -> SlotLayout:
        return self.layout

    @property
    def macs(self) -> int:
        return 7 * self.layout.value_count

    def forward(self, evaluator, cts):
        (ct,) = cts
        slots = self.layout.slot_count
        ct = evaluator.rotate_fold(ct, [4, 2, 1])
        ct = evaluator.multiply_values_rescale(
            ct, lambda: np.where(np.arange(slots) < 4, 0.5, 0.0),
            cache_key=("probe", "mask"),
        )
        ct = evaluator.add(ct, evaluator.rotate(ct, 8))
        bias = evaluator.encode_cached(
            lambda: np.linspace(-0.3, 0.3, slots), level=ct.level,
            scale=ct.scale, cache_key=("probe", "bias"),
        )
        return [evaluator.add_plain(ct, bias)]


def test_a_layer_stating_only_forward_derives_its_schedule(
    layer_ctx, monkeypatch
):
    """Trace, keys, depth and noise bound of a layer that defines only
    ``forward``, ``output_layout`` and ``macs`` equal a real run's."""
    layer = _ForwardOnly(layer_ctx.slot_count)
    level = layer_ctx.params.level
    layer_ctx.ensure_rotation_keys(layer.rotation_keys(level))
    fetched: set[tuple[int, int]] = set()
    real_get = GaloisKeys.get

    def get(keys, step, lvl):
        fetched.add((step, lvl))
        return real_get(keys, step, lvl)

    monkeypatch.setattr(GaloisKeys, "get", get)
    ct = layer_ctx.encrypt_values(
        np.random.default_rng(12).uniform(-1, 1, layer_ctx.slot_count)
    )
    rec = OperationRecorder()
    est = NoiseEstimator.for_context(layer_ctx)
    tracker = LineageTracker(estimator=est)
    with obs.observed(), lineage_context(tracker):
        (out,) = layer.forward(Evaluator(layer_ctx, recorder=rec), [ct])
    obs.reset()

    trace = layer.trace(level)
    assert trace.op_counts == rec.counts
    assert (trace.ks_units, trace.nks_units) == (4, 1)
    assert trace.rotation_steps == (1, 2, 4, 8)
    assert trace.plaintext_count == 2 and trace.macs == 28
    assert set(layer.rotation_keys(level)) == fetched
    assert (6, level) in fetched  # a hoisted fold composite
    assert layer.levels_consumed == ct.level - out.level == 1
    dry = layer.dry_run(dry_inputs(1, level, est), est)
    assert tracker.propagation_failures == 0
    assert dry.bound.error_bits == pytest.approx(
        tracker.bound_of(out).error_bits, abs=1e-5
    )
