"""Tests for slot layouts and packing plans — pure (no FHE) math.

The noiseless "slot simulation" used here mirrors what the encrypted
pipeline computes: gathers, elementwise products, cyclic rotations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecnn import (
    ConvPacking,
    ConvSpec,
    DensePacking,
    DenseSpec,
    DiagonalPacking,
    PackedDense,
    PackedDiagonalDense,
    SlotLayout,
)
from repro.hecnn.packing import next_pow2


def _rotate_left(vec: np.ndarray, step: int) -> np.ndarray:
    return np.roll(vec, -step)


def _simulate_dense(packing: DensePacking, weights: np.ndarray, x_slots: list[np.ndarray]):
    """Noiseless slot-level simulation of PackedDense.forward (minus bias)."""
    inputs = list(x_slots)
    if packing.replicated and packing.copies > 1:
        base = inputs[0]
        for step in packing.replication_steps():
            base = base + _rotate_left(base, step)
        inputs = [base]
    chunk_results = []
    for chunk in range(packing.num_chunks):
        partial = None
        for g, vec in enumerate(inputs):
            term = vec * packing.weight_vector(chunk, g, weights)
            partial = term if partial is None else partial + term
        for phase in packing.rotation_phases():
            for step in phase.steps:
                partial = partial + _rotate_left(partial, step)
        if packing.needs_mask:
            partial = partial * packing.mask_vector(chunk)
        chunk_results.append(partial)
    if not packing.merge_output:
        return chunk_results
    if packing.replicated:
        merged = chunk_results[0]
        for other in chunk_results[1:]:
            merged = merged + other
    else:
        merged = chunk_results[-1]
        for result in reversed(chunk_results[:-1]):
            merged = _rotate_left(merged, packing.slot_count - 1) + result
    return merged


def _simulate_diagonal(
    packing: DiagonalPacking, weights: np.ndarray, bias: np.ndarray,
    x_slots: np.ndarray,
) -> np.ndarray:
    """Noiseless slot-level simulation of PackedDiagonalDense.forward."""
    babies = [_rotate_left(x_slots, s) for s in packing.baby_steps()]
    total = np.zeros(packing.slot_count)
    for g, giant in enumerate(packing.giant_steps()):
        partial = sum(
            baby * packing.weight_vector(g, b, weights)
            for b, baby in enumerate(babies)
        )
        total = total + _rotate_left(partial, giant)
    for step in packing.fold_steps():
        total = total + _rotate_left(total, step)
    return total + packing.bias_vector(bias)


# -- utilities -------------------------------------------------------------------


@pytest.mark.parametrize("x,expected", [(1, 1), (2, 2), (3, 4), (845, 1024), (4096, 4096)])
def test_next_pow2(x, expected):
    assert next_pow2(x) == expected


def test_next_pow2_rejects_zero():
    with pytest.raises(ValueError):
        next_pow2(0)


# -- SlotLayout ---------------------------------------------------------------------


def test_contiguous_layout_roundtrip():
    lay = SlotLayout.contiguous(slot_count=64, width=10)
    vals = np.arange(10, dtype=float)
    slots = lay.gather(vals)
    assert len(slots) == 1
    assert np.allclose(slots[0][:10], vals)
    assert np.allclose(slots[0][10:], 0.0)
    assert np.allclose(lay.extract(slots), vals)


def test_layout_validation():
    with pytest.raises(ValueError):
        SlotLayout.contiguous(slot_count=8, width=10)
    with pytest.raises(ValueError):
        SlotLayout(
            slot_count=8, num_cts=1,
            ct_index=np.array([0, 1]), slot_index=np.array([0, 1]), clean=True,
        )


# -- ConvPacking ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def mnist_conv_spec():
    return ConvSpec(
        in_channels=1, out_channels=5, kernel_size=5, stride=2, padding=1,
        in_size=28,
    )


def test_conv_packing_groups(mnist_conv_spec):
    pk = ConvPacking(spec=mnist_conv_spec, slot_count=4096)
    assert pk.maps_per_group == 5  # all 845 outputs fit one ciphertext
    assert pk.num_groups == 1


def test_conv_packing_multi_group():
    spec = ConvSpec(
        in_channels=3, out_channels=83, kernel_size=8, stride=2, padding=0,
        in_size=32,
    )
    pk = ConvPacking(spec=spec, slot_count=8192)
    assert pk.maps_per_group == 48
    assert pk.num_groups == 2


def test_conv_packing_rejects_oversized_positions():
    spec = ConvSpec(
        in_channels=1, out_channels=1, kernel_size=3, stride=1, padding=0,
        in_size=70,
    )
    with pytest.raises(ValueError):
        ConvPacking(spec=spec, slot_count=4096)


def test_conv_slot_simulation_matches_plain(mnist_conv_spec):
    """gather * weights accumulated over offsets == the plain convolution."""
    from repro.hecnn import PlainConv2d

    rng = np.random.default_rng(2)
    spec = mnist_conv_spec
    pk = ConvPacking(spec=spec, slot_count=4096)
    w = rng.normal(size=(5, 1, 5, 5))
    b = rng.normal(size=5)
    img = rng.uniform(0, 1, (1, 28, 28))

    gathered = pk.gather_offsets(img)
    acc = np.zeros(4096)
    for k, vec in enumerate(gathered):
        acc += vec * pk.weight_vector(0, k, w)
    acc += pk.bias_vector(0, b)

    plain = PlainConv2d(spec, w, b).forward(img)
    assert np.allclose(pk.output_layout().extract([acc]), plain)


def test_conv_multi_group_simulation():
    from repro.hecnn import PlainConv2d

    rng = np.random.default_rng(3)
    spec = ConvSpec(
        in_channels=1, out_channels=3, kernel_size=3, stride=1, padding=0,
        in_size=6,
    )
    pk = ConvPacking(spec=spec, slot_count=32)  # 16 positions -> 2 maps/group
    assert pk.num_groups == 2
    w = rng.normal(size=(3, 1, 3, 3))
    b = rng.normal(size=3)
    img = rng.uniform(0, 1, (1, 6, 6))
    gathered = pk.gather_offsets(img)
    outs = []
    for g in range(pk.num_groups):
        acc = np.zeros(32)
        for k, vec in enumerate(gathered):
            acc += vec * pk.weight_vector(g, k, w)
        acc += pk.bias_vector(g, b)
        outs.append(acc)
    plain = PlainConv2d(spec, w, b).forward(img)
    assert np.allclose(pk.output_layout().extract(outs), plain)


# -- DensePacking ----------------------------------------------------------------------


def test_dense_replicated_regime_detection():
    lay = SlotLayout.contiguous(slot_count=4096, width=845)
    pk = DensePacking(spec=DenseSpec(845, 100), input_layout=lay)
    assert pk.replicated
    assert pk.block_width == 1024
    assert pk.copies == 4
    assert pk.num_chunks == 25
    assert pk.replication_steps() == [4096 - 1024, 4096 - 2048]
    assert pk.merge_rotation_steps() == []


def test_dense_scattered_regime_detection():
    lay = SlotLayout.contiguous(slot_count=4096, width=845)
    fc1 = DensePacking(spec=DenseSpec(845, 100), input_layout=lay)
    fc2 = DensePacking(spec=DenseSpec(100, 10), input_layout=fc1.output_layout())
    assert not fc2.replicated
    assert fc2.num_chunks == 10
    phases = fc2.rotation_phases()
    assert len(phases) == 2
    assert phases[0].steps == (16, 8, 4, 2, 1)  # window 32 covers 25 offsets
    assert phases[1].steps == (1024, 2048)
    assert fc2.merge_rotation_steps() == [4095] * 9


def test_dense_layout_value_count_mismatch():
    lay = SlotLayout.contiguous(slot_count=64, width=10)
    with pytest.raises(ValueError):
        DensePacking(spec=DenseSpec(12, 4), input_layout=lay)


@pytest.mark.parametrize("in_features,out_features,slots", [
    (10, 4, 64),     # C = 4 copies, 1 chunk
    (10, 17, 64),    # chunks do not divide evenly
    (18, 8, 256),    # tiny-MNIST Fc1 shape
    (30, 12, 64),    # B = 32, C = 2
])
def test_dense_replicated_simulation(in_features, out_features, slots):
    rng = np.random.default_rng(in_features * 31 + out_features)
    lay = SlotLayout.contiguous(slot_count=slots, width=in_features)
    pk = DensePacking(
        spec=DenseSpec(in_features, out_features), input_layout=lay
    )
    assert pk.replicated
    w = rng.normal(size=(out_features, in_features))
    x = rng.normal(size=in_features)
    merged = _simulate_dense(pk, w, lay.gather(x))
    got = pk.output_layout().extract([merged])
    assert np.allclose(got, w @ x)


def test_dense_scattered_simulation():
    """Dense-after-dense: the second layer reads the first one's scattered
    output (with junk in every other slot) and still computes W2 @ y."""
    rng = np.random.default_rng(9)
    lay = SlotLayout.contiguous(slot_count=256, width=40)
    pk1 = DensePacking(spec=DenseSpec(40, 12), input_layout=lay)
    w1 = rng.normal(size=(12, 40))
    x = rng.normal(size=40)
    mid = _simulate_dense(pk1, w1, lay.gather(x))
    y = pk1.output_layout().extract([mid])
    assert np.allclose(y, w1 @ x)

    pk2 = DensePacking(spec=DenseSpec(12, 5), input_layout=pk1.output_layout())
    assert not pk2.replicated
    w2 = rng.normal(size=(5, 12))
    out = _simulate_dense(pk2, w2, [mid])
    got = pk2.output_layout().extract([out])
    assert np.allclose(got, w2 @ (w1 @ x))


def test_dense_multi_ct_simulation():
    """Dense over a two-ciphertext (conv multi-group) input."""
    rng = np.random.default_rng(10)
    # Build a clean 2-ct layout: values split across cts at low slots.
    ct_index = np.repeat([0, 1], 20)
    slot_index = np.concatenate([np.arange(20), np.arange(20)])
    lay = SlotLayout(
        slot_count=64, num_cts=2, ct_index=ct_index, slot_index=slot_index,
        clean=True,
    )
    pk = DensePacking(spec=DenseSpec(40, 6), input_layout=lay)
    assert not pk.replicated  # multi-ct forces scattered regime
    w = rng.normal(size=(6, 40))
    x = rng.normal(size=40)
    out = _simulate_dense(pk, w, lay.gather(x))
    got = pk.output_layout().extract([out])
    assert np.allclose(got, w @ x)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_dense_replicated_property(seed):
    rng = np.random.default_rng(seed)
    in_features = int(rng.integers(2, 30))
    out_features = int(rng.integers(1, 20))
    lay = SlotLayout.contiguous(slot_count=128, width=in_features)
    pk = DensePacking(
        spec=DenseSpec(in_features, out_features), input_layout=lay
    )
    w = rng.normal(size=(out_features, in_features))
    x = rng.normal(size=in_features)
    merged = _simulate_dense(pk, w, lay.gather(x))
    got = pk.output_layout().extract([merged])
    assert np.allclose(got, w @ x)


def test_dense_trace_rotation_steps_dedup():
    lay = SlotLayout.contiguous(slot_count=4096, width=845)
    pk = DensePacking(spec=DenseSpec(845, 100), input_layout=lay)
    layer = PackedDense("Fc1", pk, np.zeros((100, 845)), np.zeros(100))
    steps = list(layer.trace(level=7).rotation_steps)
    assert steps == sorted(set(steps))
    assert 512 in steps and 1 in steps and (4096 - 1024) in steps


# -- DiagonalPacking --------------------------------------------------------------------


@pytest.mark.parametrize("in_features,out_features,slots", [
    (10, 1, 64),        # one row: m = 1, no baby or giant rotation
    (20, 6, 64),        # rows not a power of two: m = 8
    (40, 64, 64),       # m = S: no fold
    (144, 16, 256),     # the N=512 builder network's first dense layer
    (845, 100, 1024),   # FxHENN-MNIST Fc1 at N=2048: 16 baby x 8 giant
])
def test_diagonal_simulation_fills_every_period_block(
    in_features, out_features, slots
):
    """Every ``m``-slot block holds W x + b, the padded rows hold zero, and
    slots beyond the input's width are ignored."""
    rng = np.random.default_rng(in_features + out_features)
    lay = SlotLayout.contiguous(slot_count=slots, width=in_features)
    pk = DiagonalPacking(
        spec=DenseSpec(in_features, out_features), input_layout=lay
    )
    assert pk.baby * pk.giant == pk.rows == next_pow2(out_features)
    w = rng.normal(size=(out_features, in_features))
    b = rng.normal(size=out_features)
    x = rng.normal(size=in_features)
    x_slots = rng.normal(size=slots)  # junk past the input's width
    x_slots[:in_features] = x
    out = _simulate_diagonal(pk, w, b, x_slots)
    y = w @ x + b
    for block in out.reshape(-1, pk.rows):
        assert np.allclose(block[:out_features], y)
        assert np.allclose(block[out_features:], 0.0)
    layout = pk.output_layout()
    assert layout.period == pk.rows
    assert np.allclose(layout.extract([out]), y)
    assert np.allclose(layout.gather(y)[0], out)


def test_diagonal_rotation_counts():
    lay = SlotLayout.contiguous(slot_count=1024, width=845)
    pk = DiagonalPacking(spec=DenseSpec(845, 100), input_layout=lay)
    assert (pk.rows, pk.baby, pk.giant) == (128, 16, 8)
    assert pk.giant_steps() == [0, 16, 32, 48, 64, 80, 96, 112]
    assert pk.fold_steps() == [512, 256, 128]
    layer = PackedDiagonalDense("Fc1", pk, np.zeros((100, 845)), np.zeros(100))
    assert len(layer.trace(level=7).rotation_steps) == 15 + 7 + 3


def test_diagonal_rejects_scattered_input():
    lay = SlotLayout(
        slot_count=64, num_cts=1, ct_index=np.zeros(4, dtype=np.int64),
        slot_index=np.array([0, 8, 16, 24]), clean=True,
    )
    with pytest.raises(ValueError, match="slots 0..in-1"):
        DiagonalPacking(spec=DenseSpec(4, 2), input_layout=lay)


def test_dense_after_diagonal_replicates_nothing():
    """A replicated dense layer reading a periodic layout takes its copies
    as they are: no replication rotation, and still W2 (W1 x + b1)."""
    rng = np.random.default_rng(12)
    lay = SlotLayout.contiguous(slot_count=256, width=144)
    fc1 = DiagonalPacking(spec=DenseSpec(144, 16), input_layout=lay)
    w1, b1 = rng.normal(size=(16, 144)), rng.normal(size=16)
    x = rng.normal(size=144)
    mid = _simulate_diagonal(fc1, w1, b1, lay.gather(x)[0])

    fc2 = DensePacking(spec=DenseSpec(16, 4), input_layout=fc1.output_layout())
    assert fc2.replicated and fc2.copies == 16
    assert fc2.replication_steps() == []
    w2 = rng.normal(size=(4, 16))
    out = _simulate_dense(fc2, w2, [mid])
    assert np.allclose(fc2.output_layout().extract([out]), w2 @ (w1 @ x + b1))


def test_period_replication_stops_at_the_period():
    """Copies every 2B slots leave one doubling (by B) to do."""
    values = np.arange(3, dtype=np.int64)
    lay = SlotLayout(
        slot_count=64, num_cts=1, ct_index=np.zeros(3, dtype=np.int64),
        slot_index=values, clean=True, period=8,
    )
    pk = DensePacking(spec=DenseSpec(3, 2), input_layout=lay)
    assert pk.block_width == 4 and pk.copies == 16
    assert pk.replication_steps() == [64 - 4]
    rng = np.random.default_rng(13)
    w, x = rng.normal(size=(2, 3)), rng.normal(size=3)
    out = _simulate_dense(pk, w, lay.gather(x))
    assert np.allclose(pk.output_layout().extract([out]), w @ x)


def test_period_layout_validation():
    with pytest.raises(ValueError, match="divide"):
        SlotLayout(
            slot_count=64, num_cts=1, ct_index=np.zeros(2, dtype=np.int64),
            slot_index=np.arange(2), clean=True, period=24,
        )
    with pytest.raises(ValueError, match="out of range"):
        SlotLayout(
            slot_count=64, num_cts=1, ct_index=np.zeros(2, dtype=np.int64),
            slot_index=np.array([0, 9]), clean=True, period=8,
        )
