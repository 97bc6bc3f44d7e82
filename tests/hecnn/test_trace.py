"""Tests for trace accounting and the HE-MAC cost model."""

from __future__ import annotations

import pytest

from repro.hecnn import LayerTrace, he_op_basic_ops, ntt_pass_basic_ops
from repro.optypes import HeOp


def _trace(**overrides) -> LayerTrace:
    base = dict(
        name="L",
        kind="NKS",
        op_counts={HeOp.PC_MULT: 2, HeOp.RESCALE: 2, HeOp.CC_ADD: 1},
        nks_units=2,
        ks_units=0,
        level=5,
        num_input_cts=2,
        num_output_cts=1,
    )
    base.update(overrides)
    return LayerTrace(**base)


def test_hop_and_ks_counts():
    t = _trace()
    assert t.hop_count == 5
    assert t.keyswitch_count == 0
    ks = _trace(
        kind="KS",
        op_counts={HeOp.KEY_SWITCH: 3, HeOp.CC_ADD: 3},
        ks_units=3,
    )
    assert ks.keyswitch_count == 3


def test_kind_must_match_ops():
    with pytest.raises(ValueError):
        _trace(kind="KS")  # no KeySwitch ops present
    with pytest.raises(ValueError):
        _trace(op_counts={HeOp.KEY_SWITCH: 1}, kind="NKS")
    with pytest.raises(ValueError):
        _trace(kind="weird")


def test_ops_used_table2_style():
    t = _trace(
        kind="KS",
        op_counts={
            HeOp.PC_MULT: 1, HeOp.RESCALE: 1, HeOp.KEY_SWITCH: 1,
            HeOp.CC_ADD: 1, HeOp.PC_ADD: 1,
        },
        ks_units=1,
    )
    # PCadd maps onto the CCadd module (OP1), so it must not appear twice.
    assert t.ops_used() == (
        HeOp.CC_ADD, HeOp.PC_MULT, HeOp.RESCALE, HeOp.KEY_SWITCH,
    )


def test_ntt_pass_scaling():
    assert ntt_pass_basic_ops(8192) == 3 * 4096 * 13
    # Doubling N slightly more than doubles the cost (extra stage).
    assert ntt_pass_basic_ops(16384) / ntt_pass_basic_ops(8192) == pytest.approx(
        2 * 14 / 13
    )


def test_elementwise_op_costs_scale_with_level():
    for op in (HeOp.CC_ADD, HeOp.PC_MULT, HeOp.PC_ADD, HeOp.CC_MULT):
        assert he_op_basic_ops(op, 1024, 6) == 2 * he_op_basic_ops(op, 1024, 3)


def test_keyswitch_dominates_per_op():
    """Table I's premise: KeySwitch is the most expensive HE operation."""
    n, lvl = 8192, 7
    costs = {op: he_op_basic_ops(op, n, lvl) for op in HeOp}
    assert costs[HeOp.KEY_SWITCH] == max(costs.values())
    assert costs[HeOp.KEY_SWITCH] > 2 * costs[HeOp.RESCALE]
    assert costs[HeOp.RESCALE] > 10 * costs[HeOp.PC_MULT]


def test_he_macs_aggregation():
    t = _trace()
    expected = (
        2 * he_op_basic_ops(HeOp.PC_MULT, 1024, 5)
        + 2 * he_op_basic_ops(HeOp.RESCALE, 1024, 5)
        + 1 * he_op_basic_ops(HeOp.CC_ADD, 1024, 5)
    )
    assert t.he_macs(1024) == expected


def test_network_trace_aggregates(mnist_model):
    trace = mnist_model.trace()
    assert trace.hop_count == sum(lt.hop_count for lt in trace.layers)
    assert trace.keyswitch_count == sum(lt.keyswitch_count for lt in trace.layers)
    with pytest.raises(KeyError):
        trace.layer("nope")


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        he_op_basic_ops("bogus", 1024, 3)  # type: ignore[arg-type]


def test_slice_semantics(mnist_model):
    trace = mnist_model.trace()
    sub = trace.slice(1, 3)
    assert sub.name == f"{trace.name}[1:3]"
    assert [lt.name for lt in sub.layers] == [
        lt.name for lt in trace.layers[1:3]
    ]
    assert sub.poly_degree == trace.poly_degree
    assert sub.base_level == trace.base_level
    assert sub.prime_bits == trace.prime_bits
    # Full-range slice returns the identical object (shared cache entry).
    assert trace.slice(0, len(trace.layers)) is trace
    for bad in ((2, 2), (-1, 3), (0, len(trace.layers) + 1)):
        with pytest.raises(ValueError):
            trace.slice(*bad)


def test_boundary_wire_bytes_exact(mnist_model):
    from repro.fhe import ciphertext_wire_size

    trace = mnist_model.trace()
    for cut in range(len(trace.layers) - 1):
        upstream = trace.layers[cut]
        downstream = trace.layers[cut + 1]
        assert trace.boundary_wire_bytes(cut) == (
            upstream.num_output_cts
            * ciphertext_wire_size(trace.poly_degree, downstream.level)
        )
    with pytest.raises(ValueError):
        trace.boundary_wire_bytes(len(trace.layers) - 1)
    with pytest.raises(ValueError):
        trace.boundary_wire_bytes(-1)


def test_model_wire_size_tracks_plaintext_format(mnist_model):
    from repro.fhe import plaintext_wire_size

    trace = mnist_model.trace()
    want = sum(
        lt.plaintext_count * plaintext_wire_size(trace.poly_degree, lt.level)
        for lt in trace.layers
    )
    assert trace.model_wire_size_bytes() == want
    # The wire format carries headers + 64-bit words, so it is strictly
    # larger than the native prime_bits-packed DRAM stream.
    assert trace.model_wire_size_bytes() > trace.model_size_bytes()
