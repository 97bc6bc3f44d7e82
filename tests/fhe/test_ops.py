"""Homomorphism tests: every evaluator op matches plaintext semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fhe import Evaluator, OperationRecorder
from repro.optypes import HeOp

ATOL = 5e-3


def _vals(ctx, seed, low=-2.0, high=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, ctx.slot_count)


# -- additions ----------------------------------------------------------------


def test_ccadd(ctx, evaluator):
    a, b = _vals(ctx, 1), _vals(ctx, 2)
    out = ctx.decrypt_values(
        evaluator.add(ctx.encrypt_values(a), ctx.encrypt_values(b))
    )
    assert np.allclose(out, a + b, atol=ATOL)


def test_pcadd(ctx, evaluator):
    a, b = _vals(ctx, 5), _vals(ctx, 6)
    out = ctx.decrypt_values(
        evaluator.add_plain(ctx.encrypt_values(a), ctx.encode(b))
    )
    assert np.allclose(out, a + b, atol=ATOL)


def test_add_mixed_levels(ctx, evaluator):
    a, b = _vals(ctx, 7), _vals(ctx, 8)
    ct_a = ctx.encrypt_values(a, level=3)
    ct_b = ctx.encrypt_values(b)  # full level
    out = evaluator.add(ct_a, ct_b)
    assert out.level == 3
    assert np.allclose(ctx.decrypt_values(out), a + b, atol=ATOL)


# -- multiplications -------------------------------------------------------------


def test_pcmult_rescale(ctx, evaluator):
    a, b = _vals(ctx, 9), _vals(ctx, 10)
    ct = evaluator.rescale(
        evaluator.multiply_plain(ctx.encrypt_values(a), ctx.encode(b))
    )
    assert ct.level == ctx.params.level - 1
    assert np.allclose(ctx.decrypt_values(ct), a * b, atol=ATOL)


def test_ccmult_relinearize_rescale(ctx, evaluator):
    a = _vals(ctx, 11, -1, 1)
    prod = evaluator.square(ctx.encrypt_values(a))
    assert prod.size == 3
    lin = evaluator.relinearize(prod)
    assert lin.size == 2
    out = evaluator.rescale(lin)
    assert np.allclose(ctx.decrypt_values(out), a**2, atol=ATOL)


def test_three_component_decrypts_without_relin(ctx, evaluator):
    """Decryption handles c0 + c1 s + c2 s^2 directly."""
    a = _vals(ctx, 13, -1, 1)
    prod = evaluator.square(ctx.encrypt_values(a))
    out = ctx.decrypt(prod)
    decoded = ctx.encoder.decode_real(out.poly, out.scale)
    assert np.allclose(decoded, a * a, atol=ATOL)


def test_square(ctx, evaluator):
    a = _vals(ctx, 14, -1.5, 1.5)
    out = evaluator.square_relinearize_rescale(ctx.encrypt_values(a))
    assert np.allclose(ctx.decrypt_values(out), a**2, atol=ATOL)


def test_scale_tracking_through_mult(ctx, evaluator):
    a = _vals(ctx, 15)
    ct = ctx.encrypt_values(a)
    prod = evaluator.multiply_plain(ct, ctx.encode(a))
    assert prod.scale == pytest.approx(ctx.scale * ctx.scale)
    rescaled = evaluator.rescale(prod)
    q_last = ct.basis.primes[-1]
    assert rescaled.scale == pytest.approx(ctx.scale * ctx.scale / q_last)


def test_multiplication_depth_chain(ctx, evaluator):
    """Chain L-1 scale-stationary plaintext multiplications down to level 1."""
    a = _vals(ctx, 16, 0.5, 1.2)
    ct = ctx.encrypt_values(a)
    expected = a.copy()
    for _ in range(ctx.params.level - 1):
        ct = evaluator.multiply_values_rescale(ct, a)
        expected = expected * a
    assert ct.level == 1
    assert ct.scale == pytest.approx(ctx.scale)  # scale-stationary
    assert np.allclose(ctx.decrypt_values(ct), expected, atol=5e-2)


# -- rotation ----------------------------------------------------------------------


@pytest.mark.parametrize("step", [1, 2, 4, 16, 128])
def test_rotate(ctx, evaluator, step):
    a = _vals(ctx, 17)
    out = ctx.decrypt_values(evaluator.rotate(ctx.encrypt_values(a), step))
    assert np.allclose(out, np.roll(a, -step), atol=ATOL)


def test_rotate_zero_is_identity(ctx, evaluator):
    a = _vals(ctx, 18)
    ct = ctx.encrypt_values(a)
    assert evaluator.rotate(ct, 0) is ct


def test_rotate_at_reduced_level(ctx, evaluator):
    a = _vals(ctx, 19)
    ct = evaluator.rescale(evaluator.multiply_plain(
        ctx.encrypt_values(a), ctx.encode(np.ones(ctx.slot_count))
    ))
    out = ctx.decrypt_values(evaluator.rotate(ct, 2))
    assert np.allclose(out, np.roll(a, -2), atol=ATOL)


def _rotate_direct(ctx, ct, step):
    """A rotation as one Galois map of both components and one key switch
    of the mapped ``c1`` (no shared decomposition)."""
    from repro.fhe.ops import _key_switch

    g = pow(5, step, 2 * ctx.params.poly_degree)
    c0, c1 = (c.galois_transform(g) for c in ct.components)
    k0, k1 = _key_switch(c1, ((None, ctx.galois_keys.get(step, ct.level)),))
    return [(c0.to_ntt() + k0).residues, k1.residues]


def test_rotate_hoisted_is_bit_identical_per_step(ctx):
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    ct = ctx.encrypt_values(_vals(ctx, 21))
    steps = [1, 2, 4, 16, 128]
    hoisted = ev.rotate_hoisted(ct, steps)
    assert rec.count(HeOp.KEY_SWITCH) == len(steps)
    for step, out in zip(steps, hoisted, strict=True):
        single = ev.rotate(ct, step)
        for got, a, b in zip(
            out.components, single.components, _rotate_direct(ctx, ct, step),
            strict=True,
        ):
            assert np.array_equal(got.to_ntt().residues, a.to_ntt().residues)
            assert np.array_equal(got.to_ntt().residues, b)
        assert out.scale == ct.scale and out.level == ct.level


def test_rotate_hoisted_zero_step_returns_input(ctx):
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    ct = ctx.encrypt_values(_vals(ctx, 22))
    zero, one, wrapped = ev.rotate_hoisted(ct, [0, 1, ctx.slot_count])
    assert zero is ct and wrapped is ct
    assert one is not ct
    assert rec.count(HeOp.KEY_SWITCH) == 1
    assert ev.rotate_hoisted(ct, [0]) == [ct]


def test_rotate_hoisted_missing_key_raises(ctx, evaluator):
    ct = ctx.encrypt_values(_vals(ctx, 23))
    with pytest.raises(KeyError, match="rotation step 3"):
        evaluator.rotate_hoisted(ct, [1, 3])


def test_rotate_hoisted_observed_as_one_rotate_per_step(ctx, evaluator):
    from repro.fhe import NoiseEstimator

    ct = ctx.encrypt_values(_vals(ctx, 24))
    tracker = obs.LineageTracker(estimator=NoiseEstimator.for_context(ctx))
    with obs.observed(), obs.lineage_context(tracker):
        outs = evaluator.rotate_hoisted(ct, [0, 1, 2, 4])
        spans = {
            r["name"]: r["count"]
            for r in obs.get_tracer().summary(category="he_op")
        }
    assert spans == {"Rotate": 3}
    assert tracker.op_counts() == {"Source": 1, "Rotate": 3}
    assert tracker.propagation_failures == 0
    for out in outs[1:]:
        node = tracker.nodes[out.lineage_id]
        assert node.parents == (ct.lineage_id,)
        assert node.noise_bits_after is not None


def test_rotate_fold_hoisted_matches_sequential(ctx, evaluator, monkeypatch):
    from repro.fhe import ops
    from repro.fhe.ops import fold_composite_steps

    steps = [4, 2, 1]
    composites = fold_composite_steps(steps, ctx.slot_count)
    assert composites  # the grouping walk must find at least one group
    ctx.ensure_galois_keys(sorted(set(steps) | set(composites)))
    a = _vals(ctx, 40)
    ct = ctx.encrypt_values(a)
    hoisted = evaluator.rotate_fold(ct, steps)
    # A fold group size of one forces the sequential rotate/add walk.
    monkeypatch.setattr(ops, "_FOLD_GROUP", 1)
    sequential = evaluator.rotate_fold(ct, steps)
    expected = a.copy()
    for s in steps:
        expected = expected + np.roll(expected, -s)
    assert np.allclose(ctx.decrypt_values(hoisted), expected, atol=ATOL)
    assert np.allclose(ctx.decrypt_values(sequential), expected, atol=ATOL)


def test_rotate_fold_missing_composite_key_raises(ctx, evaluator):
    """A fold fetches the keys of the groups ``fold_composite_steps``
    lists: missing one of them raises ``KeyError``."""
    from repro.fhe.ops import fold_composite_steps

    steps = [8, 16, 32]
    sums = fold_composite_steps(steps, ctx.slot_count)
    assert 56 in sums
    ct = ctx.encrypt_values(_vals(ctx, 41))
    ctx.ensure_rotation_keys([(s, ct.level) for s in sums if s != 56])
    with pytest.raises(KeyError, match="rotation step 56"):
        evaluator.rotate_fold(ct, steps)


def test_fold_composite_steps_mirrors_grouping():
    from repro.fhe.ops import _subset_steps, fold_composite_steps

    # A 3-step group advertises all non-empty subset sums.
    assert _subset_steps((4, 2, 1), 256) == [4, 2, 6, 1, 5, 3, 7]
    # Zero steps (or zero subset sums) kill the group.
    assert _subset_steps((0, 2), 256) is None
    assert _subset_steps((128, 128), 256) is None
    # The provisioning walk matches rotate_fold's greedy grouping: one
    # triple from [4, 2, 1], then the trailing single adds nothing.
    assert fold_composite_steps([4, 2, 1, 16], 256) == [4, 2, 6, 1, 5, 3, 7]
    # Steps congruent to zero are skipped exactly like the runtime walk.
    assert fold_composite_steps([256, 8], 256) == []


# -- guards --------------------------------------------------------------------------


def test_scale_mismatch_raises(ctx, evaluator):
    a = ctx.encrypt_values(np.ones(4))
    b = evaluator.multiply_plain(ctx.encrypt_values(np.ones(4)), ctx.encode(np.ones(4)))
    with pytest.raises(ValueError, match="scale mismatch"):
        evaluator.add(a, b)


def test_relinearize_missing_key_raises(small_params):
    from repro.fhe import CkksContext

    bare = CkksContext(small_params, seed=77)
    ev = Evaluator(bare)
    ct = bare.encrypt_values(np.ones(4))
    with pytest.raises(KeyError, match="relinearization"):
        ev.relinearize(ev.square(ct))


def test_rotate_requires_linear(ctx, evaluator):
    ct = evaluator.square(ctx.encrypt_values(np.ones(4)))
    with pytest.raises(ValueError):
        evaluator.rotate(ct, 1)
    with pytest.raises(ValueError):
        evaluator.rotate_fold(ct, [])


def test_mod_switch_cannot_raise_level(ctx, evaluator):
    ct = ctx.encrypt_values(np.ones(4), level=2)
    with pytest.raises(ValueError):
        evaluator.mod_switch_to_level(ct, 3)


# -- cost order ----------------------------------------------------------------------


def _ntt_rows() -> int:
    reg = obs.get_registry()
    return sum(
        reg.counter("ntt_transform_rows", direction=d).value
        for d in ("forward", "inverse")
    )


def test_ntt_rows_follow_table1_order(ctx, evaluator):
    """Table I's cost order in software, KeySwitch > Rescale >> elementwise,
    as the row transforms each op runs at level 4.  A KeySwitch with one
    digit per prime transforms (l+1)(l+2) rows; a Rescale moves the last
    prime of both components out and back into l-1 primes.  Row counts do
    not depend on N (the same at N=2048)."""
    ct = ctx.encrypt_values(_vals(ctx, 40))
    squared = evaluator.square(ct)
    product = evaluator.multiply_plain(ct, ctx.encode(_vals(ctx, 41)))

    def rows(op, *args) -> int:
        before = _ntt_rows()
        op(*args)
        return _ntt_rows() - before

    assert {
        "rotate": rows(evaluator.rotate, ct, 1),
        "relinearize": rows(evaluator.relinearize, squared),
        "rescale": rows(evaluator.rescale, product),
        "add": rows(evaluator.add, ct, ct),
    } == {"rotate": 30, "relinearize": 30, "rescale": 8, "add": 0}


# -- operation recording ------------------------------------------------------------


def test_recorder_counts_ops(ctx):
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    a = ctx.encrypt_values(np.ones(4))
    b = ctx.encrypt_values(np.ones(4))
    ct = ev.add(a, b)
    ct = ev.multiply_plain(ct, ctx.encode(np.ones(4)))
    ct = ev.rescale(ct)
    ct = ev.square(ct)
    ct = ev.relinearize(ct)
    ct = ev.rotate(ev.rescale(ct), 1)
    assert rec.count(HeOp.CC_ADD) == 1
    assert rec.count(HeOp.PC_MULT) == 1
    assert rec.count(HeOp.RESCALE) == 2
    assert rec.count(HeOp.CC_MULT) == 1
    assert rec.count(HeOp.KEY_SWITCH) == 2  # relin + rotate
    assert rec.total == 7


def test_recorder_phases(ctx):
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    rec.set_phase("layer1")
    ev.add(ctx.encrypt_values(np.ones(4)), ctx.encrypt_values(np.ones(4)))
    rec.set_phase("layer2")
    ev.rescale(ev.multiply_plain(ctx.encrypt_values(np.ones(4)), ctx.encode(np.ones(4))))
    rec.set_phase(None)
    assert rec.by_phase["layer1"] == {HeOp.CC_ADD: 1}
    assert rec.by_phase["layer2"] == {HeOp.PC_MULT: 1, HeOp.RESCALE: 1}


@given(step=st.integers(min_value=1, max_value=255))
@settings(max_examples=10, deadline=None)
def test_rotation_group_property(step):
    """Rotation steps compose additively modulo the slot count (on plaintexts,
    via the Galois group) — checked on the encoder level for arbitrary steps."""
    import numpy as np

    from repro.fhe.encoder import CkksEncoder
    from repro.fhe.modmath import generate_ntt_primes
    from repro.fhe.poly import RnsBasis

    n = 64
    enc = CkksEncoder(n)
    basis = RnsBasis(n, tuple(generate_ntt_primes(26, 1, n)))
    rng = np.random.default_rng(step)
    vals = rng.uniform(-1, 1, enc.slot_count)
    pt = enc.encode(vals, 2.0**20, basis)
    g = pow(5, step % (n // 2), 2 * n)
    out = enc.decode_real(pt.galois_transform(g), 2.0**20)
    assert np.allclose(out, np.roll(vals, -(step % (n // 2))), atol=1e-3)
