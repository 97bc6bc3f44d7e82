"""The fused evaluator sums and the one-transform encryption are
bit-identical to the sequential code they replace.

``multiply_plain_sum`` must equal ``multiply_plain`` + ``add`` and
``multiply_plain_rescale_sum`` must equal ``multiply_plain`` + ``rescale``
+ ``add``, residues and scale alike, record the same logical operations,
and carry the same analytic noise bound in a lineage DAG.  Worst-case
operands (every residue ``q - 1``) push the uint64 accumulator past its
lazy budget at 30-bit primes, where an unreduced sum overflows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.fhe import (
    CkksContext,
    CkksParameters,
    Evaluator,
    NoiseEstimator,
    OperationRecorder,
    tiny_test_params,
)
from repro.fhe.ciphertext import Ciphertext, Plaintext
from repro.fhe.poly import RnsPolynomial
from repro.fhe.sampling import sample_gaussian, sample_uniform
from repro.hecnn import tiny_mnist_model
from repro.optypes import HeOp

_U64 = np.uint64


def sequential_plain_sum(ev, cts, pts):
    """The PCmult + CCadd loop that ``multiply_plain_sum`` fuses."""
    acc = None
    for ct, pt in zip(cts, pts):
        term = ev.multiply_plain(ct, pt)
        acc = term if acc is None else ev.add(acc, term)
    return acc


def sequential_rescale_sum(ev, cts, pts):
    """The PCmult + Rescale + CCadd loop ``multiply_plain_rescale_sum``
    fuses (the NKS-layer pipeline)."""
    acc = None
    for ct, pt in zip(cts, pts):
        term = ev.rescale(ev.multiply_plain(ct, pt))
        acc = term if acc is None else ev.add(acc, term)
    return acc


@pytest.fixture(scope="module", params=[28, 30], ids=["28bit", "30bit"])
def ring(request):
    params = CkksParameters(poly_degree=64, prime_bits=request.param, level=3)
    return CkksContext(params, seed=5)


def _residues(basis, rng, worst: bool) -> np.ndarray:
    if worst:
        return np.array(
            [[q - 1] * basis.n for q in basis.primes], dtype=_U64
        )
    return np.stack(
        [rng.integers(0, q, basis.n).astype(_U64) for q in basis.primes]
    )


def _terms(ctx, k, seed, worst=False, level=None):
    """``k`` NTT-resident ciphertexts and plaintexts at one level."""
    rng = np.random.default_rng(seed)
    basis = ctx.basis(level)
    cts = [
        Ciphertext(
            components=tuple(
                RnsPolynomial(basis, _residues(basis, rng, worst), is_ntt=True)
                for _ in range(2)
            ),
            scale=ctx.scale,
        )
        for _ in range(k)
    ]
    pts = [
        Plaintext(
            poly=RnsPolynomial(basis, _residues(basis, rng, worst), is_ntt=True),
            scale=float(basis.primes[-1]),
        )
        for _ in range(k)
    ]
    return cts, pts


def _fresh(cts):
    """Copies without lineage IDs: a tracker assigns IDs from its own
    counter, so ciphertexts that another tracker labelled could alias its
    nodes."""
    return [Ciphertext(components=ct.components, scale=ct.scale) for ct in cts]


def _assert_same(got, want):
    assert got.scale == want.scale
    assert got.level == want.level
    for a, b in zip(got.components, want.components, strict=True):
        assert a.is_ntt and b.is_ntt
        assert np.array_equal(a.residues, b.residues)


CASES = [(1, False), (5, False), (40, False), (40, True)]


@pytest.mark.parametrize("k,worst", CASES)
def test_plain_sum_equals_pcmult_ccadd_loop(ring, k, worst):
    cts, pts = _terms(ring, k, seed=k, worst=worst)
    rec = OperationRecorder()
    got = Evaluator(ring, rec).multiply_plain_sum(cts, pts)
    _assert_same(got, sequential_plain_sum(Evaluator(ring), cts, pts))
    expected = {HeOp.PC_MULT: k}
    if k > 1:
        expected[HeOp.CC_ADD] = k - 1
    assert rec.counts == expected


@pytest.mark.parametrize("k,worst", CASES)
def test_rescale_sum_equals_pcmult_rescale_ccadd_loop(ring, k, worst):
    cts, pts = _terms(ring, k, seed=100 + k, worst=worst)
    rec = OperationRecorder()
    got = Evaluator(ring, rec).multiply_plain_rescale_sum(cts, pts)
    _assert_same(got, sequential_rescale_sum(Evaluator(ring), cts, pts))
    expected = {HeOp.PC_MULT: k, HeOp.RESCALE: k}
    if k > 1:
        expected[HeOp.CC_ADD] = k - 1
    assert rec.counts == expected


def test_fused_sums_take_coefficient_domain_and_higher_plaintexts(ring):
    cts, _ = _terms(ring, 3, seed=7, level=2)
    _, pts = _terms(ring, 3, seed=8)  # one level above the ciphertexts
    cts = [
        Ciphertext(
            components=tuple(c.to_coefficient() for c in ct.components),
            scale=ct.scale,
        )
        for ct in cts
    ]
    pts = [Plaintext(poly=pt.poly.to_coefficient(), scale=pt.scale)
           for pt in pts]
    ev = Evaluator(ring)
    _assert_same(ev.multiply_plain_sum(cts, pts),
                 sequential_plain_sum(ev, cts, pts))
    _assert_same(ev.multiply_plain_rescale_sum(cts, pts),
                 sequential_rescale_sum(ev, cts, pts))


def test_rescale_sum_transforms_once(ring):
    """``k`` inverse rows per component, one forward (L-1)-row batch."""
    k, level = 6, ring.params.level
    cts, pts = _terms(ring, k, seed=9)
    reg = obs.get_registry()
    fwd = reg.counter("ntt_transform_rows", direction="forward")
    inv = reg.counter("ntt_transform_rows", direction="inverse")
    before = fwd.value, inv.value
    Evaluator(ring).multiply_plain_rescale_sum(cts, pts)
    assert (fwd.value - before[0], inv.value - before[1]) == (
        2 * (level - 1), 2 * k
    )


@pytest.mark.parametrize(
    "op", ["multiply_plain_sum", "multiply_plain_rescale_sum"]
)
def test_fused_sums_reject_mismatched_terms(ring, op):
    ev = Evaluator(ring)
    fused = getattr(ev, op)
    cts, pts = _terms(ring, 2, seed=10)
    low, low_pts = _terms(ring, 1, seed=11, level=2)
    with pytest.raises(ValueError, match="level mismatch"):
        fused([cts[0], low[0]], [pts[0], pts[1]])
    with pytest.raises(ValueError, match="below ciphertext level"):
        fused(cts, [pts[0], low_pts[0]])
    off_scale = Plaintext(poly=pts[1].poly, scale=pts[1].scale * 2)
    with pytest.raises(ValueError, match="scale mismatch"):
        fused(cts, [pts[0], off_scale])
    with pytest.raises(ValueError, match="one plaintext per ciphertext"):
        fused(cts, pts[:1])
    with pytest.raises(ValueError, match="one plaintext per ciphertext"):
        fused([], [])


def test_rescale_sum_rejects_level_one(ring):
    cts, pts = _terms(ring, 2, seed=15, level=1)
    with pytest.raises(ValueError, match="level-1"):
        Evaluator(ring).multiply_plain_rescale_sum(cts, pts)


# -- encryption ---------------------------------------------------------------


def _unfused_encrypt(ctx, plaintext):
    """``(-a*s + e + m, a)`` with the secret, ``e`` and ``m`` each
    transformed on their own."""
    basis = plaintext.basis
    a = sample_uniform(basis, ctx.rng)
    e = sample_gaussian(basis, ctx.rng, ctx.params.error_std).to_ntt()
    m = plaintext.poly.to_ntt()
    s = ctx.keygen.secret_key.to_basis(basis)
    return -(a * s) + e + m, a


@pytest.mark.parametrize("ntt_resident", [False, True], ids=["coeff", "ntt"])
@pytest.mark.parametrize("level", [None, 2])
def test_encrypt_equals_four_transform_formula(ring, ntt_resident, level):
    values = np.random.default_rng(12).uniform(-1, 1, ring.slot_count)
    pt = ring.encode(values, level=level)
    if ntt_resident:
        pt = Plaintext(poly=pt.poly.to_ntt(), scale=pt.scale)
    state = ring.rng.bit_generator.state
    reg = obs.get_registry()
    fwd = reg.counter("ntt_transform_rows", direction="forward")
    before = fwd.value
    ct = ring.encrypt(pt)
    rows = fwd.value - before
    after = ring.rng.bit_generator.state
    ring.rng.bit_generator.state = state
    c0, c1 = _unfused_encrypt(ring, pt)
    assert ring.rng.bit_generator.state == after  # same draws, same order
    assert np.array_equal(ct.components[0].residues, c0.residues)
    assert np.array_equal(ct.components[1].residues, c1.residues)
    assert ct.scale == pt.scale
    # ``a`` is drawn in the NTT domain: one forward transform, of e + m
    # (or of e alone beside an NTT-resident message).
    assert rows == pt.level


# -- lineage -------------------------------------------------------------------


def test_fused_bounds_compose_the_per_op_rules(ring):
    """A fused node's bound is float-equal to the sequential loop's, and
    it names every term as a parent."""
    k = 5
    values = np.random.default_rng(14).uniform(-1, 1, (k, ring.slot_count))
    cts = [ring.encrypt_values(v) for v in values]
    q_last = float(cts[0].basis.primes[-1])
    pts = [
        ring.encode(np.full(ring.slot_count, 0.1 * (i + 1)), scale=q_last)
        for i in range(k)
    ]
    ev = Evaluator(ring)
    est = NoiseEstimator.for_context(ring)
    for fused, sequential in (
        (ev.multiply_plain_sum, sequential_plain_sum),
        (ev.multiply_plain_rescale_sum, sequential_rescale_sum),
    ):
        seq_tracker = obs.LineageTracker(estimator=est)
        fused_tracker = obs.LineageTracker(estimator=est)
        with obs.observed():
            with obs.lineage_context(seq_tracker):
                want = sequential(ev, _fresh(cts), pts)
            with obs.lineage_context(fused_tracker):
                got = fused(_fresh(cts), pts)
        assert fused_tracker.bound_of(got) == seq_tracker.bound_of(want)
        (node,) = [n for n in fused_tracker.nodes.values() if n.parents]
        assert len(node.parents) == k
        assert list(node.parents) == fused_tracker.roots()
        assert fused_tracker.propagation_failures == 0


def test_tiny_lineage_equals_the_sequential_execution(monkeypatch):
    """Tiny-MNIST's waterfall and final bits are unchanged by the fusion."""
    params = tiny_test_params(poly_degree=512, level=7)
    model = tiny_mnist_model(seed=0, params=params)
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    image = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    cts = model.encrypt_input(context, image)

    def tracked():
        tracker = obs.LineageTracker(
            estimator=NoiseEstimator.for_context(context)
        )
        with obs.observed(), obs.lineage_context(tracker):
            model.forward_encrypted(Evaluator(context), _fresh(cts))
        return tracker

    fused = tracked()
    monkeypatch.setattr(Evaluator, "multiply_plain_sum", sequential_plain_sum)
    monkeypatch.setattr(
        Evaluator, "multiply_plain_rescale_sum", sequential_rescale_sum
    )
    sequential = tracked()

    def rows(tracker):
        return [
            {k: v for k, v in row.items() if k != "worst_lineage_id"}
            for row in tracker.waterfall()
        ]

    assert fused.final_bits == sequential.final_bits
    assert rows(fused) == rows(sequential)
    assert "PCmultRescaleSum" in fused.op_counts()
    assert "PCmultRescaleSum" not in sequential.op_counts()
