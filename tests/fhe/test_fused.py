"""The fused evaluator ops and the one-transform encryption are
bit-identical to the sequences of primitives they execute.

``multiply_plain_rescale_sum`` must equal the ``multiply_plain`` + ``add``
loop followed by one ``rescale``, residues and scale alike, record the
logical operations of the loop it replaces (a Rescale per term), and
carry the bound of the ops it executes in a lineage DAG.  Worst-case
operands (every residue ``q - 1``) push the uint64 accumulator past its
lazy budget at 30-bit primes, where an unreduced sum overflows.

The divisions by the special prime ``P`` are deferred and fused:
``rescale_twice`` must equal ``rescale_polys`` applied twice, and
``multiply_diagonals`` its product sums kept over ``Q_l P`` and divided
twice, then its giant rotations kept over ``Q_{l-1} P``, summed and
divided once.  Its result stays within the bound of the loop it replaces.
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
from repro.fhe import ops
from repro.fhe.ciphertext import Ciphertext, Plaintext
from repro.fhe.dryrun import DryRunEvaluator, dry_inputs
from repro.fhe.poly import RnsPolynomial, rescale_polys, rescale_twice
from repro.fhe.sampling import sample_gaussian, sample_uniform
from repro.hecnn import tiny_mnist_model
from repro.optypes import HeOp

_U64 = np.uint64


def sequential_plain_sum(ev, cts, pts):
    """The PCmult + CCadd loop whose sum ``multiply_plain_rescale_sum``
    rescales once."""
    acc = None
    for ct, pt in zip(cts, pts):
        term = ev.multiply_plain(ct, pt)
        acc = term if acc is None else ev.add(acc, term)
    return acc


def sequential_rescale_sum(ev, cts, pts):
    """The PCmult + CCadd loop and one Rescale: what
    ``multiply_plain_rescale_sum`` executes."""
    return ev.rescale(sequential_plain_sum(ev, cts, pts))


def per_term_rescale_sum(ev, cts, pts):
    """The PCmult + Rescale + CCadd loop ``multiply_plain_rescale_sum``
    replaces (the NKS-layer pipeline of paper Listing 1)."""
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
def test_rescale_sum_equals_pcmult_rescale_ccadd_loop(ring, k, worst):
    """One Rescale of the product sum, recorded as the per-term loop.  The
    loop rounds each of its ``k`` divisions on its own, so it differs from
    the one Rescale by an integer polynomial below ``(k + 1) / 2``."""
    cts, pts = _terms(ring, k, seed=100 + k, worst=worst)
    rec = OperationRecorder()
    got = Evaluator(ring, rec).multiply_plain_rescale_sum(cts, pts)
    _assert_same(got, sequential_rescale_sum(Evaluator(ring), cts, pts))
    expected = {HeOp.PC_MULT: k, HeOp.RESCALE: k}
    if k > 1:
        expected[HeOp.CC_ADD] = k - 1
    assert rec.counts == expected
    loop = per_term_rescale_sum(Evaluator(ring), cts, pts)
    for a, b in zip(got.components, loop.components):
        gap = np.abs(np.array((a - b).to_integer_coefficients(), dtype=float))
        assert gap.max() < (k + 1) / 2


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
    _assert_same(ev.multiply_plain_rescale_sum(cts, pts),
                 sequential_rescale_sum(ev, cts, pts))


def _rows(fn, *args):
    """``(forward, inverse)`` NTT rows transformed by ``fn(*args)``, and
    its result."""
    reg = obs.get_registry()
    fwd = reg.counter("ntt_transform_rows", direction="forward")
    inv = reg.counter("ntt_transform_rows", direction="inverse")
    before = fwd.value, inv.value
    out = fn(*args)
    return (fwd.value - before[0], inv.value - before[1]), out


def test_rescale_sum_transforms_once(ring):
    """One inverse row per component and one forward (L-1)-row batch,
    whatever the number of terms."""
    k, level = 6, ring.params.level
    cts, pts = _terms(ring, k, seed=9)
    rows, _ = _rows(Evaluator(ring).multiply_plain_rescale_sum, cts, pts)
    assert rows == (2 * (level - 1), 2)


def test_fused_sums_reject_mismatched_terms(ring):
    fused = Evaluator(ring).multiply_plain_rescale_sum
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
    """A fused node's bound is float-equal to that of the ops it executes,
    and it names every term as a parent."""
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
    seq_tracker = obs.LineageTracker(estimator=est)
    fused_tracker = obs.LineageTracker(estimator=est)
    with obs.observed():
        with obs.lineage_context(seq_tracker):
            want = sequential_rescale_sum(ev, _fresh(cts), pts)
        with obs.lineage_context(fused_tracker):
            got = ev.multiply_plain_rescale_sum(_fresh(cts), pts)
    assert fused_tracker.bound_of(got) == seq_tracker.bound_of(want)
    (node,) = [n for n in fused_tracker.nodes.values() if n.parents]
    assert len(node.parents) == k
    assert list(node.parents) == fused_tracker.roots()
    assert fused_tracker.propagation_failures == 0


def test_tiny_lineage_equals_the_sequential_execution(monkeypatch):
    """Tiny-MNIST's waterfall and final bits are those of the primitives
    each fused sum executes."""
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


# -- deferred divisions by the special prime -----------------------------------


def _extended_polys(ctx, seed, worst=False, count=2):
    """``count`` NTT-domain polynomials over the chain plus ``P``."""
    rng = np.random.default_rng(seed)
    ext = ctx.keygen.extended_basis(ctx.params.level)
    return tuple(
        RnsPolynomial(ext, _residues(ext, rng, worst), is_ntt=True)
        for _ in range(count)
    )


@pytest.mark.parametrize("worst", [False, True], ids=["random", "q-1"])
def test_rescale_twice_equals_rescale_polys_twice(ring, worst):
    """Over the chain plus ``P`` (a ModDown and a Rescale) and over the
    chain alone (two Rescales)."""
    ext = _extended_polys(ring, seed=20, worst=worst, count=3)
    chain = tuple(
        RnsPolynomial(ring.basis(), p.residues[:-1], is_ntt=True) for p in ext
    )
    for polys in (ext, chain):
        rows, got = _rows(rescale_twice, polys)
        want = rescale_polys(rescale_polys(polys))
        level = polys[0].basis.level
        # Two inverse rows and L - 2 forward rows per polynomial.
        assert rows == (3 * (level - 2), 3 * 2)
        for a, b in zip(got, want, strict=True):
            assert a.basis == b.basis and a.is_ntt
            assert np.array_equal(a.residues, b.residues)


def test_rescale_twice_rejects_two_primes(ring):
    two = ring.basis(2)
    with pytest.raises(ValueError, match="at least three"):
        rescale_twice((RnsPolynomial.zero(two, is_ntt=True),))


BABIES, GIANTS = (0, 1, 2, 3), (0, 4, 8)


@pytest.fixture(scope="module")
def keyed(ring):
    """``ring`` with the Galois keys of :data:`BABIES` and
    :data:`GIANTS`."""
    level = ring.params.level
    ring.ensure_rotation_keys(
        [(s, level) for s in BABIES if s]
        + [(s, level - 1) for s in GIANTS if s]
    )
    return ring


def _diagonals(slots, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    table = rng.uniform(-scale, scale, (len(GIANTS), len(BABIES), slots))
    return lambda gi, bi: table[gi, bi]


def logical_loop(ev, ct, diagonal):
    """The loop ``multiply_diagonals`` replaces, from ``ev``'s primitives:
    hoisted baby rotations, per giant step a PCmult sum, a Rescale and a
    rotation, added."""
    babies = ev.rotate_hoisted(ct, BABIES)
    q_last = float(ct.basis.primes[-1])
    total = None
    for gi, giant in enumerate(GIANTS):
        pts = [
            ev.encode_cached(diagonal(gi, bi), level=ct.level, scale=q_last)
            for bi in range(len(BABIES))
        ]
        partial = sequential_plain_sum(ev, babies, pts)
        partial = ev.rotate(ev.rescale(partial), giant)
        total = partial if total is None else ev.add(total, partial)
    return total


def _over_qp(ctx, level, comps, step):
    """The rotation of ``comps`` by ``step`` kept over ``Q_level P``, from
    the key-switch primitives and polynomial ops: ``(P * rot(c0) + ks0,
    ks1)``, or ``P * (c0, c1)`` for step 0."""
    ext = ctx.keygen.extended_basis(level)
    p = ext.primes[-1]
    c0, c1 = (c.to_ntt() for c in comps)

    def times_p(poly):
        rows = np.zeros((ext.level, ext.n), dtype=_U64)
        rows[:-1] = poly.scalar_multiply(p).residues
        return RnsPolynomial(ext, rows, is_ntt=True)

    if not step:
        return times_p(c0), times_p(c1)
    g = pow(5, step, 2 * ext.n)
    key = ctx.galois_keys.get(step, level)
    ks = ops._inner_product(
        ops._lift(c1, (key,)), ((ext.ntt().galois_permutation(g), key),),
        ext.ntt(),
    )
    return (
        times_p(c0.galois_transform(g)) + RnsPolynomial(ext, ks[0], True),
        RnsPolynomial(ext, ks[1], True),
    )


def _giant_partials(ctx, ct, diagonal):
    """Each giant step's products of the baby rotations kept over ``Q_l
    P``, summed with modular adds and divided by ``rescale_polys``
    twice."""
    ext = ctx.keygen.extended_basis(ct.level)
    babies = [_over_qp(ctx, ct.level, ct.components, s) for s in BABIES]
    q_last = float(ct.basis.primes[-1])
    partials = []
    for gi in range(len(GIANTS)):
        acc = None
        for bi, baby in enumerate(babies):
            pt = ctx.encoder.encode(diagonal(gi, bi), q_last, ext).to_ntt()
            term = tuple(c * pt for c in baby)
            acc = term if acc is None else tuple(
                a + t for a, t in zip(acc, term)
            )
        partials.append(Ciphertext(
            components=rescale_polys(rescale_polys(acc)),
            scale=ct.scale * q_last / ct.basis.primes[-1],
        ))
    return partials


def _bsgs_oracle(ctx, ct, diagonal):
    """The fused op's arithmetic: :func:`_giant_partials`, each rotated by
    its giant step and kept over ``Q_{l-1} P``, summed with modular adds
    and divided by ``rescale_polys`` once."""
    partials = _giant_partials(ctx, ct, diagonal)
    total = None
    for partial, step in zip(partials, GIANTS):
        term = _over_qp(ctx, ct.level - 1, partial.components, step)
        total = term if total is None else tuple(
            a + t for a, t in zip(total, term)
        )
    return Ciphertext(components=rescale_polys(total), scale=partials[0].scale)


@pytest.mark.parametrize("worst", [False, True], ids=["random", "q-1"])
def test_multiply_diagonals_equals_its_sums_over_qp(keyed, worst):
    """The whole op against :func:`_bsgs_oracle`.  Its dry run records the
    HOPs of the logical loop and fetches and encodes what the op does."""
    (ct,), _ = _terms(keyed, 1, seed=22, worst=worst)
    diagonal = _diagonals(keyed.slot_count, seed=23)
    rec = OperationRecorder()
    got = Evaluator(keyed, rec).multiply_diagonals(
        ct, BABIES, GIANTS, diagonal, cache_key=None
    )
    _assert_same(got, _bsgs_oracle(keyed, ct, diagonal))
    dry = DryRunEvaluator(keyed.slot_count)
    out = dry.multiply_diagonals(
        dry_inputs(1, ct.level)[0], BABIES, GIANTS, diagonal, cache_key="d"
    )
    loop = DryRunEvaluator(keyed.slot_count)
    logical_loop(loop, dry_inputs(1, ct.level)[0], diagonal)
    assert rec.counts == dry.recorder.counts == loop.recorder.counts
    assert out.level == got.level
    assert dry.keys == loop.keys == {(s, ct.level) for s in BABIES if s} | {
        (s, ct.level - 1) for s in GIANTS if s
    }
    assert len(dry.plaintexts) == len(BABIES) * len(GIANTS)


def test_giant_rotations_divide_once(keyed):
    """The giant rotations' sum divided by ``P`` once differs from adding
    the separately rotated partial sums (a ModDown each) by an integer
    polynomial below ``(r + 1) / 2`` for ``r`` non-zero giant steps."""
    (ct,), _ = _terms(keyed, 1, seed=24)
    diagonal = _diagonals(keyed.slot_count, seed=25)
    got = Evaluator(keyed).multiply_diagonals(
        ct, BABIES, GIANTS, diagonal, cache_key=None
    )
    ev = Evaluator(keyed)
    want = None
    for partial, step in zip(_giant_partials(keyed, ct, diagonal), GIANTS):
        term = ev.rotate(partial, step)
        want = term if want is None else ev.add(want, term)
    rotations = sum(1 for s in GIANTS if s)
    assert got.level == want.level and got.scale == want.scale
    for a, b in zip(got.components, want.components, strict=True):
        gap = np.abs(np.array((a - b).to_integer_coefficients(), dtype=float))
        assert gap.max() < (rotations + 1) / 2


def test_multiply_diagonals_within_the_sequential_bound():
    """Decrypted, the op stays within the analytic bound of the logical
    loop, which its dry run and its lineage node carry."""
    ctx = CkksContext(tiny_test_params(poly_degree=64, level=3), seed=7)
    level = ctx.params.level
    ctx.ensure_rotation_keys(
        [(s, level) for s in BABIES if s]
        + [(s, level - 1) for s in GIANTS if s]
    )
    slots = ctx.slot_count
    diagonal = _diagonals(slots, seed=25, scale=1 / len(BABIES))
    est = NoiseEstimator.for_context(ctx)
    (dry_ct,) = dry_inputs(1, level, est)
    bound = logical_loop(DryRunEvaluator(slots, est), dry_ct, diagonal).bound
    dry = DryRunEvaluator(slots, est).multiply_diagonals(
        dry_ct, BABIES, GIANTS, diagonal, cache_key=None
    )
    assert dry.bound.error_bits == pytest.approx(bound.error_bits, abs=1e-5)
    values = np.random.default_rng(26).uniform(-1, 1, slots)
    want = sum(
        np.roll(
            sum(diagonal(gi, bi) * np.roll(values, -b)
                for bi, b in enumerate(BABIES)),
            -giant,
        )
        for gi, giant in enumerate(GIANTS)
    )
    tracker = obs.LineageTracker(estimator=est)
    with obs.observed(), obs.lineage_context(tracker):
        got = Evaluator(ctx).multiply_diagonals(
            ctx.encrypt_values(values), BABIES, GIANTS, diagonal,
            cache_key=None,
        )
    err = np.max(np.abs(ctx.decrypt_values(got) - want))
    assert 0 < err <= bound.error
    assert tracker.propagation_failures == 0
    assert tracker.bound_of(got).error_bits == pytest.approx(
        bound.error_bits, abs=1e-5
    )
