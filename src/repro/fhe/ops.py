"""The homomorphic evaluator: every HE operation of paper Sec. II-A.

Implements PCadd, PCmult, CCadd, CCmult, Rescale, Relinearize and Rotate.
Relinearize and Rotate share one key-switch core (:func:`_lift` then
:func:`_switched_over_qp`), matching the paper's observation that both
reduce to the same *KeySwitch* algorithm (and hence share one hardware
module, Table I OP5).  The core leaves its result over the chain plus the
special prime ``P``; an op divides it by ``P`` at once or, in
:meth:`Evaluator.multiply_diagonals`, sums such results and divides once.

The evaluator optionally records every operation it executes into an
:class:`OperationRecorder`; the HE-CNN layers use this to validate their
*analytic* operation traces (the input to the performance model) against the
operations actually performed on ciphertexts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..obs import config as obs_config
from ..obs import lineage, probes
from ..obs.tracing import trace_span
from ..optypes import HeOp
from . import kernels
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .modmath import centered_lift, centered_lift_fits
from .ntt import get_batched_ntt_context
from .poly import RnsPolynomial, rescale_polys, rescale_twice

_RELATIVE_SCALE_TOLERANCE = 1e-9


def _probed(op_name: str):
    """Wrap an evaluator op in an obs span + post-op ciphertext probes.

    With observability disabled the wrapper is a single flag check and a
    tail call — the < 2 % overhead budget of ``docs/observability.md``
    (asserted in CI with a lineage tracker installed, so lineage can
    never leak cost into the disabled path).  Enabled, each call becomes
    one ``he_op`` span (nested inside whatever layer/inference span is
    open), records the result ciphertext's level and scale, and — when a
    :class:`repro.obs.lineage.LineageTracker` is installed — records the
    op into the request's provenance DAG (parent lineage IDs, backend,
    analytic noise delta).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not obs_config.enabled():
                return fn(self, *args, **kwargs)
            with trace_span(op_name, category="he_op") as span:
                span.set(backend=kernels.active_backend().name)
                out = fn(self, *args, **kwargs)
                if isinstance(out, Ciphertext):
                    span.set(level=out.level, scale=out.scale)
                    probes.record_he_op(op_name, level=out.level,
                                        scale=out.scale)
                else:
                    probes.record_he_op(op_name)
            tracker = lineage.current_tracker()
            if tracker is not None:
                tracker.observe(op_name, self, args, kwargs, out)
            return out

        return wrapper

    return decorate


@dataclass
class OperationRecorder:
    """Counts HE operations, optionally attributed to named phases (layers)."""

    counts: dict[HeOp, int] = field(default_factory=dict)
    by_phase: dict[str, dict[HeOp, int]] = field(default_factory=dict)
    _phase: str | None = None

    def record(self, op: HeOp, count: int = 1) -> None:
        self.counts[op] = self.counts.get(op, 0) + count
        if self._phase is not None:
            phase = self.by_phase.setdefault(self._phase, {})
            phase[op] = phase.get(op, 0) + count

    def set_phase(self, name: str | None) -> None:
        self._phase = name
        if name is not None:
            self.by_phase.setdefault(name, {})

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, op: HeOp) -> int:
        return self.counts.get(op, 0)


class Evaluator:
    """Performs homomorphic operations using a context's evaluation keys
    (relinearization and Galois keys), never its secret key."""

    def __init__(
        self, context: CkksContext, recorder: OperationRecorder | None = None
    ) -> None:
        self.context = context
        self.recorder = recorder

    def _note(self, op: HeOp, count: int = 1) -> None:
        if self.recorder is not None:
            self.recorder.record(op, count)

    # -- scale/level alignment ------------------------------------------------------

    @staticmethod
    def _check_scales(a: float, b: float) -> None:
        if not math.isclose(a, b, rel_tol=_RELATIVE_SCALE_TOLERANCE):
            raise ValueError(f"scale mismatch: {a} vs {b}")

    def mod_switch_to_level(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop RNS components (no rescale) so the ciphertext sits at ``level``."""
        if level > ct.level:
            raise ValueError("cannot raise ciphertext level")
        if level == ct.level:
            return ct
        basis = self.context.basis(level)
        comps = tuple(c.drop_to_basis(basis) for c in ct.components)
        return Ciphertext(components=comps, scale=ct.scale)

    # -- additions -------------------------------------------------------------------

    @_probed("CCadd")
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """CCadd: elementwise slot addition of two ciphertexts."""
        self._check_scales(a.scale, b.scale)
        level = min(a.level, b.level)
        a = self.mod_switch_to_level(a, level)
        b = self.mod_switch_to_level(b, level)
        if a.size != b.size:
            raise ValueError("component-count mismatch; relinearize first")
        comps = tuple(
            x.to_ntt() + y.to_ntt() for x, y in zip(a.components, b.components)
        )
        self._note(HeOp.CC_ADD)
        return Ciphertext(components=comps, scale=a.scale)

    @_probed("PCadd")
    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PCadd: add an encoded plaintext to a ciphertext."""
        self._check_scales(ct.scale, pt.scale)
        pt_poly = pt.poly
        if pt.level > ct.level:
            pt_poly = pt_poly.drop_to_basis(self.context.basis(ct.level))
        elif pt.level < ct.level:
            raise ValueError("plaintext level below ciphertext level")
        comps = (ct.components[0].to_ntt() + pt_poly.to_ntt(),) + tuple(
            c.to_ntt() for c in ct.components[1:]
        )
        self._note(HeOp.PC_ADD)
        return Ciphertext(components=comps, scale=ct.scale)

    # -- multiplications ---------------------------------------------------------------

    @_probed("PCmult")
    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PCmult: multiply a ciphertext by an encoded plaintext.

        The result's scale is the product of the operand scales; follow with
        :meth:`rescale` to return to the base scale, as in the paper's NKS
        layer pipeline (PCmult -> Rescale -> CCadd).
        """
        pt_poly = pt.poly
        if pt.level > ct.level:
            pt_poly = pt_poly.drop_to_basis(self.context.basis(ct.level))
        elif pt.level < ct.level:
            raise ValueError("plaintext level below ciphertext level")
        pt_ntt = pt_poly.to_ntt()
        comps = tuple(c.to_ntt() * pt_ntt for c in ct.components)
        self._note(HeOp.PC_MULT)
        return Ciphertext(components=comps, scale=ct.scale * pt.scale)

    @_probed("PCmultRescaleSum")
    def multiply_plain_rescale_sum(self, cts, pts) -> Ciphertext:
        """``sum_i Rescale(PCmult(cts[i], pts[i]))``, the NKS-layer loop
        (paper Listing 1), executed as one Rescale of the product sum.

        The NTT-domain products are accumulated in uint64 and reduced once
        (:func:`_product_sum`), bit-identical to the PCmult + CCadd loop,
        and the sum is divided by the last prime once, where the NKS loop
        divides each term and rounds ``k`` times.  Its logical operations
        are recorded: ``k`` PCmult, ``k`` Rescale and ``k - 1`` CCadd.
        """
        basis, comps, plains, scale = self._sum_operands(cts, pts)
        if basis.level <= 1:
            raise ValueError("cannot rescale a level-1 ciphertext")
        self._note_sum(len(cts), rescaled=True)
        ctx = basis.ntt()
        sums = _polys(basis, [
            _product_sum(zip((c[j] for c in comps), plains), ctx)
            for j in range(len(comps[0]))
        ])
        return Ciphertext(
            components=rescale_polys(sums), scale=scale / basis.primes[-1]
        )

    def _sum_operands(self, cts, pts):
        """Check the terms of a fused sum as :meth:`multiply_plain` and
        :meth:`add` would, except that every ciphertext must sit at one
        level.  Returns their basis, each term's NTT-domain component
        residues and plaintext residues, and the sum's scale (the first
        product's, which the sequential loop keeps)."""
        if not cts or len(cts) != len(pts):
            raise ValueError("need one plaintext per ciphertext")
        basis, size = cts[0].basis, cts[0].size
        scale = cts[0].scale * pts[0].scale
        comps, plains = [], []
        for ct, pt in zip(cts, pts):
            if ct.basis != basis:
                raise ValueError(f"level mismatch: {ct.level} vs {basis.level}")
            if ct.size != size:
                raise ValueError("component-count mismatch; relinearize first")
            if pt.level < ct.level:
                raise ValueError("plaintext level below ciphertext level")
            self._check_scales(scale, ct.scale * pt.scale)
            poly = pt.poly
            if pt.level > ct.level:
                poly = poly.drop_to_basis(basis)
            plains.append(poly.to_ntt().residues)
            comps.append([c.to_ntt().residues for c in ct.components])
        return basis, comps, plains, scale

    def _note_sum(self, terms: int, rescaled: bool) -> None:
        """Record a fused sum as the loop it replaces: one PCmult (and one
        Rescale) per term, one CCadd per term after the first."""
        self._note(HeOp.PC_MULT, terms)
        if rescaled:
            self._note(HeOp.RESCALE, terms)
        if terms > 1:
            self._note(HeOp.CC_ADD, terms - 1)

    @_probed("CCmult")
    def square(self, ct: Ciphertext) -> Ciphertext:
        """CCmult of a ciphertext with itself, a 3-component result: the
        activation of CryptoNets-style CNNs and the only CCmult the
        networks perform.  Follow with :meth:`relinearize`."""
        if not ct.is_linear:
            raise ValueError("operand must be a 2-component ciphertext")
        c0, c1 = (c.to_ntt() for c in ct.components)
        s0 = c0 * c0
        cross = c0 * c1
        s1 = cross + cross
        s2 = c1 * c1
        self._note(HeOp.CC_MULT)
        return Ciphertext(components=(s0, s1, s2), scale=ct.scale * ct.scale)

    # -- maintenance ops ----------------------------------------------------------------

    @_probed("Rescale")
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Rescale: divide by the last chain prime, dropping one level."""
        q_last = ct.basis.primes[-1]
        # Stacked rescale: all components share the transforms of one
        # batched kernel call (falls back to per-component internally).
        comps = rescale_polys(ct.components)
        self._note(HeOp.RESCALE)
        return Ciphertext(components=comps, scale=ct.scale / q_last)

    @_probed("Relinearize")
    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Relinearize a 3-component ciphertext back to 2 components."""
        if ct.is_linear:
            return ct
        key = self.context.relin_keys.get(ct.level)
        if key is None:
            raise KeyError(
                f"no relinearization key at level {ct.level}; call "
                "context.ensure_relin_keys()"
            )
        k0, k1 = _key_switch(ct.components[2], ((None, key),))
        c0 = ct.components[0].to_ntt() + k0
        c1 = ct.components[1].to_ntt() + k1
        self._note(HeOp.KEY_SWITCH)
        return Ciphertext(components=(c0, c1), scale=ct.scale)

    def rotate(self, ct: Ciphertext, step: int) -> Ciphertext:
        """Rotate slot contents left by ``step`` positions (Galois +
        KeySwitch): the one-step case of :meth:`rotate_hoisted`."""
        return self.rotate_hoisted(ct, (step,))[0]

    def rotate_hoisted(self, ct: Ciphertext, steps) -> list[Ciphertext]:
        """Rotations of one ciphertext by each of ``steps``, sharing one
        digit decomposition (Halevi-Shoup hoisting).

        The ``c1`` digits are lifted and forward-transformed once; each
        non-zero step then costs one Galois permutation of the digits
        inside its own :func:`_inner_product` and one rescale by the
        special prime.  Every output is bit-identical to a separate
        :meth:`rotate` and is recorded, traced and lineage-tracked as one
        ``Rotate`` (one KeySwitch); a zero step returns ``ct`` itself.
        """
        if not ct.is_linear:
            raise ValueError("relinearize before rotating")
        slots = self.context.slot_count
        steps = [s % slots for s in steps]
        keys = self._galois_keys(steps, ct.level)
        if not keys:
            return [ct] * len(steps)
        digits = _lift(ct.components[1], keys.values())
        return [
            self._rotate_lifted(ct, s, keys[s], digits) if s else ct
            for s in steps
        ]

    def _galois_keys(self, steps, level: int) -> dict:
        """The Galois key of each non-zero step at ``level``, all fetched
        before any work, so a missing one raises ``KeyError`` up front."""
        return {s: self.context.galois_keys.get(s, level) for s in steps if s}

    @_probed("Rotate")
    def _rotate_lifted(
        self, ct: Ciphertext, step: int, key, digits: np.ndarray
    ) -> Ciphertext:
        """One rotation of ``ct`` by ``step`` from the lifted digits of its
        ``c1`` component (:func:`_lift`): :func:`_rotated_over_qp`
        divided by the special prime."""
        rotated = _rotated_over_qp(key.basis, ct.components, step, key, digits)
        self._note(HeOp.KEY_SWITCH)
        return Ciphertext(
            components=rescale_polys(_polys(key.basis, rotated)),
            scale=ct.scale,
        )

    # -- composite helpers -----------------------------------------------------------

    def multiply_values_rescale(
        self, ct: Ciphertext, values, cache_key=None
    ) -> Ciphertext:
        """Scale-stationary PCmult: encode ``values`` at exactly the prime
        that the following Rescale divides out, so the result keeps
        ``ct.scale`` unchanged (the standard LoLa/SEAL weight-encoding
        trick, which keeps every NKS layer's output scale equal to Δ).

        ``values`` may be a callable producing the slot vector, deferred
        until an actual encode is required.  With ``cache_key`` set the
        encoded (and forward-transformed) plaintext is memoized on the
        context, so repeated inferences pay the encode + NTT exactly once.
        """
        q_last = ct.basis.primes[-1]
        pt = self.encode_cached(
            values, level=ct.level, scale=float(q_last), cache_key=cache_key
        )
        return self.rescale(self.multiply_plain(ct, pt))

    def encode_cached(
        self, values, level: int | None, scale: float, cache_key=None
    ) -> Plaintext:
        """Encode a slot vector, memoizing the NTT-domain plaintext.

        ``values`` may be an array or a zero-argument callable (evaluated
        only on a cache miss).  Without ``cache_key`` this is a plain
        encode.

        Correctness of the memoization rests on the cache key carrying the
        *exact* ``(level, scale)`` pair: after a Rescale the same weight
        vector must be re-encoded at the shorter prime chain and the new
        scale, never served from the entry cached one level up.  ``level``
        is therefore canonicalized (``None`` means the context's full
        chain) before keying, and a hit is verified against the requested
        pair — an entry that does not match bit-for-bit (e.g. poisoned by
        an external cache write) is invalidated and re-encoded instead of
        being returned.
        """
        if level is None:
            level = self.context.params.level
        return self._encode_over(
            self.context.basis(level), values, scale, cache_key, level
        )

    def _encode_over(self, basis, values, scale, cache_key, level):
        """:meth:`encode_cached` over ``basis``, keyed ``(cache_key,
        level, scale)``: the chain at ``level``, or (for
        :meth:`multiply_diagonals`) that chain plus the special prime.  A
        hit is returned only if its basis and scale match."""
        cache = self.context.plaintext_cache
        full_key = (cache_key, level, scale)
        if cache_key is not None:
            hit = cache.get(full_key)
            if hit is not None:
                if hit.poly.basis == basis and hit.scale == scale:
                    return hit
                # Stale/poisoned entry: reusing it would evaluate the layer
                # at the wrong basis or scale. Drop and rebuild.
                cache.pop(full_key, None)
        if callable(values):
            values = values()
        # Stored NTT-resident, so every later PCmult/PCadd skips the forward
        # transform as well as the encode, and in 32-bit words.
        poly = self.context.encoder.encode(values, scale, basis).to_ntt()
        pt = Plaintext(
            poly=RnsPolynomial(basis, poly.residues.astype(np.uint32), is_ntt=True),
            scale=scale,
        )
        if cache_key is not None:
            cache[full_key] = pt
        return pt

    def square_relinearize_rescale(self, ct: Ciphertext) -> Ciphertext:
        """CCmult + Relinearize + Rescale — the activation-layer step."""
        return self.rescale(self.relinearize(self.square(ct)))

    def multiply_diagonals(
        self, ct: Ciphertext, baby_steps, giant_steps, diagonal, cache_key
    ) -> Ciphertext:
        """A baby-step/giant-step product with generalized diagonals:
        ``sum_g rot(Rescale(sum_b PCmult(rot(ct, b), D[g, b])), g)`` over
        the ``giant_steps`` ``g`` and ``baby_steps`` ``b``.

        ``diagonal(gi, bi)`` returns the slot vector of ``D`` for giant
        index ``gi`` and baby index ``bi`` (evaluated on a cache miss
        only).  Each is encoded once per ``(cache_key, level)`` (never
        cached if ``cache_key`` is ``None``) at the scale of ``ct``'s last
        prime, so the output keeps ``ct.scale``, and over ``ct``'s chain
        plus the special prime ``P``: the products are summed before any
        division by ``P`` (:meth:`_multiply_diagonals`).
        """
        slots = self.context.slot_count
        babies = tuple(s % slots for s in baby_steps)
        giants = tuple(s % slots for s in giant_steps)
        ext = self.context.keygen.extended_basis(ct.level)
        scale = float(ct.basis.primes[-1])
        pts = [
            self._encode_over(
                ext, functools.partial(diagonal, gi, bi), scale,
                None if cache_key is None else (cache_key, gi, bi), ct.level,
            )
            for gi in range(len(giants))
            for bi in range(len(babies))
        ]
        return self._multiply_diagonals(ct, pts, logical=(babies, giants))

    @_probed("BSGS")
    def _multiply_diagonals(self, ct, pts, *, logical) -> Ciphertext:
        """:meth:`multiply_diagonals` on plaintexts over ``Q_l P``, giant
        major, for ``logical = (baby_steps, giant_steps)``, with every
        division by ``P`` deferred to the next division of a sum.

        * The ``c1`` digits are lifted once (as :meth:`rotate_hoisted`),
          and each baby rotation is kept over ``Q_l P`` without its
          ModDown (:func:`_rotated_over_qp`).
        * Per giant step the plaintext products are summed over ``Q_l P``
          and divided by ``P * q_l`` in one :func:`~repro.fhe.poly
          .rescale_twice`.
        * Each giant rotation of those sums is kept over ``Q_{l-1} P`` in
          turn, and their sum is divided by ``P`` once.

        Every key is fetched before any work.  Recorded as the logical
        loop (:meth:`_note_diagonals`).
        """
        babies, giants = logical
        level = ct.level
        baby_keys = self._galois_keys(babies, level)
        giant_keys = self._galois_keys(giants, level - 1)
        ext = self.context.keygen.extended_basis(level)
        comps = tuple(c.to_ntt() for c in ct.components)
        digits = _lift(comps[1], baby_keys.values()) if baby_keys else None
        rotated = [
            _rotated_over_qp(ext, comps, s, baby_keys.get(s), digits)
            for s in babies
        ]
        width = len(babies)
        partials = [
            rescale_twice(_polys(ext, [
                _product_sum(
                    ((r[c], pt.poly.residues) for r, pt in
                     zip(rotated, pts[gi * width:(gi + 1) * width])),
                    ext.ntt(),
                )
                for c in range(2)
            ]))
            for gi in range(len(giants))
        ]
        del rotated  # the giant rotations' working set takes its place
        giant_ext = self.context.keygen.extended_basis(level - 1)
        acc = np.zeros((2, giant_ext.level, giant_ext.n), dtype=np.uint64)
        for partial, s in zip(partials, giants):
            digits = _lift(partial[1], (giant_keys[s],)) if s else None
            # Canonical terms: the sum stays far below 2**64.
            acc += _rotated_over_qp(
                giant_ext, partial, s, giant_keys.get(s), digits
            )
        np.remainder(acc, giant_ext.ntt().qs_full, out=acc)
        self._note_diagonals(babies, giants)
        return Ciphertext(
            components=rescale_polys(_polys(giant_ext, acc)),
            scale=ct.scale * pts[0].scale / ct.basis.primes[-1],
        )

    def _note_diagonals(self, babies, giants) -> None:
        """Record :meth:`multiply_diagonals` as the loop it replaces: a
        KeySwitch per non-zero baby and giant step, per giant step the
        PCmults, their CCadds and one Rescale, and a CCadd per giant step
        after the first."""
        self._note(HeOp.KEY_SWITCH, sum(1 for s in babies + giants if s))
        for _ in giants:
            self._note_sum(len(babies), rescaled=False)
        self._note(HeOp.RESCALE, len(giants))
        self._note(HeOp.CC_ADD, len(giants) - 1)

    def rotate_fold(self, ct: Ciphertext, steps) -> Ciphertext:
        """Sequential rotate-and-accumulate: ``acc = add(acc, rotate(acc, s))``
        for each step, executed with *hoisted* groups where possible.

        A group of ``k`` consecutive fold steps expands to ``2**k - 1``
        rotations of the group's input — one per non-empty subset sum of the
        steps — which all share a single digit decomposition, basis lift and
        forward NTT (Halevi-Shoup hoisting) plus a single rescale inside
        :func:`_key_switch`.  Group size is capped at
        :data:`_FOLD_GROUP`: the per-group fixed cost is amortized over
        ``k`` steps while the per-rotation inner products grow as
        ``(2**k - 1) / k``, which makes ``k = 3`` the sweet spot on this
        substrate.

        The groups are those of :func:`_fold_groups`, the walk key
        provisioning follows (:func:`fold_composite_steps`), so a missing
        Galois key raises ``KeyError``.  A hoisted group shares one
        rescale, so its rounding differs from the sequential walk: outputs
        agree within the CKKS noise budget, not bit for bit.  Recorded
        operation counts are the *logical* ones — ``k`` KeySwitch and ``k``
        CCadd per group — so analytic layer traces and the FPGA cost model
        are unaffected by the execution strategy.
        """
        if not ct.is_linear:
            raise ValueError("relinearize before rotating")
        two_n = 2 * self.context.params.poly_degree
        acc = ct
        for group, sums in _fold_groups(steps, self.context.slot_count):
            if sums is None:
                acc = self.add(acc, self.rotate(acc, group[0]))
                continue
            rotations = tuple(
                (pow(5, s, two_n), self.context.galois_keys.get(s, acc.level))
                for s in sums
            )
            acc = self._rotate_fold_group(acc, rotations, logical=len(group))
        return acc

    @_probed("RotateFold")
    def _rotate_fold_group(
        self, ct: Ciphertext, rotations, *, logical: int
    ) -> Ciphertext:
        """One hoisted fold group: ``acc + sum(rot_c(acc))`` over every
        non-empty subset sum ``c`` of the group's ``logical`` steps.

        The ``c1`` component is key-switched once for all rotations via
        :func:`_key_switch`; the ``c0`` side only needs the (cheap)
        NTT-domain Galois permutations and additions.
        """
        c0 = ct.components[0].to_ntt()
        c1 = ct.components[1].to_ntt()
        k0, k1 = _key_switch(c1, rotations)
        # Lazily accumulate c0 and its NTT-domain Galois permutations with
        # plain adds (canonical inputs, so the sum of 2**k terms stays far
        # below 2**64) and canonicalize once — bit-identical to a chain of
        # modular adds at a third of the passes.
        basis = c0.basis
        ntt_ctx = get_batched_ntt_context(basis.n, basis.primes)
        acc = c0.residues.copy()
        for g, _key in rotations:
            perm = ntt_ctx.galois_permutation(g)
            np.add(acc, c0.residues[..., perm], out=acc)
        np.remainder(acc, ntt_ctx.qs_full, out=acc)
        sum0 = RnsPolynomial(basis, acc, is_ntt=True)
        # Logical accounting: a k-step group performs k Rotate (KeySwitch)
        # and k CCadd operations, regardless of the hoisted execution.
        self._note(HeOp.KEY_SWITCH, logical)
        self._note(HeOp.CC_ADD, logical)
        return Ciphertext(components=(sum0 + k0, c1 + k1), scale=ct.scale)


def _lift_digits_ntt(component: RnsPolynomial, ext, ext_ctx) -> np.ndarray:
    """Decompose ``component`` into per-prime digits, centre-lift them into
    the extended basis and forward-transform: the canonical ``(L, ext_L, N)``
    matrix every key-switch inner product consumes.

    Applies the *diagonal skip*: digit ``i`` reduced modulo its own prime
    ``q_i`` is the component's residue row ``i`` unchanged (centred
    extraction and the lift are the identity there), so when the component
    is already NTT-resident its resident row *is* the transform of the
    diagonal entry.  Only the ``L * ext_L - L`` off-diagonal rows are
    transformed — the diagonal is spliced in from the live residues,
    trimming the dominant forward-NTT batch by ``1/ext_L``.  Both sources
    are canonical (below their column's prime), as :func:`_inner_product`
    requires.
    """
    basis = component.basis
    d = component.to_coefficient()
    qs = np.array(basis.primes, dtype=np.int64).reshape(-1, 1)
    rows = d.residues.astype(np.int64)
    signed = np.where(rows > qs // 2, rows - qs, rows)  # (L, N)
    ext_qs = ext_ctx.qs_full_i64  # (ext_L, N) contiguous tile
    if centered_lift_fits(max(basis.primes), ext.primes):
        # Every centered digit fits below each extended prime, so the
        # lift is a conditional add — no integer division.
        lifted = centered_lift(signed[:, None, :], ext_qs)
    else:  # pragma: no cover - requires a prime gap > 2x in the chain
        lifted = np.mod(signed[:, None, :], ext_qs).astype(np.uint64)
    backend = kernels.active_backend()
    level, ext_level, n = lifted.shape
    if not (
        component.is_ntt
        and ext_level == level + 1
        and ext.primes[:level] == basis.primes
    ):
        return backend.forward(ext.n, ext.primes, lifted)
    out = np.empty_like(lifted)
    out[np.arange(level), np.arange(level)] = component.residues
    if level > 1:
        # Chain columns: column j takes every digit except j, one uniform
        # (L-1, L, N) batch over the chain primes.
        idx = np.array(
            [[i for i in range(level) if i != j] for j in range(level)]
        ).T  # (L-1, L)
        chain = out[:, :level, :]
        gathered = np.take_along_axis(
            lifted[:, :level, :], idx[:, :, None], axis=0
        )
        transformed = backend.forward(ext.n, ext.primes[:level], gathered)
        np.put_along_axis(chain, idx[:, :, None], transformed, axis=0)
    # Special column: all L digits, one (L, 1, N) batch over the special
    # prime (it reduces no digit, so it has no diagonal to splice).
    out[:, level:, :] = backend.forward(
        ext.n, ext.primes[level:], lifted[:, level:, :]
    )
    return out


#: Largest value a uint64 accumulator can hold.
_U64_MAX = (1 << 64) - 1


def _product_sum(pairs, ctx) -> np.ndarray:
    """Exact ``sum a * b mod q`` over ``(a, b)`` pairs of residue arrays.

    Every operand is canonical (below its row's prime in ``ctx``, a
    :class:`~repro.fhe.ntt.BatchedNttContext`), so a product is at most
    ``(q - 1)**2`` and plain uint64 multiply-adds stay exact for
    ``budget = (2**64 - 1) // (q_max - 1)**2`` terms (256 at 28-bit primes,
    16 at 30-bit).  One ``np.remainder`` folds the accumulator below ``q``
    at the end and whenever the next term could pass ``2**64``.  ``pairs``
    may reuse one buffer for its ``a`` operands: each product is taken
    before the next pair is drawn.

    Operands may be uint32 (keys and cached plaintexts), so each multiply
    names ``dtype=np.uint64``: two uint32 operands would otherwise run the
    uint32 loop and wrap, even into a uint64 ``out``.
    """
    budget = _U64_MAX // (max(ctx.primes) - 1) ** 2
    pairs = iter(pairs)
    a, b = next(pairs)
    acc = np.multiply(a, b, dtype=np.uint64)
    prod = np.empty_like(acc)
    terms = 1
    for a, b in pairs:
        if terms == budget:
            # The reduced accumulator is below q <= (q - 1)**2: it counts
            # as one term.
            np.remainder(acc, ctx.qs_full, out=acc)
            terms = 1
        np.multiply(a, b, out=prod, dtype=np.uint64)
        np.add(acc, prod, out=acc)
        terms += 1
    return np.remainder(acc, ctx.qs_full, out=acc)


def _polys(basis, rows) -> tuple[RnsPolynomial, ...]:
    """NTT-domain polynomials over ``basis`` from stacked residue rows."""
    return tuple(RnsPolynomial(basis, row, is_ntt=True) for row in rows)


def _switched_over_qp(ext, digits, rotations, c0=None, c1=None) -> np.ndarray:
    """A key switch kept over the extended basis ``ext = (q_1 .. q_l, P)``:
    the canonical ``(2, l + 1, N)`` residues of ``(P * c0 + ks0, P * c1 +
    ks1)``.

    ``ks`` is the :func:`_inner_product` of the lifted ``digits``
    (:func:`_lift`) with each ``(galois_element, key)`` pair of
    ``rotations`` (``None`` leaves the digits unpermuted; no pair gives
    zero), and ``c0``, ``c1`` are NTT-domain polynomials over the chain
    (``None``: zero).  ``P * c`` is zero mod ``P``, so dividing by ``P``
    (:func:`~repro.fhe.poly.rescale_polys`) gives ``c + ModDown(ks)`` bit
    for bit, and a sum of such forms divided once pays one ModDown.
    """
    if rotations:
        ext_ctx = ext.ntt()
        red = _inner_product(
            digits,
            [
                (None if g is None else ext_ctx.galois_permutation(g), key)
                for g, key in rotations
            ],
            ext_ctx,
        )
    else:
        red = np.zeros((2, ext.level, ext.n), dtype=np.uint64)
    p = ext.primes[-1]
    backend = kernels.active_backend()
    for row, c in zip(red, (c0, c1)):
        if c is not None:
            row[:-1] = backend.modadd(
                ext.n, c.basis.primes, row[:-1], c.scalar_multiply(p).residues
            )
    return red


def _rotated_over_qp(ext, comps, step: int, key, digits) -> np.ndarray:
    """The rotation by ``step`` of ciphertext components ``comps = (c0,
    c1)``, kept over ``ext`` without its ModDown: ``(P * rot(c0) + ks0,
    ks1)``, with ``ks`` the switch of ``c1``'s lifted ``digits`` under
    ``key`` (:func:`_switched_over_qp`).  Step 0 is ``P * (c0, c1)``."""
    c0, c1 = comps
    if not step:
        return _switched_over_qp(ext, None, (), c0.to_ntt(), c1.to_ntt())
    g = pow(5, step, 2 * ext.n)
    return _switched_over_qp(
        ext, digits, ((g, key),), c0.to_ntt().galois_transform(g)
    )


def _inner_product(digits: np.ndarray, rotations, ext_ctx) -> np.ndarray:
    """Exact KeySwitch inner product over the extended chain.

    ``digits`` is the canonical ``(L, ext_L, N)`` matrix of
    :func:`_lift_digits_ntt`; ``rotations`` holds ``(perm, key)`` pairs,
    where ``perm`` is an NTT-domain Galois permutation of the digits (or
    ``None``) and ``key`` a :class:`~repro.fhe.keys.KeySwitchKey`.  Returns
    the canonical ``(2, ext_L, N)`` residues of the sum, over every pair and
    digit ``i``, of ``perm(digits[i]) * key.stacked_ba[:, i]``, one digit
    at a time through :func:`_product_sum`.
    """
    row = np.empty_like(digits[0])

    def pairs():
        for perm, key in rotations:
            for i, digit in enumerate(digits):
                if perm is not None:
                    digit = np.take(digit, perm, axis=-1, out=row)
                yield digit, key.stacked_ba[:, i]

    return _product_sum(pairs(), ext_ctx)


def _check_key_level(key, basis) -> None:
    if key.level != basis.level:
        raise ValueError(
            f"key generated for level {key.level}, ciphertext at {basis.level}"
        )


def _lift(component: RnsPolynomial, keys) -> np.ndarray:
    """Check that every key in ``keys`` matches the component's level and
    lift the component's digits into the first key's extended basis
    (:func:`_lift_digits_ntt`)."""
    keys = list(keys)
    for key in keys:
        _check_key_level(key, component.basis)
    ext = keys[0].basis
    return _lift_digits_ntt(component, ext, ext.ntt())


def _key_switch(
    component: RnsPolynomial, rotations
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Hybrid RNS key switch of one polynomial component under each
    ``(galois_element, key)`` pair of ``rotations``, summed into one result
    (``None`` leaves the component unpermuted: a relinearization).

    The component is decomposed into its per-prime residues, each lifted
    (centered) into the extended basis and forward-transformed once
    (:func:`_lift`).  Because the Galois automorphism commutes with the
    digit decomposition, the centered lift and the NTT (where it is a pure
    permutation of evaluation points), the digits of ``galois_g(d)`` equal
    the permuted digits of ``d`` bit-for-bit — so several rotations share
    that lift (Halevi-Shoup hoisting) and each costs only an index
    permutation plus its share of one :func:`_inner_product`, followed by
    one shared division by the special prime.  Returns NTT-domain
    polynomials over the chain basis.
    """
    ext = rotations[0][1].basis
    digits = _lift(component, (key for _g, key in rotations))
    return rescale_polys(_polys(ext, _switched_over_qp(ext, digits, rotations)))


#: Maximum logical fold steps hoisted into one KeySwitch group.  Each group
#: shares one decomposition/lift/forward-NTT/rescale among ``2**k - 1``
#: subset-sum rotations; ``k = 3`` balances that fixed cost against the
#: ``(2**k - 1)/k`` growth of the per-rotation inner products.
_FOLD_GROUP = 3


def _subset_steps(group, slot_count: int) -> list[int] | None:
    """All non-empty subset sums of a fold group, reduced mod ``slot_count``.

    Returns ``None`` when any sum (or step) degenerates to a zero rotation —
    the group then cannot be hoisted as one KeySwitch batch.
    """
    if 0 in group:
        return None
    sums = []
    for mask in range(1, 1 << len(group)):
        total = 0
        for j, s in enumerate(group):
            if mask >> j & 1:
                total += s
        total %= slot_count
        if total == 0:
            return None
        sums.append(total)
    return sums


def _fold_groups(steps, slot_count: int):
    """The grouping walk of :meth:`Evaluator.rotate_fold`: yields each run
    of consecutive ``steps`` (reduced mod ``slot_count``) it executes as a
    ``(group, sums)`` pair, taking the longest run of at most
    :data:`_FOLD_GROUP` steps whose subset sums (:func:`_subset_steps`)
    hoist, or else one step with ``sums = None``."""
    seq = [s % slot_count for s in steps]
    i = 0
    while i < len(seq):
        for size in range(min(_FOLD_GROUP, len(seq) - i), 1, -1):
            sums = _subset_steps(seq[i : i + size], slot_count)
            if sums is not None:
                break
        else:
            size, sums = 1, None
        yield seq[i : i + size], sums
        i += size


def fold_composite_steps(steps, slot_count: int) -> list[int]:
    """Rotation steps the hoisted groups of :meth:`Evaluator.rotate_fold`
    fetch keys for: the subset sums of each group of :func:`_fold_groups`.

    The dry run (:mod:`repro.fhe.dryrun`) logs these, with the fold's
    non-zero steps, so key provisioning covers exactly the hoisted
    execution; a fold missing one of them raises ``KeyError``.
    """
    return [
        s for _group, sums in _fold_groups(steps, slot_count) if sums
        for s in sums
    ]
