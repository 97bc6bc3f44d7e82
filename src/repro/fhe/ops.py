"""The homomorphic evaluator: every HE operation of paper Sec. II-A.

Implements PCadd, PCmult, CCadd, CCmult, Rescale, Relinearize and Rotate.
Relinearize and Rotate share one key-switch core (:func:`_lift` then
:func:`_switch_lifted`), matching the paper's observation that both reduce
to the same *KeySwitch* algorithm (and hence share one hardware module,
Table I OP5).

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
from .poly import RnsPolynomial, rescale_polys, rescale_sum

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

    @_probed("CCadd")
    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext subtraction (counted as CCadd — same hardware module)."""
        self._check_scales(a.scale, b.scale)
        level = min(a.level, b.level)
        a = self.mod_switch_to_level(a, level)
        b = self.mod_switch_to_level(b, level)
        comps = tuple(
            x.to_ntt() - y.to_ntt() for x, y in zip(a.components, b.components)
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

    @_probed("PCmultSum")
    def multiply_plain_sum(self, cts, pts) -> Ciphertext:
        """``sum_i PCmult(cts[i], pts[i])``: the PCmult + CCadd loop in one
        exact reduction.

        The NTT-domain products are accumulated in uint64 and reduced once
        (:func:`_product_sum`), bit-identical to the sequential loop.  Its
        logical operations are recorded: ``k`` PCmult and ``k - 1`` CCadd.
        """
        basis, comps, plains, scale = self._sum_operands(cts, pts)
        ctx = basis.ntt()
        out = tuple(
            RnsPolynomial(
                basis, _product_sum(zip((c[j] for c in comps), plains), ctx),
                is_ntt=True,
            )
            for j in range(len(comps[0]))
        )
        self._note_sum(len(cts), rescaled=False)
        return Ciphertext(components=out, scale=scale)

    @_probed("PCmultRescaleSum")
    def multiply_plain_rescale_sum(self, cts, pts) -> Ciphertext:
        """``sum_i Rescale(PCmult(cts[i], pts[i]))``: the NKS-layer loop
        (paper Listing 1) with one exact reduction and one forward
        transform.

        The kept rows' products are summed as in
        :meth:`multiply_plain_sum`; every term's last-prime row goes to
        :func:`~repro.fhe.poly.rescale_sum`, which inverse-transforms them
        in one kernel call and forward-transforms the sum of their centred
        lifts once.  Bit-identical to the sequential loop, whose logical
        operations are recorded: ``k`` PCmult, ``k`` Rescale and ``k - 1``
        CCadd.
        """
        basis, comps, plains, scale = self._sum_operands(cts, pts)
        if basis.level <= 1:
            raise ValueError("cannot rescale a level-1 ciphertext")
        q_last = basis.primes[-1]
        kept_ctx = get_batched_ntt_context(basis.n, basis.primes[:-1])
        kept = np.stack([
            _product_sum(
                ((c[j][:-1], p[:-1]) for c, p in zip(comps, plains)), kept_ctx
            )
            for j in range(len(comps[0]))
        ])
        last = np.array([[row[-1:] for row in c] for c in comps])
        last *= np.array(plains)[:, None, -1:, :]  # (k, C, 1, N)
        np.remainder(last, np.uint64(q_last), out=last)
        rows = rescale_sum(basis, kept, last)
        new_basis = basis.drop_last()
        self._note_sum(len(cts), rescaled=True)
        return Ciphertext(
            components=tuple(
                RnsPolynomial(new_basis, row, is_ntt=True) for row in rows
            ),
            scale=scale / q_last,
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
    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """CCmult: tensor product; yields a 3-component ciphertext.

        Call :meth:`relinearize` afterwards (or use :meth:`square` which is
        the only CCmult the HE-CNNs in the paper perform).
        """
        if not (a.is_linear and b.is_linear):
            raise ValueError("operands must be 2-component ciphertexts")
        level = min(a.level, b.level)
        a = self.mod_switch_to_level(a, level)
        b = self.mod_switch_to_level(b, level)
        a0, a1 = (c.to_ntt() for c in a.components)
        b0, b1 = (c.to_ntt() for c in b.components)
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a1 * b1
        self._note(HeOp.CC_MULT)
        return Ciphertext(components=(c0, c1, c2), scale=a.scale * b.scale)

    @_probed("CCmult")
    def square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic squaring — the activation of CryptoNets-style CNNs."""
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
        k0, k1 = _key_switch(ct.components[2], key)
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
        Every key is fetched before any work, so a missing one raises
        ``KeyError`` up front.
        """
        if not ct.is_linear:
            raise ValueError("relinearize before rotating")
        slots = self.context.slot_count
        steps = [s % slots for s in steps]
        keys = {
            s: self.context.galois_keys.get(s, ct.level)
            for s in steps if s
        }
        if not keys:
            return [ct] * len(steps)
        digits, ext_ctx = _lift(ct.components[1], keys.values())
        n = self.context.params.poly_degree
        return [
            self._rotate_lifted(ct, pow(5, s, 2 * n), keys[s], digits,
                                ext_ctx) if s else ct
            for s in steps
        ]

    @_probed("Rotate")
    def _rotate_lifted(
        self, ct: Ciphertext, g: int, key, digits: np.ndarray, ext_ctx
    ) -> Ciphertext:
        """One rotation of ``ct`` by Galois element ``g`` from the lifted
        digits of its ``c1`` component (:func:`_lift`)."""
        k0, k1 = _switch_lifted(digits, ((g, key),), ext_ctx)
        rot0 = ct.components[0].galois_transform(g)
        self._note(HeOp.KEY_SWITCH)
        return Ciphertext(
            components=(rot0.to_ntt() + k0, k1), scale=ct.scale
        )

    def negate(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic negation (free — no HE operation module involved)."""
        return Ciphertext(
            components=tuple(-c for c in ct.components), scale=ct.scale
        )

    @_probed("Conjugate")
    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate every slot (Galois element ``2N - 1``).

        Needs a conjugation key: ``context.ensure_conjugation_keys()``.
        Counted as a KeySwitch — same hardware module as Rotate.
        """
        from .keys import CONJUGATION_STEP

        if not ct.is_linear:
            raise ValueError("relinearize before conjugating")
        n = self.context.params.poly_degree
        g = 2 * n - 1
        key = self.context.galois_keys.get(CONJUGATION_STEP, ct.level)
        conj0 = ct.components[0].galois_transform(g)
        conj1 = ct.components[1].galois_transform(g)
        k0, k1 = _key_switch(conj1, key)
        self._note(HeOp.KEY_SWITCH)
        return Ciphertext(components=(conj0.to_ntt() + k0, k1), scale=ct.scale)

    # -- composite helpers -----------------------------------------------------------

    def multiply_plain_rescale(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PCmult followed by Rescale — the NKS-layer inner step."""
        return self.rescale(self.multiply_plain(ct, pt))

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
        cache = self.context.plaintext_cache
        use_cache = cache_key is not None
        full_key = (cache_key, level, scale)
        if use_cache:
            hit = cache.get(full_key)
            if hit is not None:
                if hit.level == level and hit.scale == scale:
                    return hit
                # Stale/poisoned entry: reusing it would evaluate the layer
                # at the wrong basis or scale. Drop and rebuild.
                cache.pop(full_key, None)
        if callable(values):
            values = values()
        pt = self.context.encode(values, level=level, scale=scale)
        # Store NTT-resident so every later PCmult/PCadd skips the forward
        # transform as well as the encode.
        pt = Plaintext(poly=pt.poly.to_ntt(), scale=pt.scale)
        if use_cache:
            cache[full_key] = pt
        return pt

    def square_relinearize_rescale(self, ct: Ciphertext) -> Ciphertext:
        """CCmult + Relinearize + Rescale — the activation-layer step."""
        return self.rescale(self.relinearize(self.square(ct)))

    def rotate_and_sum(self, ct: Ciphertext, width: int) -> Ciphertext:
        """Sum the first ``width`` slots into slot 0 by log2(width) rotations.

        The paper's KS-layer pattern: "summing up all the slots ... is
        equivalent to iterations of Rotate and CCadd operations" [5].
        ``width`` must be a power of two.
        """
        if width <= 0 or width & (width - 1):
            raise ValueError("width must be a positive power of two")
        steps = []
        step = width // 2
        while step >= 1:
            steps.append(step)
            step //= 2
        return self.rotate_fold(ct, steps)

    def rotate_fold(self, ct: Ciphertext, steps) -> Ciphertext:
        """Sequential rotate-and-accumulate: ``acc = add(acc, rotate(acc, s))``
        for each step, executed with *hoisted* groups where possible.

        A group of ``k`` consecutive fold steps expands to ``2**k - 1``
        rotations of the group's input — one per non-empty subset sum of the
        steps — which all share a single digit decomposition, basis lift and
        forward NTT (Halevi-Shoup hoisting) plus a single rescale inside
        :func:`_key_switch_hoisted`.  Group size is capped at
        :data:`_FOLD_GROUP`: the per-group fixed cost is amortized over
        ``k`` steps while the per-rotation inner products grow as
        ``(2**k - 1) / k``, which makes ``k = 3`` the sweet spot on this
        substrate.

        Falls back to the plain rotate/add sequence when a composite Galois
        key was not provisioned.  A hoisted group shares one rescale, so its
        rounding differs from the sequential walk: outputs agree within the
        CKKS noise budget, not bit for bit.  Recorded operation counts are
        the *logical* ones — ``k`` KeySwitch and ``k`` CCadd per group — so
        analytic layer traces and the FPGA cost model are unaffected by the
        execution strategy.
        """
        slots = self.context.slot_count
        seq = [s % slots for s in steps]
        acc = ct
        i = 0
        while i < len(seq):
            if acc.is_linear:
                grouped = False
                for size in range(min(_FOLD_GROUP, len(seq) - i), 1, -1):
                    group = seq[i : i + size]
                    subs = _subset_steps(group, slots)
                    if subs is None:
                        continue
                    try:
                        rotations = self._fold_rotations(acc, subs)
                    except KeyError:
                        continue
                    acc = self._rotate_fold_group(acc, size, rotations)
                    i += size
                    grouped = True
                    break
                if grouped:
                    continue
            acc = self.add(acc, self.rotate(acc, seq[i]))
            i += 1
        return acc

    def _fold_rotations(self, ct: Ciphertext, steps):
        """Resolve ``(galois_element, key)`` pairs for a hoisted group.

        Raises ``KeyError`` if any key is missing, letting the caller fall
        back to a smaller group or the sequential path.
        """
        n = self.context.params.poly_degree
        return tuple(
            (pow(5, s, 2 * n), self.context.galois_keys.get(s, ct.level))
            for s in steps
        )

    @_probed("RotateFold")
    def _rotate_fold_group(
        self, ct: Ciphertext, logical: int, rotations
    ) -> Ciphertext:
        """One hoisted fold group: ``acc + sum(rot_c(acc))`` over every
        non-empty subset sum ``c`` of the group's ``logical`` steps.

        The ``c1`` component is key-switched once for all rotations via
        :func:`_key_switch_hoisted`; the ``c0`` side only needs the (cheap)
        NTT-domain Galois permutations and additions.
        """
        c0 = ct.components[0].to_ntt()
        c1 = ct.components[1].to_ntt()
        k0, k1 = _key_switch_hoisted(c1, rotations)
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
    """
    budget = _U64_MAX // (max(ctx.primes) - 1) ** 2
    pairs = iter(pairs)
    a, b = next(pairs)
    acc = np.multiply(a, b)
    prod = np.empty_like(acc)
    terms = 1
    for a, b in pairs:
        if terms == budget:
            # The reduced accumulator is below q <= (q - 1)**2: it counts
            # as one term.
            np.remainder(acc, ctx.qs_full, out=acc)
            terms = 1
        np.multiply(a, b, out=prod)
        np.add(acc, prod, out=acc)
        terms += 1
    return np.remainder(acc, ctx.qs_full, out=acc)


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


def _lift(component: RnsPolynomial, keys) -> tuple[np.ndarray, object]:
    """Check that every key in ``keys`` matches the component's level and
    lift the component's digits into the first key's extended basis
    (:func:`_lift_digits_ntt`).  Returns the digits and the extended
    basis's NTT context."""
    keys = list(keys)
    for key in keys:
        _check_key_level(key, component.basis)
    ext = keys[0].basis
    ext_ctx = get_batched_ntt_context(ext.n, ext.primes)
    return _lift_digits_ntt(component, ext, ext_ctx), ext_ctx


def _switch_lifted(
    digits: np.ndarray, rotations, ext_ctx
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Sum of ``key``-switched digits over ``(galois_element, key)`` pairs
    (``None`` leaves the digits unpermuted), divided by the special prime
    (last in the extended basis) with one stacked rescale of both halves.
    Returns NTT-domain polynomials over the chain basis."""
    ext = rotations[0][1].basis
    red = _inner_product(
        digits,
        [
            (None if g is None else ext_ctx.galois_permutation(g), key)
            for g, key in rotations
        ],
        ext_ctx,
    )  # (2, ext_L, N)
    out0 = RnsPolynomial(ext, red[0], is_ntt=True)
    out1 = RnsPolynomial(ext, red[1], is_ntt=True)
    return rescale_polys((out0, out1))


def _key_switch(
    component: RnsPolynomial, key
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Hybrid RNS key switch of one polynomial component.

    Decomposes ``d`` into its per-prime residues, lifts each (centered) into
    the extended basis, inner-products with the key, and divides out the
    special prime.  Returns NTT-domain polynomials over the chain basis.
    """
    digits, ext_ctx = _lift(component, (key,))
    return _switch_lifted(digits, ((None, key),), ext_ctx)


def _key_switch_hoisted(
    component: RnsPolynomial, rotations
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Hoisted key switch: one decomposition/lift/forward-NTT shared by
    several rotations of the same component (Halevi-Shoup hoisting),
    summed into one result.

    ``rotations`` is a sequence of ``(galois_element, key)`` pairs.  Because
    the Galois automorphism commutes with the per-prime digit decomposition,
    the centered lift and the NTT (where it is a pure permutation of
    evaluation points), the digits of ``galois_g(d)`` equal the permuted
    digits of ``d`` bit-for-bit — so the expensive lift + batched forward
    NTT run once and each rotation costs only an index permutation plus its
    share of one :func:`_inner_product`, which accumulates every rotation's
    ``L`` products before its exact reduction, followed by one shared
    rescale by the special prime.
    """
    digits, ext_ctx = _lift(component, (key for _g, key in rotations))
    return _switch_lifted(digits, rotations, ext_ctx)


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


def fold_composite_steps(steps, slot_count: int) -> list[int]:
    """Rotation steps :meth:`Evaluator.rotate_fold` will need keys for,
    mirroring its grouping walk exactly (subset sums of each hoisted group).

    The dry run (:mod:`repro.fhe.dryrun`) logs these, with the fold's
    non-zero steps, so key provisioning covers exactly the hoisted
    execution; a missing composite key only costs the fallback to a smaller
    group or the sequential path, never an error.
    """
    seq = [s % slot_count for s in steps]
    out: list[int] = []
    i = 0
    while i < len(seq):
        advanced = False
        for size in range(min(_FOLD_GROUP, len(seq) - i), 1, -1):
            subs = _subset_steps(seq[i : i + size], slot_count)
            if subs is None:
                continue
            out.extend(subs)
            i += size
            advanced = True
            break
        if not advanced:
            i += 1
    return out
