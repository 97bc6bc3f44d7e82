"""Noise tracking and estimation for RNS-CKKS ciphertexts.

CKKS is an *approximate* scheme: every ciphertext carries an error term
whose magnitude (relative to the scale) bounds the precision of the
decrypted result.  The paper fixes ``L = 7`` "to support the multiplication
depth" of its networks — implicitly a noise-budget argument.  This module
makes that argument explicit:

* :class:`NoiseEstimator` propagates a conservative canonical-embedding
  noise bound through every HE operation, mirroring the evaluator's API;
* :func:`measured_noise_bits` measures the true error of a ciphertext
  against known expected slot values (requires the secret key — a client/
  debugging facility, never available to the accelerator).

The analytic bound is validated against measurement by property tests: it
must never under-estimate, and should stay within a few bits of reality on
typical workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..obs import probes
from .ciphertext import Ciphertext
from .context import CkksContext
from .params import CkksParameters


def publish_noise_budget(bound: "NoiseBound | float", **labels) -> None:
    """Expose a noise-budget gauge (``noise_budget_bits``) for a ciphertext.

    Accepts either a :class:`NoiseBound` (uses its :attr:`~NoiseBound
    .error_bits`) or a raw bit count.  A no-op unless observability is
    enabled (``repro.obs``); labels distinguish per-layer / per-source
    gauges, e.g. ``publish_noise_budget(bound, layer="Cnv1")``.
    """
    bits = bound.error_bits if isinstance(bound, NoiseBound) else float(bound)
    probes.record_noise_budget(bits, **labels)


@dataclass(frozen=True)
class NoiseBound:
    """A conservative bound on a ciphertext's absolute slot error.

    Attributes
    ----------
    error:
        Upper bound on ``|decrypt(ct) - true_value|`` per slot (in message
        units, i.e. already divided by the scale).
    message:
        Upper bound on the plaintext magnitude carried by the ciphertext —
        needed because multiplicative noise growth scales with it.
    level / scale:
        Tracked alongside for consistency checks.
    """

    error: float
    message: float
    level: int
    scale: float

    @property
    def error_bits(self) -> float:
        """``-log2(error)`` — bits of precision guaranteed."""
        if self.error <= 0:
            return float("inf")
        return -math.log2(self.error)


class NoiseEstimator:
    """Propagates noise bounds through the HE operation set.

    The bounds follow the standard CKKS analysis (Cheon et al.) in *slot*
    units: a random error polynomial with per-coefficient deviation ``s``
    embeds to slot errors of magnitude ~``s * sqrt(N)``, and we take a
    6-sigma high-probability bound on top.  Concretely (in message units,
    i.e. divided by the scale):

    * encoding (coefficient rounding): ``2 * sqrt(N) / scale``;
    * fresh secret-key encryption: ``6 * sigma * sqrt(N) / scale`` (the
      one error ``e``; 1.0-2.0 bits of slack over context seeds 1-12 at
      N=512 and N=2048) plus the encoding error;
    * addition adds errors; plaintext addition adds encoding error;
    * plaintext multiplication multiplies the error by the plaintext bound
      and adds the cross term of the plaintext's own encoding error;
    * rescale divides the scale by the dropped prime and adds the
      division-rounding term ``1.5 * N / new_scale`` (dominated by the
      ``tau * s`` product with the ternary secret);
    * key switching (relinearize / rotate) adds
      ``2 * sigma * N * sqrt(level) / scale`` — the hybrid method's
      division by the special prime cancels the per-prime digit factor.
    """

    def __init__(self, params: CkksParameters, primes: tuple[int, ...],
                 special_prime: int) -> None:
        self.params = params
        self.primes = primes
        self.special_prime = special_prime
        self.sigma = params.error_std
        self.n = params.poly_degree

    # -- constructors ---------------------------------------------------------

    @classmethod
    def for_context(cls, context: CkksContext) -> "NoiseEstimator":
        return cls(context.params, context.chain_primes, context.special_prime)

    def fresh(self, message_bound: float, level: int | None = None) -> NoiseBound:
        """High-probability bound for a freshly encrypted ciphertext at the
        given level: decryption leaves ``e + m`` plus the encoding error."""
        level = level if level is not None else self.params.level
        scale = self.params.scale
        encode_err = 2 * math.sqrt(self.n) / scale
        enc_err = 6 * self.sigma * math.sqrt(self.n) / scale
        return NoiseBound(
            error=encode_err + enc_err,
            message=message_bound,
            level=level,
            scale=scale,
        )

    # -- op propagation ----------------------------------------------------------

    def add(self, a: NoiseBound, b: NoiseBound) -> NoiseBound:
        self._check_compatible(a, b)
        return replace(
            a, error=a.error + b.error, message=a.message + b.message
        )

    def add_plain(self, a: NoiseBound, plain_bound: float) -> NoiseBound:
        encode_err = 2 * math.sqrt(self.n) / a.scale
        return replace(
            a, error=a.error + encode_err, message=a.message + plain_bound
        )

    def multiply_plain(
        self, a: NoiseBound, plain_bound: float, pt_scale: float | None = None
    ) -> NoiseBound:
        """PCmult with a plaintext encoded at ``pt_scale`` (by default the
        level's last prime).

        New error = old error * |pt| + encoding error * |message|.
        The scale bookkeeping matches the evaluator's scale-stationary
        ``multiply_values_rescale`` when followed by :meth:`rescale`.
        """
        if pt_scale is None:
            pt_scale = self.primes[a.level - 1]
        encode_err = 2 * math.sqrt(self.n) / pt_scale
        return NoiseBound(
            error=a.error * plain_bound + encode_err * a.message,
            message=a.message * plain_bound,
            level=a.level,
            scale=a.scale * pt_scale,
        )

    def square(self, a: NoiseBound) -> NoiseBound:
        return NoiseBound(
            error=2 * a.error * a.message + a.error**2,
            message=a.message**2,
            level=a.level,
            scale=a.scale**2,
        )

    def rescale(self, a: NoiseBound) -> NoiseBound:
        q_last = self.primes[a.level - 1]
        new_scale = a.scale / q_last
        rounding = 1.5 * self.n / new_scale
        return NoiseBound(
            error=a.error + rounding,
            message=a.message,
            level=a.level - 1,
            scale=a.scale / q_last,
        )

    def key_switch(self, a: NoiseBound) -> NoiseBound:
        """Relinearize or Rotate: hybrid key switching adds error divided
        by the special prime."""
        added = 2 * self.sigma * self.n * math.sqrt(a.level) / a.scale
        return replace(a, error=a.error + added)

    def rotate(self, a: NoiseBound) -> NoiseBound:
        return self.key_switch(a)

    def square_relinearize_rescale(self, a: NoiseBound) -> NoiseBound:
        return self.rescale(self.key_switch(self.square(a)))

    def multiply_values_rescale(
        self, a: NoiseBound, plain_bound: float
    ) -> NoiseBound:
        return self.rescale(self.multiply_plain(a, plain_bound))

    @staticmethod
    def _check_compatible(a: NoiseBound, b: NoiseBound) -> None:
        if a.level != b.level:
            raise ValueError(f"level mismatch: {a.level} vs {b.level}")
        if not math.isclose(a.scale, b.scale, rel_tol=1e-9):
            raise ValueError(f"scale mismatch: {a.scale} vs {b.scale}")


def propagate_op(
    est: NoiseEstimator, op: str, parents: list[NoiseBound],
    plains: list[tuple[float, float]], level: int, scale: float,
    logical: int = 1,
) -> NoiseBound:
    """Bound of one evaluator op's output: the per-op rules of both the
    lineage tracker (:mod:`repro.obs.lineage`) and the dry run
    (:mod:`repro.fhe.dryrun`).

    ``op`` is the op's span name, ``parents`` its ciphertext operands'
    bounds in call order, ``plains`` each plaintext operand's ``(peak,
    scale)`` and ``logical`` the shape of the loop an op stands for (its
    ``logical=`` argument): a hoisted fold group's step count, or a
    ``BSGS`` op's ``(baby_steps, giant_steps)``.  The result carries the
    output's ``level`` and ``scale``.
    """
    if op == "CCadd" and len(parents) == 2:
        bound = est.add(*_align_levels(*parents))
    elif op == "PCadd":
        bound = est.add_plain(parents[0], plains[0][0] if plains else 1.0)
    elif op == "PCmult":
        bound = est.multiply_plain(parents[0], *(plains[0] if plains else (1.0,)))
    elif op == "CCmult":
        bound = est.square(parents[0])
    elif op == "Rescale":
        bound = est.rescale(parents[0])
    elif op == "Relinearize":
        bound = est.key_switch(parents[0])
    elif op == "Rotate":
        bound = est.rotate(parents[0])
    elif op == "PCmultRescaleSum":
        # One Rescale of the product sum, as executed.
        bound = est.rescale(_plain_sum(est, parents, plains))
    elif op == "BSGS":
        # The logical loop the fused op replaces (the dry run's bound too):
        # hoisted baby rotations, per giant step a PCmult sum, a Rescale
        # and a rotation, added.
        babies, giants = logical
        rotated = [est.rotate(parents[0]) if s else parents[0] for s in babies]
        bound = None
        for gi, giant in enumerate(giants):
            terms = plains[gi * len(babies):(gi + 1) * len(babies)]
            partial = est.rescale(_plain_sum(est, rotated, terms))
            if giant:
                partial = est.rotate(partial)
            bound = partial if bound is None else est.add(
                *_align_levels(bound, partial)
            )
    elif op == "RotateFold":
        # A hoisted fold group is logically ``logical`` rotate-and-add
        # steps: acc = acc + rotate(acc) per step.
        bound = parents[0]
        for _ in range(logical):
            bound = est.add(bound, est.rotate(bound))
    else:
        bound = parents[0]
    if bound.level != level or bound.scale != scale:
        bound = replace(bound, level=level, scale=scale)
    return bound


def _plain_sum(est: NoiseEstimator, parents, plains) -> NoiseBound:
    """A PCmult per term, accumulated by CCadd in order."""
    bound = None
    for parent, (peak, pt_scale) in zip(parents, plains):
        term = est.multiply_plain(parent, peak, pt_scale)
        bound = term if bound is None else est.add(*_align_levels(bound, term))
    return bound


def _align_levels(a: NoiseBound, b: NoiseBound) -> tuple[NoiseBound, NoiseBound]:
    """Binary ops mod-switch both operands to the lower level first."""
    level = min(a.level, b.level)
    return replace(a, level=level), replace(b, level=level)


def measured_noise_bits(
    context: CkksContext, ciphertext: Ciphertext, expected: np.ndarray
) -> float:
    """Measured precision: ``-log2(max |decrypt(ct) - expected|)``.

    Requires the secret key; intended for client-side validation and the
    test suite.  ``expected`` may be shorter than the slot count; only the
    leading slots are compared.
    """
    decrypted = context.decrypt_values(ciphertext)[: len(expected)]
    err = float(np.max(np.abs(decrypted - np.asarray(expected, dtype=float))))
    bits = float("inf") if err == 0 else -math.log2(err)
    publish_noise_budget(bits, source="measured", level=ciphertext.level)
    return bits


def depth_capacity(
    params: CkksParameters,
    message_bound: float = 1.0,
    required_bits: float = 8.0,
) -> int:
    """How many scale-stationary multiply+rescale levels the parameters
    support while keeping ``required_bits`` of precision.

    The explicit form of the paper's "L = 7 supports multiplication
    depth 5" argument, computed by propagating the analytic bound.
    """
    from .params import build_prime_chain

    if not params.is_functional:
        params = params.functional_variant()
    primes, special = build_prime_chain(params)
    est = NoiseEstimator(params, primes, special)
    bound = est.fresh(message_bound)
    depth = 0
    while bound.level > 1:
        bound = est.multiply_values_rescale(bound, message_bound)
        if bound.error_bits < required_bits:
            break
        depth += 1
    return depth
