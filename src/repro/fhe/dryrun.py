"""Dry runs: the evaluator's op schedule on shape-only ciphertexts.

A layer's ``forward`` run on a :class:`DryRunEvaluator` records, with no
ring arithmetic, the logical HE ops (as an :class:`~repro.fhe.ops
.OperationRecorder` counts them), the distinct ``(cache_key, level)``
plaintexts, the ``(step, level)`` Galois keys fetched (hoisted-fold
composites included) and the relinearization levels.  Given a
:class:`~repro.fhe.noise.NoiseEstimator`, ciphertexts carry their bound
through the lineage tracker's per-op rules (:func:`~repro.fhe.noise
.propagate_op`) and weight callables are evaluated for their peaks;
without one, primes and scales are symbolic (1.0) and no context is needed.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ..optypes import HeOp
from .noise import NoiseBound, NoiseEstimator, propagate_op
from .ops import Evaluator, OperationRecorder, fold_composite_steps


class DryPlaintext(NamedTuple):
    level: int
    scale: float
    peak: float | None = None  # max |slot value|, noise mode only


class DryCiphertext(NamedTuple):
    """A ciphertext's level, scale, basis, component count and (noise
    mode) analytic bound.  Layers read only the basis's last prime, the
    one a Rescale divides out; symbolic runs give every level one basis,
    whose prime is 1.0."""

    level: int
    scale: float
    basis: SimpleNamespace
    size: int = 2
    bound: NoiseBound | None = None

    @property
    def is_linear(self) -> bool:
        return self.size == 2


_SYMBOLIC = SimpleNamespace(primes=(1.0,))


class DryRunEvaluator(Evaluator):
    """The :class:`Evaluator` primitives the packed layers call, recording
    instead of computing.  The composite helpers (``rotate``,
    ``multiply_values_rescale``, ...) are inherited, so they decompose
    into the same primitives as in a real pass."""

    def __init__(self, slot_count: int, estimator: NoiseEstimator | None = None):
        super().__init__(None, OperationRecorder())
        self.slot_count = slot_count
        self.estimator = estimator
        self.plaintexts: set = set()
        self.keys: set[tuple[int, int]] = set()
        self.steps: set[int] = set()
        self.relin_levels: set[int] = set()
        self._folds: dict = {}  # (steps, level) -> (rotations, keys)

    def _out(self, op, cts, level, scale, pts=(), size=2, logical=1):
        """The output of ``op`` on ``cts`` (and plaintexts ``pts``)."""
        if self.estimator is None:
            return DryCiphertext(level, scale, _SYMBOLIC, size)
        bound = propagate_op(
            self.estimator, op, [ct.bound for ct in cts],
            [(pt.peak, pt.scale) for pt in pts], level, scale, logical,
        )
        return DryCiphertext(
            level, scale, _basis(self.estimator, level), size, bound
        )

    def encode_cached(self, values, level, scale, cache_key=None):
        self.plaintexts.add(
            object() if cache_key is None else (cache_key, level)
        )
        if self.estimator is None:
            return DryPlaintext(level, scale)
        values = values() if callable(values) else values
        peak = float(np.max(np.abs(values), initial=0.0))
        return DryPlaintext(level, scale, max(peak, 1e-12))

    def add(self, a, b):
        self._check_scales(a.scale, b.scale)
        self._note(HeOp.CC_ADD)
        return self._out("CCadd", (a, b), min(a.level, b.level), a.scale,
                         size=a.size)

    def add_plain(self, ct, pt):
        self._check_scales(ct.scale, pt.scale)
        self._note(HeOp.PC_ADD)
        return self._out("PCadd", (ct,), ct.level, ct.scale, (pt,), ct.size)

    def multiply_plain(self, ct, pt):
        self._note(HeOp.PC_MULT)
        return self._out("PCmult", (ct,), ct.level, ct.scale * pt.scale,
                         (pt,), ct.size)

    def multiply_plain_rescale_sum(self, cts, pts):
        level, scale = cts[0].level, cts[0].scale * pts[0].scale
        for ct, pt in zip(cts, pts, strict=True):
            if ct.level != level:
                raise ValueError(f"level mismatch: {ct.level} vs {level}")
            self._check_scales(scale, ct.scale * pt.scale)
        self._note_sum(len(cts), rescaled=True)
        return self._out("PCmultRescaleSum", cts, level - 1,
                         scale / cts[0].basis.primes[-1], pts)

    def square(self, ct):
        self._note(HeOp.CC_MULT)
        return self._out("CCmult", (ct,), ct.level, ct.scale**2, size=3)

    def multiply_diagonals(self, ct, baby_steps, giant_steps, diagonal,
                           cache_key):
        """The keys :meth:`Evaluator.multiply_diagonals` fetches, the
        plaintexts it encodes, the HOPs of the loop it replaces and that
        loop's bound (the ``BSGS`` rule of :func:`~repro.fhe.noise
        .propagate_op`)."""
        babies = tuple(s % self.slot_count for s in baby_steps)
        giants = tuple(s % self.slot_count for s in giant_steps)
        for steps, level in ((babies, ct.level), (giants, ct.level - 1)):
            self.keys.update((s, level) for s in steps if s)
            self.steps.update(s for s in steps if s)
        q_last = ct.basis.primes[-1]
        pts = [
            self.encode_cached(
                partial(diagonal, gi, bi), level=ct.level, scale=q_last,
                cache_key=None if cache_key is None else (cache_key, gi, bi),
            )
            for gi in range(len(giants))
            for bi in range(len(babies))
        ]
        self._note_diagonals(babies, giants)
        return self._out("BSGS", (ct,), ct.level - 1,
                         ct.scale * q_last / q_last, pts,
                         logical=(babies, giants))

    def rescale(self, ct):
        self._note(HeOp.RESCALE)
        return self._out("Rescale", (ct,), ct.level - 1,
                         ct.scale / ct.basis.primes[-1], size=ct.size)

    def relinearize(self, ct):
        if ct.is_linear:
            return ct
        self.relin_levels.add(ct.level)
        self._note(HeOp.KEY_SWITCH)
        return self._out("Relinearize", (ct,), ct.level, ct.scale)

    def rotate_hoisted(self, ct, steps):
        out = []
        for step in steps:
            step %= self.slot_count
            if step:
                self.keys.add((step, ct.level))
                self.steps.add(step)
                self._note(HeOp.KEY_SWITCH)
            out.append(self._out("Rotate", (ct,), ct.level, ct.scale)
                       if step else ct)
        return out

    def rotate_fold(self, ct, steps):
        """One logical Rotate (per non-zero step) and CCadd per step, the
        keys :meth:`Evaluator.rotate_fold` fetches at ``ct``'s level (each
        non-zero step and its hoisted groups' subset sums), and the
        tracker's ``RotateFold`` bound over all the steps (which charges a
        zero step a rotation the real walk skips: conservative)."""
        memo = (tuple(steps), ct.level)
        if memo not in self._folds:  # the grouping walk is slow
            rotations = [s for s in (x % self.slot_count for x in steps) if s]
            fetched = set(rotations).union(
                fold_composite_steps(steps, self.slot_count)
            )
            self._folds[memo] = rotations, {(s, ct.level) for s in fetched}
        rotations, keys = self._folds[memo]
        self.keys |= keys
        self.steps.update(rotations)
        self._note(HeOp.KEY_SWITCH, len(rotations))
        self._note(HeOp.CC_ADD, len(steps))
        return self._out("RotateFold", (ct,), ct.level, ct.scale,
                         logical=len(steps))


def dry_inputs(count, level, estimator=None, message_bound=1.0):
    """``count`` freshly encrypted ciphertexts at ``level`` (with an
    estimator: carrying the fresh bound of a ``message_bound`` message)."""
    if estimator is None:
        return [DryCiphertext(level, 1.0, _SYMBOLIC)] * count
    bound = estimator.fresh(message_bound, level=level)
    basis = _basis(estimator, level)
    return [DryCiphertext(level, bound.scale, basis, 2, bound)] * count


def _basis(estimator: NoiseEstimator, level: int) -> SimpleNamespace:
    return SimpleNamespace(primes=estimator.primes[:level])
