"""Montgomery-domain batched NTT backend.

A stacked Harvey-lazy/Shoup NTT over all RNS rows spends most of its time
in per-stage numpy passes, and two structural costs dominate on top of the
raw arithmetic:

* broadcast operands (``(1, L, 1, 1)`` modulus columns, strided twiddle
  views) make the uint64 inner loops ~2.5x slower than scalar-constant
  passes over contiguous data;
* the late (small ``t``) butterfly stages degenerate into huge numbers of
  tiny blocks whose strided slices defeat vectorization.

This backend attacks all three cost centers:

**Montgomery butterflies (forward).**  Twiddles are stored in Montgomery
form ``w~ = w * 2**32 mod q`` with the paired constant
``w' = w~ * (-q**-1 mod 2**32) mod 2**32``.  One REDC butterfly multiply is

    t_v = (v * w~ + ((v * w') mod 2**32) * q) >> 32        in [0, 2q)

valid for *any* ``v < 2**32`` — unlike the Shoup form it does not need its
plain operand reduced, so per-stage conditional reductions disappear
entirely.  Values grow by ``+2q`` per stage and are renormalized with a
division-free approximate reduction (``x - ((x * floor(2**32/q)) >> 32) *
q``, mapping ``[0, 2**32) -> [0, 2q)``) only when the running bound would
overflow ``2**32``; a 28-bit chain renormalizes every ~7 stages.  A single
exit pass converts back with an exact reduction on every forward, so
outputs are canonical (below ``q``) and bit-identical to the reference
transform; the KeySwitch inner product (``repro.fhe.ops._inner_product``)
relies on canonical digits for its overflow budget.

**Relaxed Gentleman-Sande (inverse).**  The difference leg reuses Shoup
twiddle quotients but defers all reductions: the working bound *doubles*
per stage and is renormalized with the same approximate reduction when
needed, bringing the stage down to 8 numpy passes (the sum leg is computed
in place, no copy pass).  The final ``1/N`` Shoup multiply plus one exact
conditional subtract restores ``[0, q)`` exactly.

**Transposed tail layout.**  Once the butterfly half-length ``t`` drops to
the crossover point the residue rows are transposed so the remaining
stages operate on a contiguous inner axis of length ``n // (2 * tx)``;
twiddle tables are pre-transposed at plan build.  The inverse enters in
transposed layout and untransposes once its block size grows past the
crossover.

**Plans and wide/narrow execution.**  A plan holds one table set per
direction, built under the plan's lock the first time that direction
runs.  Every stage's twiddles and partners are laid out contiguously as
its butterfly operand: ``(L, m, t)`` in the standard layout and ``(L, K,
t * m1)`` in the transposed tail (expanded over ``t``).  Plans of two or
more primes also hold per-prime rows: ``2**k * q`` at ``(L, N/2)`` for
the butterflies, and ``q`` and ``floor(2**32 / q)`` (inverse: also ``1/N``
and its Shoup quotient) at ``(L, N)`` for the passes over whole rows.
Such a plan runs a stack of a few dozen ``(row, prime)`` pairs at most
"narrow": all pairs in one numpy call per stage, its tables broadcast over
the stack's rows as views of the data's shape (numpy takes a slower path
when it broadcasts operands itself).  Single-prime stacks and larger
stacks run "wide": one prime at a time, with scalar constants.  Either way
every pass has a contiguous inner axis, because numpy's stride-0 inner
loops are ~1.5-2x slower than contiguous passes at these sizes.  At
N=2048 and 28-bit primes one direction's stages hold 176 KiB per prime,
and its rows 48 KiB (forward) or 96 KiB (inverse).  Both paths read the
same tables and are bit-identical.
"""

from __future__ import annotations

import threading

import numpy as np

from ..ntt import count_transform, get_batched_ntt_context
from .base import KernelBackend

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_SH = _U64(32)

#: Stacked batches with at most this many total (row, prime) rows run the
#: narrow path; beyond it the per-prime wide path wins.  The inverse flips
#: to wide earlier: its transposed-entry stages thrash harder on large
#: stacks.
NARROW_MAX_R_FORWARD = 28
NARROW_MAX_R_INVERSE = 16

#: A stack whose stage operands exceed this many elements (R * N/2) runs
#: wide too: at N=8192 an 8-prime, 3-row forward is ~25% slower narrow.
NARROW_MAX_ELEMS = 1 << 16


def _crossover(n: int) -> int:
    """Butterfly half-length at which to switch to the transposed tail."""
    tx = 1
    while tx * tx * 4 <= n:
        tx *= 2
    if n // (2 * tx) < 4 or tx < 2:
        return 0
    return tx


def _layout(w: np.ndarray, m: int, t: int, m1: int) -> np.ndarray:
    """Stage ``m``'s twiddles ``w[:, m:2m]`` as a contiguous ``(L, blocks,
    width)`` butterfly operand: ``(L, m, t)``, or ``(L, m // m1, t * m1)``
    in the transposed tail (``m1 > 0``), expanded over ``t``."""
    level = w.shape[0]
    block = w[:, m : 2 * m]
    if m1:
        k = m // m1
        src = block.reshape(level, m1, k).transpose(0, 2, 1)[:, :, None]
        shape = (level, k, t, m1)
    else:
        src, shape = block[:, :, None], (level, m, t)
    return np.ascontiguousarray(np.broadcast_to(src, shape)).reshape(
        level, shape[1], -1
    )


def _bcast(a: np.ndarray, rows: int) -> np.ndarray:
    return a if rows == 1 else np.broadcast_to(a, (rows,) + a.shape)


class _Tables:
    """One direction's tables of a plan.

    ``stages`` holds one ``(tail, w, w2, k, renorm)`` per stage, in the
    order the stages run: whether it runs in the transposed tail, its
    twiddles and their partners (``w`` and ``w2`` laid out by
    :func:`_layout`), the index
    ``k`` of its fourth operand ``2**k * q`` in ``q_pow`` (``2q`` forward,
    the lift offset inverse) and whether it renormalizes first.
    ``cols`` holds the per-prime constants as ``(..., L, 1)`` columns, for
    the wide path's scalars: ``2**k * q``, then ``q`` and ``floor(2**32 /
    q)`` (inverse: also ``1/N`` and its Shoup quotient).  Plans of two or
    more primes, which run narrow, also hold them as rows: ``q_pow`` is
    ``(K, L, N/2)`` and ``whole`` the ``(L, N)`` rows of the passes over
    whole residue rows.
    """

    __slots__ = ("n", "stages", "cols", "q_pow", "whole", "_views", "_lock")

    def __init__(self, plan: "MontgomeryPlan", w, w2, stages, cols) -> None:
        n = self.n = plan.n
        self.stages = []
        for m, k, renorm in stages:
            t = n // (2 * m)
            m1 = plan.m1 if plan.m1 and m >= plan.m1 else 0
            self.stages.append(
                (bool(m1), _layout(w, m, t, m1), _layout(w2, m, t, m1), k, renorm)
            )
        self.cols = cols
        self.q_pow, self.whole = None, ()
        if plan.level > 1:
            self.q_pow = np.ascontiguousarray(
                np.broadcast_to(cols[0], cols[0].shape[:-1] + (n // 2,))
            )
            self.whole = tuple(
                np.ascontiguousarray(np.broadcast_to(c, (c.shape[0], n)))
                for c in cols[1:]
            )
        self._views: dict[tuple[int, int | None], _Views] = {}
        self._lock = plan._lock

    def views(self, rows: int, prime: int | None) -> "_Views":
        """Operands for ``rows`` rows of every prime (``prime is None``), or
        for prime ``prime`` of a stack of any height (``rows == 1``)."""
        key = (rows, prime)
        views = self._views.get(key)
        if views is None:
            with self._lock:
                views = self._views.get(key)
                if views is None:
                    views = self._views[key] = _Views(self, rows, prime)
        return views


class _Views:
    """Views of one direction's tables shaped as one stack's operands.

    The narrow path runs all primes of a ``rows``-high stack: every table
    is laid out as its pass's operand, broadcast over the rows, so that all
    operands of a pass have one shape (numpy takes a slower path when it
    broadcasts them itself).  The wide path runs one prime over a stack of
    any height with scalar constants; its shapes omit the rows.
    """

    __slots__ = ("std", "tail", "row_shape", "consts")

    def __init__(self, tab: _Tables, rows: int, prime: int | None) -> None:
        n = tab.n
        level = tab.cols[0].shape[1] if prime is None else 1
        lead = () if rows == 1 else (rows,)
        self.std: list[tuple] = []
        self.tail: list[tuple] = []
        for tail, w, w2, k, renorm in tab.stages:
            _, blocks, width = w.shape
            b = level * blocks
            if prime is None:
                w, w2, q, c2 = (
                    _bcast(a.reshape(b, width), rows)
                    for a in (w, w2, tab.q_pow[0], tab.q_pow[k])
                )
            else:
                w, w2 = w[prime], w2[prime]
                q, c2 = tab.cols[0][0, prime, 0], tab.cols[0][k, prime, 0]
            (self.tail if tail else self.std).append(
                (lead + (b, 2 * width), lead + (b, width), width, w, w2, q, c2, renorm)
            )
        #: The stack as whole residue rows, for the passes over them.
        self.row_shape = lead + (level * n,)
        if prime is None:
            self.consts = tuple(_bcast(c.reshape(-1), rows) for c in tab.whole)
        else:
            self.consts = tuple(c[prime, 0] for c in tab.cols[1:])


class MontgomeryPlan:
    """Precomputed per-``(n, primes)`` tables for the Montgomery kernels.

    Builds on the shared :class:`~repro.fhe.ntt.BatchedNttContext` tables
    (roots, Shoup quotients) and adds Montgomery twiddles plus the
    stage-by-stage layouts described in the module docstring, one
    :class:`_Tables` per direction, built when that direction first runs.
    """

    def __init__(self, n: int, primes: tuple[int, ...]) -> None:
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        self.level = len(self.primes)
        #: Renormalize when the lazy bound (in units of q) would pass this.
        self.bmax = (1 << 32) // max(self.primes)
        tx = _crossover(n)
        #: Inner axis of the transposed tail (0: no tail).
        self.m1 = n // (2 * tx) if tx else 0
        self._lock = threading.Lock()
        self._forward: _Tables | None = None
        self._inverse: _Tables | None = None

    def narrow(self, rows: int, max_r: int) -> bool:
        """Whether a ``rows``-high stack runs all its (row, prime) pairs in
        one call per stage."""
        r = rows * self.level
        return self.level > 1 and r <= max_r and r * (self.n // 2) <= NARROW_MAX_ELEMS

    def forward_tables(self) -> _Tables:
        if self._forward is None:
            with self._lock:
                if self._forward is None:
                    self._forward = self._build_forward()
        return self._forward

    def inverse_tables(self) -> _Tables:
        if self._inverse is None:
            with self._lock:
                if self._inverse is None:
                    self._inverse = self._build_inverse()
        return self._inverse

    def _mus(self) -> np.ndarray:
        return np.array(
            [(1 << 32) // q for q in self.primes], dtype=_U64
        ).reshape(-1, 1)

    def _build_forward(self) -> _Tables:
        ctx = get_batched_ntt_context(self.n, self.primes)
        # Montgomery twiddles and their REDC partners, in the bit-reversed
        # stage order consumed by the Cooley-Tukey butterflies.
        wt = (ctx.psi_bitrev << _SH) % ctx.qs
        qp = np.array(
            [(1 << 32) - pow(q, -1, 1 << 32) for q in self.primes], dtype=_U64
        ).reshape(-1, 1)
        wp = (wt * qp) & _M32
        stages = []
        bound = 1
        m = 1
        while m < self.n:
            renorm = bound + 2 > self.bmax
            bound = (2 if renorm else bound) + 2
            stages.append((m, 1, renorm))
            m *= 2
        q_pow = ctx.qs << np.arange(2, dtype=_U64).reshape(-1, 1, 1)
        return _Tables(self, wt, wp, stages, (q_pow, ctx.qs, self._mus()))

    def _build_inverse(self) -> _Tables:
        # Inverse stages use the plain/Shoup pair from the shared context.
        ctx = get_batched_ntt_context(self.n, self.primes)
        stages = []
        bound = 1
        m = self.n // 2
        while m:
            renorm = 2 * bound > self.bmax
            if renorm:
                bound = 2
            stages.append((m, bound.bit_length() - 1, renorm))
            bound *= 2
            m //= 2
        kmax = max(k for _, k, _ in stages)
        q_pow = ctx.qs << np.arange(kmax + 1, dtype=_U64).reshape(-1, 1, 1)
        cols = (q_pow, ctx.qs, self._mus(), ctx.n_inv, ctx.n_inv_shoup)
        return _Tables(self, ctx.psi_inv_bitrev, ctx.psi_inv_shoup, stages, cols)


def _approx_reduce(x: np.ndarray, mu, q) -> None:
    """Division-free ``[0, 2**32) -> [0, 2q)`` renormalization, in place."""
    hi = np.multiply(x, mu)
    hi >>= _SH
    hi *= q
    x -= hi


def _cond_sub(x: np.ndarray, q) -> None:
    """``[0, 2q) -> [0, q)``, in place."""
    mask = x >= q
    np.subtract(x, np.multiply(mask, q, dtype=_U64), out=x)


def _fwd_stage(u, v, tv, mm, we, pe, q, two_q) -> None:
    """One REDC Cooley-Tukey stage; adds at most 2q to the value bound."""
    np.multiply(v, we, out=tv)
    np.multiply(v, pe, out=mm)
    np.bitwise_and(mm, _M32, out=mm)
    np.multiply(mm, q, out=mm)
    np.add(tv, mm, out=tv)
    np.right_shift(tv, _SH, out=tv)
    np.subtract(u, tv, out=v)
    np.add(v, two_q, out=v)
    np.add(u, tv, out=u)


def _inv_stage(u, v, d, hi, we, se, q, off) -> None:
    """One relaxed Gentleman-Sande stage; doubles the value bound.

    ``off`` is ``bound * q`` — it lifts the difference leg above zero before
    the uint64 subtraction.
    """
    np.subtract(u, v, out=d)
    np.add(d, off, out=d)
    np.add(u, v, out=u)
    np.multiply(d, se, out=hi)
    np.right_shift(hi, _SH, out=hi)
    np.multiply(hi, q, out=hi)
    np.multiply(d, we, out=v)
    np.subtract(v, hi, out=v)


def _stages(a, stages, kernel, lead, views, s1, s2) -> None:
    """Run ``stages`` over ``a`` in place (``lead``: the wide path's rows)."""
    q, mu = views.consts[:2]
    row_shape = lead + views.row_shape
    cnt = a.size // 2
    for bshape, shape, width, w, w2, c, c2, renorm in stages:
        if renorm:
            _approx_reduce(a.reshape(row_shape), mu, q)
        blocks = a.reshape(lead + bshape)
        shape = lead + shape
        kernel(
            blocks[..., :width],
            blocks[..., width:],
            s1[:cnt].reshape(shape),
            s2[:cnt].reshape(shape),
            w,
            w2,
            c,
            c2,
        )


def _to_tail(x: np.ndarray, m1: int) -> np.ndarray:
    n = x.shape[-1]
    return np.ascontiguousarray(x.reshape(-1, m1, n // m1).transpose(0, 2, 1))


def _from_tail(y: np.ndarray, shape) -> np.ndarray:
    return np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(shape)


def _forward(x, views, lead, m1, s1, s2) -> np.ndarray:
    """Forward NTT of ``x`` in place (or a new array, past the tail)."""
    _stages(x, views.std, _fwd_stage, lead, views, s1, s2)
    if views.tail:
        y = _to_tail(x, m1)
        _stages(y, views.tail, _fwd_stage, lead, views, s1, s2)
        x = _from_tail(y, x.shape)
    # Exact exit: approximate reduce plus one conditional subtract.
    q, mu = views.consts
    xw = x.reshape(lead + views.row_shape)
    _approx_reduce(xw, mu, q)
    _cond_sub(xw, q)
    return x


def _inverse(x, views, lead, m1, s1, s2) -> np.ndarray:
    """Inverse NTT of ``x`` in place (or a new array, past the tail)."""
    if views.tail:
        y = _to_tail(x, m1)
        _stages(y, views.tail, _inv_stage, lead, views, s1, s2)
        x = _from_tail(y, x.shape)
    _stages(x, views.std, _inv_stage, lead, views, s1, s2)
    # 1/N Shoup scaling fused with the exact exit reduction.
    q, _mu, n_inv, n_inv_shoup = views.consts
    xw = x.reshape(lead + views.row_shape)
    hi = np.multiply(xw, n_inv_shoup)
    hi >>= _SH
    hi *= q
    xw *= n_inv
    xw -= hi
    _cond_sub(xw, q)
    return x


def _run(plan: MontgomeryPlan, tab: _Tables, kernel, flat, max_r: int):
    rows = flat.shape[0]
    s1 = np.empty(flat.size // 2, dtype=_U64)
    s2 = np.empty(flat.size // 2, dtype=_U64)
    if plan.narrow(rows, max_r):
        return kernel(flat, tab.views(rows, None), (), plan.m1, s1, s2)
    lead = (rows,) if rows > 1 else ()
    for i in range(plan.level):
        x = np.ascontiguousarray(flat[:, i, :])
        flat[:, i, :] = kernel(x, tab.views(1, i), lead, plan.m1, s1, s2)
    return flat


def plan_forward(plan: MontgomeryPlan, flat: np.ndarray) -> np.ndarray:
    """Forward NTT of a ``(rows, L, N)`` uint64 working copy (mutated)."""
    return _run(plan, plan.forward_tables(), _forward, flat, NARROW_MAX_R_FORWARD)


def plan_inverse(plan: MontgomeryPlan, flat: np.ndarray) -> np.ndarray:
    """Inverse NTT of a ``(rows, L, N)`` uint64 working copy (mutated)."""
    return _run(plan, plan.inverse_tables(), _inverse, flat, NARROW_MAX_R_INVERSE)


class MontgomeryBackend(KernelBackend):
    """Single-threaded Montgomery/relaxed-lazy kernel backend (default)."""

    name = "montgomery"

    def __init__(self) -> None:
        self._plans: dict[tuple[int, tuple[int, ...]], MontgomeryPlan] = {}
        self._lock = threading.Lock()

    def plan(self, n: int, primes: tuple[int, ...]) -> MontgomeryPlan:
        key = (n, tuple(primes))
        plan = self._plans.get(key)
        if plan is None:
            with self._lock:
                plan = self._plans.get(key)
                if plan is None:
                    plan = self._plans[key] = MontgomeryPlan(*key)
        return plan

    def forward(self, n, primes, values):
        plan = self.plan(n, primes)
        flat, shape = self._residue_copy(n, plan.primes, values)
        count_transform("forward", flat.shape[0] * plan.level, self.name)
        return plan_forward(plan, flat).reshape(shape)

    def inverse(self, n, primes, values):
        plan = self.plan(n, primes)
        flat, shape = self._residue_copy(n, plan.primes, values)
        count_transform("inverse", flat.shape[0] * plan.level, self.name)
        return plan_inverse(plan, flat).reshape(shape)

    def plan_keys(self) -> list[tuple]:
        return sorted(self._plans)

    def clear_plans(self) -> None:
        with self._lock:
            self._plans.clear()
