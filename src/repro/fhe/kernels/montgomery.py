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
exit pass converts back with an exact reduction, so outputs stay
bit-identical to the reference transform.

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

**Wide/narrow execution.**  Very large batches run one prime at a time
with scalar modulus constants and contiguous pre-expanded twiddles ("wide");
everything else runs all ``(row, prime)`` pairs in one stacked call per
stage ("narrow").  Narrow stages use *fully tiled* twiddle and modulus
tables — expanded to the exact contiguous shape of the butterfly operands,
cached per batch height — because numpy's stride-0 broadcast inner loops
are ~1.5-2x slower than same-shape contiguous passes at these sizes.
Both paths share the same plan tables and are bit-identical.
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
#: tiled narrow path; beyond it the per-prime wide path wins (and tiled
#: tables would grow past their memory budget).  The inverse flips to wide
#: earlier: its transposed-entry stages thrash harder on large stacks.
NARROW_MAX_R_FORWARD = 28
NARROW_MAX_R_INVERSE = 16

#: Skip tiling (fall back to wide) when one tiled stage table would exceed
#: this many elements; also caps per-plan tiled-cache memory.
TILE_MAX_ELEMS = 1 << 16

#: Maximum distinct batch heights cached per plan and direction before the
#: tiled-table cache is reset.
TILE_CACHE_ENTRIES = 8


def _crossover(n: int) -> int:
    """Butterfly half-length at which to switch to the transposed tail."""
    tx = 1
    while tx * tx * 4 <= n:
        tx *= 2
    if n // (2 * tx) < 4 or tx < 2:
        return 0
    return tx


class MontgomeryPlan:
    """Precomputed per-``(n, primes)`` tables for the Montgomery kernels.

    Builds on the shared :class:`~repro.fhe.ntt.BatchedNttContext` tables
    (roots, Shoup quotients) and adds Montgomery twiddles plus the
    stage-by-stage layouts described in the module docstring.
    """

    def __init__(self, n: int, primes: tuple[int, ...]) -> None:
        ctx = get_batched_ntt_context(n, primes)
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        level = len(self.primes)
        self.level = level
        #: Per-prime scalar constants for the wide path.
        self.qs = [_U64(q) for q in self.primes]
        self.mus = [_U64((1 << 32) // q) for q in self.primes]
        #: Column-shaped constants for the narrow path.
        self.qs_col = ctx.qs.reshape(1, level, 1)
        self.mus_col = np.array(
            [(1 << 32) // q for q in self.primes], dtype=_U64
        ).reshape(1, level, 1)
        #: Renormalize when the lazy bound (in units of q) would pass this.
        self.bmax = (1 << 32) // max(self.primes)
        tx = _crossover(n)
        self.tx = tx

        # Montgomery twiddles and their REDC partners, in the bit-reversed
        # stage order consumed by the Cooley-Tukey butterflies.
        wt = (ctx.psi_bitrev << _SH) % ctx.qs
        qp_col = np.array(
            [(1 << 32) - pow(q, -1, 1 << 32) for q in self.primes], dtype=_U64
        ).reshape(level, 1)
        wp = (wt * qp_col) & _M32

        #: Standard-layout forward stages: (t, m, twiddles, redc_partners)
        #: with tables pre-expanded to contiguous (L, m, t).
        self.std_f: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        t = n
        m = 1
        while m < n and (tx == 0 or t // 2 > tx):
            t //= 2
            we = np.empty((level, m, t), dtype=_U64)
            pe = np.empty((level, m, t), dtype=_U64)
            we[...] = wt[:, m : 2 * m, None]
            pe[...] = wp[:, m : 2 * m, None]
            self.std_f.append((t, m, we, pe))
            m *= 2
        #: Transposed-tail forward stages: (t, K, twiddles, redc_partners)
        #: with tables shaped (L, K, 1, m1) for the (rows, K, 2t, m1) view.
        self.tail_f: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        self.m1 = 0
        if tx and m < n:
            m1 = n // (2 * tx)
            self.m1 = m1
            while m < n:
                K = m // m1
                we = np.ascontiguousarray(
                    wt[:, m : 2 * m].reshape(level, m1, K).transpose(0, 2, 1)
                ).reshape(level, K, 1, m1)
                pe = np.ascontiguousarray(
                    wp[:, m : 2 * m].reshape(level, m1, K).transpose(0, 2, 1)
                ).reshape(level, K, 1, m1)
                self.tail_f.append((n // (2 * m), K, we, pe))
                m *= 2

        # Inverse stages use the plain/Shoup pair from the shared context.
        wi = ctx.psi_inv_bitrev
        wsi = ctx.psi_inv_shoup
        #: Transposed-entry inverse stages: (t, h, K, twiddles, shoup).
        self.tail_i: list[tuple[int, int, int, np.ndarray, np.ndarray]] = []
        self.h1 = 0
        m = n
        t = 1
        if tx:
            h1 = n // (2 * tx)
            self.h1 = h1
            while m // 2 >= h1 and m > 1:
                h = m // 2
                K = h // h1
                we = np.ascontiguousarray(
                    wi[:, h : 2 * h].reshape(level, h1, K).transpose(0, 2, 1)
                ).reshape(level, K, 1, h1)
                se = np.ascontiguousarray(
                    wsi[:, h : 2 * h].reshape(level, h1, K).transpose(0, 2, 1)
                ).reshape(level, K, 1, h1)
                self.tail_i.append((t, h, K, we, se))
                t *= 2
                m = h
        #: Standard-layout inverse stages: (t, h, twiddles, shoup).
        self.std_i: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        while m > 1:
            h = m // 2
            we = np.empty((level, h, t), dtype=_U64)
            se = np.empty((level, h, t), dtype=_U64)
            we[...] = wi[:, h : 2 * h, None]
            se[...] = wsi[:, h : 2 * h, None]
            self.std_i.append((t, h, we, se))
            t *= 2
            m = h
        self.n_inv = [_U64(v) for v in ctx.n_inv.ravel()]
        self.n_inv_shoup = [_U64(v) for v in ctx.n_inv_shoup.ravel()]
        self.n_inv_col = ctx.n_inv.reshape(1, level, 1)
        self.n_inv_shoup_col = ctx.n_inv_shoup.reshape(1, level, 1)
        self._qs_vec = np.array(self.primes, dtype=_U64)
        self._mus_vec = np.array([(1 << 32) // q for q in self.primes], dtype=_U64)
        self._tiled_f: dict[int, _TiledForward] = {}
        self._tiled_i: dict[int, _TiledInverse] = {}
        self._tile_lock = threading.Lock()

    # -- tiled narrow tables -------------------------------------------------------

    def _tile(self, table: np.ndarray, rows: int) -> np.ndarray:
        """Expand a per-prime stage table to the full contiguous operand shape.

        ``table`` is ``(level, *stage)`` (with a possible broadcast axis of
        length 1 inside ``stage``); the result is ``(rows * level, *stage)``
        with every axis materialized, so narrow-stage passes never touch a
        stride-0 operand.
        """
        level = self.level
        shape = (rows, level) + table.shape[1:]
        out = np.ascontiguousarray(np.broadcast_to(table[None], shape))
        return out.reshape((rows * level,) + table.shape[1:])

    def _tile_const(self, values: np.ndarray, rows: int, width: int) -> np.ndarray:
        """Tile per-prime scalars to a contiguous ``(rows * level, width)``."""
        shape = (rows, self.level, width)
        out = np.ascontiguousarray(np.broadcast_to(values[None, :, None], shape))
        return out.reshape(rows * self.level, width)

    def tiled_forward(self, rows: int) -> "_TiledForward | None":
        if rows * self.level * (self.n // 2) > TILE_MAX_ELEMS:
            return None
        tab = self._tiled_f.get(rows)
        if tab is None:
            with self._tile_lock:
                tab = self._tiled_f.get(rows)
                if tab is None:
                    if len(self._tiled_f) >= TILE_CACHE_ENTRIES:
                        self._tiled_f.clear()
                    tab = self._tiled_f[rows] = _TiledForward(self, rows)
        return tab

    def tiled_inverse(self, rows: int) -> "_TiledInverse | None":
        if rows * self.level * (self.n // 2) > TILE_MAX_ELEMS:
            return None
        tab = self._tiled_i.get(rows)
        if tab is None:
            with self._tile_lock:
                tab = self._tiled_i.get(rows)
                if tab is None:
                    if len(self._tiled_i) >= TILE_CACHE_ENTRIES:
                        self._tiled_i.clear()
                    tab = self._tiled_i[rows] = _TiledInverse(self, rows)
        return tab


class _TiledForward:
    """Forward narrow-stage tables tiled for one batch height.

    The renormalization schedule is replayed at build time (it depends only
    on the plan), so the runtime loop consumes precomputed ``renorm`` flags
    and stays bit-identical to the untiled schedule.
    """

    __slots__ = ("qn", "mun", "qh", "two_qh", "std", "tail")

    def __init__(self, plan: MontgomeryPlan, rows: int) -> None:
        n, half = plan.n, plan.n // 2
        self.qn = plan._tile_const(plan._qs_vec, rows, n)
        self.mun = plan._tile_const(plan._mus_vec, rows, n)
        self.qh = self.qn[:, :half].copy()
        self.two_qh = self.qh * _U64(2)
        self.std = []
        self.tail = []
        bound = 1
        for t, m, we, pe in plan.std_f:
            renorm = bound + 2 > plan.bmax
            if renorm:
                bound = 2
            self.std.append((t, m, plan._tile(we, rows), plan._tile(pe, rows), renorm))
            bound += 2
        for t, K, we, pe in plan.tail_f:
            renorm = bound + 2 > plan.bmax
            if renorm:
                bound = 2
            # (level, K, 1, m1) -> (R, K, t, m1): materialize the broadcast
            # t axis too, so the butterfly passes are fully contiguous.
            wide_t = np.broadcast_to(we, (plan.level, K, t, plan.m1))
            wide_p = np.broadcast_to(pe, (plan.level, K, t, plan.m1))
            self.tail.append(
                (t, K, plan._tile(wide_t, rows), plan._tile(wide_p, rows), renorm)
            )
            bound += 2


class _TiledInverse:
    """Inverse narrow-stage tables (twiddles, Shoup pairs, lift offsets)."""

    __slots__ = ("qn", "mun", "qh", "n_inv_n", "n_inv_shoup_n", "tail", "std")

    def __init__(self, plan: MontgomeryPlan, rows: int) -> None:
        n, half = plan.n, plan.n // 2
        self.qn = plan._tile_const(plan._qs_vec, rows, n)
        self.mun = plan._tile_const(plan._mus_vec, rows, n)
        self.n_inv_n = plan._tile_const(
            np.array([int(v) for v in plan.n_inv], dtype=_U64), rows, n
        )
        self.n_inv_shoup_n = plan._tile_const(
            np.array([int(v) for v in plan.n_inv_shoup], dtype=_U64), rows, n
        )
        qh = self.qh = self.qn[:, :half].copy()
        offs: dict[int, np.ndarray] = {}

        def off_for(bound: int) -> np.ndarray:
            arr = offs.get(bound)
            if arr is None:
                arr = offs[bound] = qh * _U64(bound)
            return arr

        self.tail = []
        self.std = []
        bound = 1
        for t, h, K, we, se in plan.tail_i:
            renorm = 2 * bound > plan.bmax
            if renorm:
                bound = 2
            wide_t = np.broadcast_to(we, (plan.level, K, t, plan.h1))
            wide_s = np.broadcast_to(se, (plan.level, K, t, plan.h1))
            self.tail.append(
                (
                    t,
                    h,
                    K,
                    plan._tile(wide_t, rows),
                    plan._tile(wide_s, rows),
                    off_for(bound),
                    renorm,
                )
            )
            bound *= 2
        for t, h, we, se in plan.std_i:
            renorm = 2 * bound > plan.bmax
            if renorm:
                bound = 2
            self.std.append(
                (
                    t,
                    h,
                    plan._tile(we, rows),
                    plan._tile(se, rows),
                    off_for(bound),
                    renorm,
                )
            )
            bound *= 2


def _approx_reduce(x: np.ndarray, mu, q) -> None:
    """Division-free ``[0, 2**32) -> [0, 2q)`` renormalization, in place."""
    hi = np.multiply(x, mu)
    hi >>= _SH
    hi *= q
    x -= hi


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


def _exit_reduce(x: np.ndarray, mu, q) -> None:
    """Exact ``-> [0, q)`` exit: approximate reduce + conditional subtract."""
    _approx_reduce(x, mu, q)
    mask = x >= q
    np.subtract(x, np.multiply(mask, q, dtype=_U64), out=x)


def plan_forward(
    plan: MontgomeryPlan,
    flat: np.ndarray,
    mode: str | None = None,
    lazy: bool = False,
) -> np.ndarray:
    """Forward NTT of a ``(rows, L, N)`` uint64 working copy (mutated).

    With ``lazy=True`` the final exact exit reduction is skipped: outputs
    are correct modulo ``q`` but live in ``[0, bound*q)`` with
    ``bound*q <= 2**32`` — exactly the domain the lazy Shoup inner
    product accepts.  Only callers that feed the result into a deferred
    Barrett reduction may use it.
    """
    rows = flat.shape[0]
    if mode is None:
        wide = rows * plan.level > NARROW_MAX_R_FORWARD
    else:
        wide = mode == "wide"
    s1 = np.empty(flat.size // 2, dtype=_U64)
    s2 = np.empty(flat.size // 2, dtype=_U64)
    if wide:
        return _forward_wide(plan, flat, s1, s2, lazy)
    return _forward_narrow(plan, flat, s1, s2, lazy)


def plan_inverse(
    plan: MontgomeryPlan, flat: np.ndarray, mode: str | None = None
) -> np.ndarray:
    """Inverse NTT of a ``(rows, L, N)`` uint64 working copy (mutated)."""
    rows = flat.shape[0]
    if mode is None:
        wide = rows * plan.level > NARROW_MAX_R_INVERSE
    else:
        wide = mode == "wide"
    s1 = np.empty(flat.size // 2, dtype=_U64)
    s2 = np.empty(flat.size // 2, dtype=_U64)
    if wide:
        return _inverse_wide(plan, flat, s1, s2)
    return _inverse_narrow(plan, flat, s1, s2)


def _forward_wide(plan, flat, s1, s2, lazy=False):
    n = plan.n
    rows = flat.shape[0]
    bmax = plan.bmax
    for i in range(plan.level):
        x = np.ascontiguousarray(flat[:, i, :])
        q, mu = plan.qs[i], plan.mus[i]
        two_q = q * _U64(2)
        bound = 1
        for t, m, we, pe in plan.std_f:
            if bound + 2 > bmax:
                _approx_reduce(x, mu, q)
                bound = 2
            blocks = x.reshape(rows, m, 2 * t)
            cnt = rows * m * t
            _fwd_stage(
                blocks[..., :t],
                blocks[..., t:],
                s1[:cnt].reshape(rows, m, t),
                s2[:cnt].reshape(rows, m, t),
                we[i],
                pe[i],
                q,
                two_q,
            )
            bound += 2
        if plan.tail_f:
            m1 = plan.m1
            y = np.ascontiguousarray(x.reshape(rows, m1, n // m1).transpose(0, 2, 1))
            for tcur, K, we, pe in plan.tail_f:
                if bound + 2 > bmax:
                    _approx_reduce(y, mu, q)
                    bound = 2
                blocks = y.reshape(rows, K, 2 * tcur, m1)
                cnt = rows * K * tcur * m1
                _fwd_stage(
                    blocks[:, :, :tcur],
                    blocks[:, :, tcur:],
                    s1[:cnt].reshape(rows, K, tcur, m1),
                    s2[:cnt].reshape(rows, K, tcur, m1),
                    we[i],
                    pe[i],
                    q,
                    two_q,
                )
                bound += 2
            x = np.ascontiguousarray(
                y.reshape(rows, n // m1, m1).transpose(0, 2, 1)
            ).reshape(rows, n)
        if not lazy:
            _exit_reduce(x, mu, q)
        flat[:, i, :] = x
    return flat


def _forward_narrow(plan, flat, s1, s2, lazy=False):
    n, level = plan.n, plan.level
    rows = flat.shape[0]
    tab = plan.tiled_forward(rows)
    if tab is None:
        return _forward_wide(plan, flat, s1, s2, lazy)
    R = rows * level
    x = flat.reshape(R, n)
    for t, m, we, pe, renorm in tab.std:
        if renorm:
            _approx_reduce(x, tab.mun, tab.qn)
        blocks = x.reshape(R, m, 2 * t)
        cnt = R * m * t
        _fwd_stage(
            blocks[..., :t],
            blocks[..., t:],
            s1[:cnt].reshape(R, m, t),
            s2[:cnt].reshape(R, m, t),
            we,
            pe,
            tab.qh.reshape(R, m, t),
            tab.two_qh.reshape(R, m, t),
        )
    if tab.tail:
        m1 = plan.m1
        y = np.ascontiguousarray(x.reshape(R, m1, n // m1).transpose(0, 2, 1))
        for tcur, K, we, pe, renorm in tab.tail:
            if renorm:
                _approx_reduce(y.reshape(R, n), tab.mun, tab.qn)
            blocks = y.reshape(R, K, 2 * tcur, m1)
            cnt = R * K * tcur * m1
            _fwd_stage(
                blocks[:, :, :tcur],
                blocks[:, :, tcur:],
                s1[:cnt].reshape(R, K, tcur, m1),
                s2[:cnt].reshape(R, K, tcur, m1),
                we,
                pe,
                tab.qh.reshape(R, K, tcur, m1),
                tab.two_qh.reshape(R, K, tcur, m1),
            )
        x = np.ascontiguousarray(
            y.reshape(R, n // m1, m1).transpose(0, 2, 1)
        ).reshape(R, n)
        flat = x.reshape(rows, level, n)
    if not lazy:
        _exit_reduce(x, tab.mun, tab.qn)
    return flat


def _inverse_wide(plan, flat, s1, s2):
    n = plan.n
    rows = flat.shape[0]
    bmax = plan.bmax
    for i in range(plan.level):
        q, mu = plan.qs[i], plan.mus[i]
        x = np.ascontiguousarray(flat[:, i, :])
        bound = 1
        if plan.tail_i:
            h1 = plan.h1
            y = np.ascontiguousarray(x.reshape(rows, h1, n // h1).transpose(0, 2, 1))
            for tcur, _h, K, we, se in plan.tail_i:
                if 2 * bound > bmax:
                    _approx_reduce(y, mu, q)
                    bound = 2
                blocks = y.reshape(rows, K, 2 * tcur, h1)
                cnt = rows * K * tcur * h1
                _inv_stage(
                    blocks[:, :, :tcur],
                    blocks[:, :, tcur:],
                    s1[:cnt].reshape(rows, K, tcur, h1),
                    s2[:cnt].reshape(rows, K, tcur, h1),
                    we[i],
                    se[i],
                    q,
                    q * _U64(bound),
                )
                bound *= 2
            x = np.ascontiguousarray(
                y.reshape(rows, n // h1, h1).transpose(0, 2, 1)
            ).reshape(rows, n)
        for t, h, we, se in plan.std_i:
            if 2 * bound > bmax:
                _approx_reduce(x, mu, q)
                bound = 2
            blocks = x.reshape(rows, h, 2 * t)
            cnt = rows * h * t
            _inv_stage(
                blocks[..., :t],
                blocks[..., t:],
                s1[:cnt].reshape(rows, h, t),
                s2[:cnt].reshape(rows, h, t),
                we[i],
                se[i],
                q,
                q * _U64(bound),
            )
            bound *= 2
        # 1/N Shoup scaling fused with the exact exit reduction.
        hi = np.multiply(x, plan.n_inv_shoup[i])
        hi >>= _SH
        hi *= q
        x *= plan.n_inv[i]
        x -= hi
        mask = x >= q
        np.subtract(x, np.multiply(mask, q, dtype=_U64), out=x)
        flat[:, i, :] = x
    return flat


def _inverse_narrow(plan, flat, s1, s2):
    n, level = plan.n, plan.level
    rows = flat.shape[0]
    tab = plan.tiled_inverse(rows)
    if tab is None:
        return _inverse_wide(plan, flat, s1, s2)
    R = rows * level
    x = flat.reshape(R, n)
    if tab.tail:
        h1 = plan.h1
        y = np.ascontiguousarray(x.reshape(R, h1, n // h1).transpose(0, 2, 1))
        for tcur, _h, K, we, se, off, renorm in tab.tail:
            if renorm:
                _approx_reduce(y.reshape(R, n), tab.mun, tab.qn)
            blocks = y.reshape(R, K, 2 * tcur, h1)
            cnt = R * K * tcur * h1
            _inv_stage(
                blocks[:, :, :tcur],
                blocks[:, :, tcur:],
                s1[:cnt].reshape(R, K, tcur, h1),
                s2[:cnt].reshape(R, K, tcur, h1),
                we,
                se,
                tab.qh.reshape(R, K, tcur, h1),
                off.reshape(R, K, tcur, h1),
            )
        x = np.ascontiguousarray(
            y.reshape(R, n // h1, h1).transpose(0, 2, 1)
        ).reshape(R, n)
        flat = x.reshape(rows, level, n)
    for t, h, we, se, off, renorm in tab.std:
        if renorm:
            _approx_reduce(x, tab.mun, tab.qn)
        blocks = x.reshape(R, h, 2 * t)
        cnt = R * h * t
        _inv_stage(
            blocks[..., :t],
            blocks[..., t:],
            s1[:cnt].reshape(R, h, t),
            s2[:cnt].reshape(R, h, t),
            we,
            se,
            tab.qn.reshape(R, 2, n // 2)[:, 0].reshape(R, h, t),
            off.reshape(R, h, t),
        )
    hi = np.multiply(x, tab.n_inv_shoup_n)
    hi >>= _SH
    hi *= tab.qn
    x *= tab.n_inv_n
    x -= hi
    mask = x >= tab.qn
    np.subtract(x, np.multiply(mask, tab.qn, dtype=_U64), out=x)
    return flat


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

    def forward_lazy(self, n, primes, values):
        """Forward NTT with a lazy exit — outputs are ``[0, 4q)``-bounded
        representatives (exact modulo ``q``), for callers that immediately
        feed them into lazy Shoup inner products.  Not part of the
        :class:`KernelBackend` contract; resolved via ``getattr``."""
        plan = self.plan(n, primes)
        flat, shape = self._residue_copy(n, plan.primes, values)
        count_transform("forward", flat.shape[0] * plan.level, self.name)
        return plan_forward(plan, flat, lazy=True).reshape(shape)

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
