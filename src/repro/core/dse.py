"""Design space exploration (paper Sec. VI-B) with exact pruning.

Objective::

    Minimize    sum_lr LAT_lr
    subject to  sum_op DSP_op          <= DSP_max
                max_lr BRAM_lr         <= BRAM_max

The problem is non-linear (ceil divisions, the dual-port BRAM step, the
KeySwitch DSP table), so — like the paper — we search the whole space
exhaustively.  Two *exact* accelerations keep the result identical to the
naive scan:

* **DSP pre-check**: ``point.dsp_usage()`` depends only on the point, so a
  point over the DSP limit is infeasible regardless of the trace and is
  skipped before any per-layer evaluation (on the default space most
  points fall here).
* **Latency lower bound**: the pre-slowdown compute cycles
  (:func:`~repro.core.design_point.latency_lower_bound`) never exceed the
  final latency because ``offchip_slowdown >= 1``.  Once an incumbent is
  known, a point whose bound is *strictly* worse cannot win (ties are
  still evaluated fully so resource tie-breaks match the naive scan); its
  feasibility is then established with the cheap mandatory-buffer check
  so ``DseResult.feasible`` stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fpga.device import FpgaDevice
from ..hecnn.trace import NetworkTrace
from ..obs.probes import DseProgress
from ..obs.tracing import trace_span
from .design_point import (
    DesignPoint,
    DesignSolution,
    latency_lower_bound,
    mandatory_bram_peak,
)
from .space import DesignSpace


@dataclass(frozen=True)
class DseResult:
    """Outcome of one exploration run.

    ``evaluated`` is always the full space size; ``dsp_pruned`` /
    ``bound_pruned`` count how many of those points were dispatched by the
    exact DSP pre-check and the latency lower bound respectively (both
    zero with ``prune=False``), and ``improvements`` counts incumbent
    replacements during the scan — together the observability record of
    how effective the pruning was.  These telemetry fields are excluded
    from equality: pruned and naive scans of the same space return equal
    results even though their prune counts differ.
    """

    best: DesignSolution
    evaluated: int
    feasible: int
    dsp_pruned: int = field(default=0, compare=False)
    bound_pruned: int = field(default=0, compare=False)
    improvements: int = field(default=0, compare=False)


class InfeasibleDesignError(RuntimeError):
    """No design point satisfies the device's resource constraints."""


def _bram_budget(
    point: DesignPoint,
    trace: NetworkTrace,
    device: FpgaDevice,
    bram_limit: int | None,
) -> int:
    if bram_limit is not None:
        return bram_limit
    from ..fpga.buffers import buffer_tile_words

    return device.effective_bram_blocks(
        buffer_tile_words(trace.poly_degree, point.nc_ntt)
    )


def _scan(
    points,
    trace: NetworkTrace,
    device: FpgaDevice,
    dsp_limit: int | None,
    bram_limit: int | None,
    prune: bool,
) -> tuple[DesignSolution | None, DseProgress]:
    """Scan an iterable of points; returns (best, scan statistics).

    Exact under pruning: the returned best and the feasible count match
    the unpruned scan over the same points.
    """
    effective_dsp = dsp_limit if dsp_limit is not None else device.dsp_slices
    best: DesignSolution | None = None
    stats = DseProgress()
    for point in points:
        stats.note_scanned()
        if prune and point.dsp_usage() > effective_dsp:
            # Infeasible for any trace; never counted feasible.
            stats.note_dsp_pruned()
            continue
        if prune and best is not None:
            if latency_lower_bound(point, trace) > best.latency_cycles:
                # Strictly worse than the incumbent — cannot win, but must
                # still be counted if feasible.
                stats.note_bound_pruned()
                budget = _bram_budget(point, trace, device, bram_limit)
                if mandatory_bram_peak(point, trace) <= budget:
                    stats.note_feasible()
                continue
        solution = DesignSolution.evaluate(
            point, trace, device, bram_limit=bram_limit
        )
        if not solution.is_feasible(dsp_limit=dsp_limit, bram_limit=bram_limit):
            continue
        stats.note_feasible()
        if best is None or _better(solution, best):
            best = solution
            stats.note_incumbent(best.latency_cycles)
    return best, stats


def explore(
    trace: NetworkTrace,
    device: FpgaDevice,
    space: DesignSpace | None = None,
    dsp_limit: int | None = None,
    bram_limit: int | None = None,
    prune: bool = True,
) -> DseResult:
    """Search the design space for the latency-optimal point.

    ``dsp_limit`` / ``bram_limit`` override the device capacities — used by
    the Pareto sweep of Fig. 9, which constrains the BRAM budget directly.
    ``prune=False`` forces the naive exhaustive scan (the correctness
    oracle); both variants return the identical best solution, and
    ``evaluated`` always equals the space size.

    Each incumbent improvement lands as a ``dse_incumbent`` flight event.
    Scan statistics land in the returned :class:`DseResult` and — when
    observability is enabled — in the ``dse_points_*`` registry counters.
    """
    space = space or DesignSpace()
    with trace_span(
        "dse.explore", category="dse", network=trace.name, device=device.name
    ) as span:
        best, stats = _scan(
            space.points(), trace, device, dsp_limit, bram_limit, prune
        )
        stats.publish()
        span.set(**stats.as_dict())
    if best is None:
        raise InfeasibleDesignError(
            f"no feasible design for {trace.name} on {device.name} "
            f"(DSP<= {dsp_limit or device.dsp_slices}, "
            f"BRAM<= {bram_limit if bram_limit is not None else 'device'})"
        )
    return DseResult(
        best=best,
        evaluated=stats.scanned,
        feasible=stats.feasible,
        dsp_pruned=stats.dsp_pruned,
        bound_pruned=stats.bound_pruned,
        improvements=stats.improvements,
    )


def enumerate_feasible(
    trace: NetworkTrace,
    device: FpgaDevice,
    space: DesignSpace | None = None,
    dsp_limit: int | None = None,
    bram_limit: int | None = None,
    prune: bool = True,
) -> list[DesignSolution]:
    """All feasible solutions — the scatter behind Fig. 9.

    Only the exact DSP pre-check applies here (every feasible point must be
    returned, so there is no latency bound to prune against).  Scan
    statistics are published to the ``dse_points_*`` registry counters,
    exactly as :func:`explore` does.
    """
    space = space or DesignSpace()
    effective_dsp = dsp_limit if dsp_limit is not None else device.dsp_slices
    out = []
    stats = DseProgress()
    for point in space.points():
        stats.note_scanned()
        if prune and point.dsp_usage() > effective_dsp:
            stats.note_dsp_pruned()
            continue
        solution = DesignSolution.evaluate(
            point, trace, device, bram_limit=bram_limit
        )
        if solution.is_feasible(dsp_limit=dsp_limit, bram_limit=bram_limit):
            stats.note_feasible()
            out.append(solution)
    stats.publish()
    return out


def _better(a: DesignSolution, b: DesignSolution) -> bool:
    """Latency-first comparison; resources break ties deterministically."""
    key_a = (a.latency_cycles, a.dsp_usage, a.bram_peak)
    key_b = (b.latency_cycles, b.dsp_usage, b.bram_peak)
    return key_a < key_b
