"""Design space exploration (paper Sec. VI-B), priced as arrays.

Objective::

    Minimize    sum_lr LAT_lr
    subject to  sum_op DSP_op          <= DSP_max
                max_lr BRAM_lr         <= BRAM_max

The problem is non-linear (ceil divisions, the dual-port BRAM step, the
KeySwitch DSP table), so — like the paper — we search the whole space
exhaustively.  Every step of the model (Eqs. 1-9) is written once and
takes broadcastable integer arrays as well as ints, so :func:`_price`
calls each step once over the scan grid of :class:`DesignSpace`
(``nc_NTT`` times one ``(P_intra, P_inter)`` axis per varied module):
each module's DSP (Eq. 7) and, with every layer of one kind stacked along
a leading axis, the NKS and KS pipeline cycles, the buffers and the
off-chip slowdown.  Broadcasting combines them into per-point latency,
DSP and BRAM arrays.  Only the winner, or for :func:`enumerate_feasible`
each feasible point, is built as a :class:`DesignSolution`, by the same
functions on ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fpga.buffers import offchip_slowdown
from ..fpga.device import FpgaDevice
from ..hecnn.trace import NetworkTrace
from ..obs.probes import DseProgress
from ..obs.tracing import trace_span
from ..optypes import MODULE_OPS, HeOp
from .design_point import (
    DesignSolution,
    bram_budget_blocks,
    buffer_op,
    dsp_budget,
    layer_buffers,
    layer_cycles,
    module_dsp,
    pipeline_cycles,
)
from .space import DesignSpace


@dataclass(frozen=True)
class DseResult:
    """Outcome of one exploration run.

    ``evaluated`` is the full space size and ``feasible`` the points within
    the limits; ``dsp_pruned`` counts the points over the DSP limit, and
    ``improvements`` the incumbent replacements of a walk in scan order,
    one ``dse_incumbent`` flight event each.  These two telemetry fields
    are excluded from equality.
    """

    best: DesignSolution
    evaluated: int
    feasible: int
    dsp_pruned: int = field(default=0, compare=False)
    improvements: int = field(default=0, compare=False)


class InfeasibleDesignError(RuntimeError):
    """No design point satisfies the device's resource constraints."""


@dataclass(frozen=True)
class _Layers:
    """Every layer of one kind, its model fields stacked along a leading
    axis: stands in for a :class:`LayerTrace` in :func:`pipeline_cycles`
    and :func:`layer_buffers`, so one call prices them all."""

    kind: str
    level: np.ndarray
    nks_units: np.ndarray
    ks_units: np.ndarray

    @classmethod
    def of_kind(
        cls, trace: NetworkTrace, kind: str, grid_ndim: int
    ) -> "_Layers | None":
        layers = [lt for lt in trace.layers if lt.kind == kind]
        if not layers:
            return None
        columns = np.array(
            [(lt.level, lt.nks_units, lt.ks_units) for lt in layers],
            dtype=np.int64,
        ).T.reshape((3, -1) + (1,) * grid_ndim)
        return cls(kind, *columns)


@dataclass(frozen=True)
class _Priced:
    """Every point of a space priced: objective and resource arrays shaped
    :meth:`DesignSpace.shape`, and the BRAM budget per ``nc_NTT``."""

    latency: np.ndarray
    dsp: np.ndarray
    bram_peak: np.ndarray
    mandatory_peak: np.ndarray
    bram_budget: np.ndarray


def _price(
    trace: NetworkTrace,
    device: FpgaDevice,
    space: DesignSpace,
    bram_limit: int | None,
) -> _Priced:
    """Price every point of ``space`` at once: each model step is one call
    over the whole grid, per layer kind."""
    n, word_bits = trace.poly_degree, trace.prime_bits
    nc = space.nc_ntt_grid()
    par = {op: space.parallelism_grid(op) for op in MODULE_OPS}
    budget = np.array(
        [
            bram_budget_blocks(device, n, choice, bram_limit)
            for choice in space.nc_ntt_choices
        ],
        dtype=np.int64,
    ).reshape(nc.shape)
    dsp = sum(module_dsp(op, nc, par[op]) for op in MODULE_OPS)
    latency = bram_peak = mandatory_peak = 0
    for kind in ("NKS", "KS"):
        layers = _Layers.of_kind(trace, kind, nc.ndim)
        if layers is None:
            continue
        nks, ks = (
            pipeline_cycles(layers, op, par[op], nc, n)
            for op in (HeOp.RESCALE, HeOp.KEY_SWITCH)
        )
        mandatory, blocks, on_chip = layer_buffers(
            layers, par[buffer_op(layers)], nc, n, word_bits, budget
        )
        cycles, blocks, mandatory = np.broadcast_arrays(
            layer_cycles(nks, ks, offchip_slowdown(on_chip, kind)),
            blocks,
            mandatory,
        )
        # Reduce over the stacked layers: latency adds up, BRAM is reused.
        latency = latency + cycles.sum(axis=0)
        bram_peak = np.maximum(bram_peak, blocks.max(axis=0))
        mandatory_peak = np.maximum(mandatory_peak, mandatory.max(axis=0))
    grid = space.shape()
    return _Priced(
        *(
            np.broadcast_to(values, grid)
            for values in (latency, dsp, bram_peak, mandatory_peak)
        ),
        bram_budget=budget,
    )


def _scan(
    priced: _Priced, device: FpgaDevice, dsp_limit: int | None
) -> tuple[DseProgress, list[int], list[tuple]]:
    """The scan statistics (improvements not yet walked), the feasible
    points' scan indices in scan order, and the incumbent candidates.

    A candidate is a feasible point whose latency is at most every earlier
    feasible point's, the only kind that can improve on the incumbent:
    ``(rank among the feasible, scan index, (latency, DSP, BRAM peak))``.
    """
    over_dsp = priced.dsp > dsp_budget(device, dsp_limit)
    index = np.flatnonzero(
        ~over_dsp & (priced.mandatory_peak <= priced.bram_budget)
    )
    latency = priced.latency.ravel()[index]
    rank = np.flatnonzero(latency <= np.minimum.accumulate(latency))
    keys = zip(*(
        values.ravel()[index[rank]].tolist()
        for values in (priced.latency, priced.dsp, priced.bram_peak)
    ))
    stats = DseProgress(
        scanned=over_dsp.size,
        dsp_pruned=int(over_dsp.sum()),
        feasible=len(index),
    )
    candidates = zip(rank.tolist(), index[rank].tolist(), keys)
    return stats, index.tolist(), list(candidates)


def explore(
    trace: NetworkTrace,
    device: FpgaDevice,
    space: DesignSpace | None = None,
    dsp_limit: int | None = None,
    bram_limit: int | None = None,
) -> DseResult:
    """Search the design space for the latency-optimal point.

    ``dsp_limit`` / ``bram_limit`` override the device capacities — used by
    the Pareto sweep of Fig. 9, which constrains the BRAM budget directly.
    The winner is the first feasible point in scan order with the smallest
    ``(latency, DSP, BRAM peak)``; ``evaluated`` always equals the space
    size.

    Each incumbent improvement lands as a ``dse_incumbent`` flight event.
    Scan statistics land in the returned :class:`DseResult` and — when
    observability is enabled — in the ``dse_points_*`` registry counters.
    """
    space = space or DesignSpace()
    with trace_span(
        "dse.explore", category="dse", network=trace.name, device=device.name
    ) as span:
        stats, _, candidates = _scan(
            _price(trace, device, space, bram_limit), device, dsp_limit
        )
        best = None
        for rank, i, key in candidates:
            if best is None or key < best[1]:
                best = (i, key)
                stats.note_incumbent(key[0], scanned=i + 1, feasible=rank + 1)
        stats.publish()
        span.set(**stats.as_dict())
    if best is None:
        raise InfeasibleDesignError(
            f"no feasible design for {trace.name} on {device.name} "
            f"(DSP<= {dsp_budget(device, dsp_limit)}, "
            f"BRAM<= {bram_limit if bram_limit is not None else 'device'})"
        )
    return DseResult(
        best=DesignSolution.evaluate(
            space.point(best[0]), trace, device, bram_limit=bram_limit
        ),
        evaluated=stats.scanned,
        feasible=stats.feasible,
        dsp_pruned=stats.dsp_pruned,
        improvements=stats.improvements,
    )


def enumerate_feasible(
    trace: NetworkTrace,
    device: FpgaDevice,
    space: DesignSpace | None = None,
    dsp_limit: int | None = None,
    bram_limit: int | None = None,
) -> list[DesignSolution]:
    """All feasible solutions, in scan order — the scatter behind Fig. 9.

    Scan statistics are published to the ``dse_points_*`` registry
    counters, exactly as :func:`explore` does.
    """
    space = space or DesignSpace()
    stats, index, _ = _scan(
        _price(trace, device, space, bram_limit), device, dsp_limit
    )
    stats.publish()
    return [
        DesignSolution.evaluate(
            space.point(i), trace, device, bram_limit=bram_limit
        )
        for i in index
    ]


def _better(a: DesignSolution, b: DesignSolution) -> bool:
    """Latency-first comparison; resources break ties deterministically.

    The objective key that :func:`explore` compares, on solutions.
    """
    key_a = (a.latency_cycles, a.dsp_usage, a.bram_peak)
    key_b = (b.latency_cycles, b.dsp_usage, b.bram_peak)
    return key_a < key_b
