"""Design space exploration (paper Sec. VI-B), priced as arrays.

Objective::

    Minimize    sum_lr LAT_lr
    subject to  sum_op DSP_op          <= DSP_max
                max_lr BRAM_lr         <= BRAM_max

The problem is non-linear (ceil divisions, the dual-port BRAM step, the
KeySwitch DSP table), so — like the paper — we search the whole space
exhaustively.  Every term of the scalar model depends on ``nc_NTT`` and the
parallelism of one module only: a layer's NKS cycles on the Rescale
pipeline, its KS cycles on the KeySwitch pipeline, its buffers and off-chip
slowdown on the pipeline that sizes them, and each module's DSP (Eq. 7).
So the scalar functions run once per distinct ``(nc_NTT, p_intra,
p_inter)`` of that module (at most 84 on the default space), and numpy
broadcasting combines these small tables into per-point latency, DSP and
BRAM arrays over the scan grid of :class:`DesignSpace`.  Only the winner,
or for :func:`enumerate_feasible` each feasible point, is built as a
:class:`DesignSolution`, by the same scalar model.
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
    OpParallelism,
    bram_budget_blocks,
    buffer_op,
    dsp_budget,
    layer_buffers,
    layer_cycles,
    module_dsp,
    pipeline_cycles,
)
from .space import VARIED_OPS, DesignSpace

#: One buffer-table entry: mandatory blocks, occupied blocks, slowdown.
_BUFFERS = np.dtype(
    [("mandatory", np.int64), ("blocks", np.int64), ("slowdown", np.float64)]
)


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


def _price(
    trace: NetworkTrace,
    device: FpgaDevice,
    space: DesignSpace,
    dsp_limit: int | None,
    bram_limit: int | None,
) -> tuple[DseProgress, list[int], list[tuple]]:
    """Price every point of ``space`` at once.

    Returns the scan statistics (improvements not yet walked) and, for the
    feasible points in scan order, their scan indices and objective keys
    ``(latency, DSP, BRAM peak)``.
    """
    n, word_bits = trace.poly_degree, trace.prime_bits
    budgets = {
        nc: bram_budget_blocks(device, n, nc, bram_limit)
        for nc in space.nc_ntt_choices
    }

    def table(op: HeOp, fn, dtype=np.int64) -> np.ndarray:
        """``fn(nc_ntt, parallelism)`` once per setting of ``op``'s module,
        shaped to broadcast over the scan grid."""
        shape = [len(space.nc_ntt_choices)] + [1] * len(VARIED_OPS)
        choices: tuple[OpParallelism, ...] = (OpParallelism(),)
        if op in VARIED_OPS:
            choices = space.parallelisms
            shape[1 + VARIED_OPS.index(op)] = len(choices)
        rows = [fn(nc, par) for nc in space.nc_ntt_choices for par in choices]
        return np.array(rows, dtype=dtype).reshape(shape)

    dsp = sum(
        table(op, lambda nc, par: module_dsp(op, nc, par)) for op in MODULE_OPS
    )
    latency = bram_peak = mandatory_peak = 0
    for lt in trace.layers:

        def buffers(nc: int, par: OpParallelism) -> tuple[int, int, float]:
            mandatory, blocks, on_chip = layer_buffers(
                lt, par, nc, n, word_bits, budgets[nc]
            )
            return mandatory, blocks, offchip_slowdown(on_chip, lt.kind)

        nks, ks = (
            table(op, lambda nc, par: pipeline_cycles(lt, op, par, nc, n))
            for op in (HeOp.RESCALE, HeOp.KEY_SWITCH)
        )
        buffer = table(buffer_op(lt), buffers, dtype=_BUFFERS)
        latency = latency + layer_cycles(nks, ks, buffer["slowdown"])
        bram_peak = np.maximum(bram_peak, buffer["blocks"])
        mandatory_peak = np.maximum(mandatory_peak, buffer["mandatory"])

    grid = space.shape()
    over_dsp = np.broadcast_to(dsp > dsp_budget(device, dsp_limit), grid)
    budget = np.array(
        [budgets[nc] for nc in space.nc_ntt_choices], dtype=np.int64
    ).reshape((-1,) + (1,) * len(VARIED_OPS))
    index = np.flatnonzero(~over_dsp & (mandatory_peak <= budget))
    keys = zip(*(
        np.broadcast_to(values, grid).ravel()[index].tolist()
        for values in (latency, dsp, bram_peak)
    ))
    stats = DseProgress(
        scanned=space.size(),
        dsp_pruned=int(over_dsp.sum()),
        feasible=len(index),
    )
    return stats, index.tolist(), list(keys)


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
        stats, index, keys = _price(trace, device, space, dsp_limit, bram_limit)
        best = None
        for rank, (i, key) in enumerate(zip(index, keys)):
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
    stats, index, _ = _price(trace, device, space, dsp_limit, bram_limit)
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
