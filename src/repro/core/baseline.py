"""The "baseline" accelerator of paper Sec. VII-C.

The baseline deliberately omits FxHENN's two reuse schemes:

* **no module reuse** — every layer owns private module instances (Fig. 8:
  "the baseline approach deploys four separated KeySwitch modules (with
  lower intra-operation parallelism and higher latency), each invoked by a
  different layer");
* **no buffer reuse** — the BRAM budget is *partitioned* among layers, so
  the sum of per-layer slices must fit the device (hence Table IX's equal
  peak and aggregate utilization).

Allocation is the paper's "intuitive" heuristic: starting from minimal
parallelism everywhere, repeatedly grant the currently slowest (most
heavily burdened) layer one more unit of parallelism, as long as the
private-resource sums still fit the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fpga.buffers import layer_buffer_demand
from ..fpga.device import FpgaDevice
from ..hecnn.trace import LayerTrace, NetworkTrace
from .design_point import (
    DesignPoint,
    LayerEvaluation,
    OpParallelism,
    buffer_op,
    evaluate_layer,
    module_dsp,
)


def layer_private_dsp(trace: LayerTrace, point: DesignPoint) -> int:
    """DSP of the module instances one layer drives: its private instances
    here (no sharing), the shared pools' share of it under reuse."""
    return sum(
        module_dsp(op, point.nc_ntt, point.parallelism(op))
        for op in trace.ops_used()
    )


@dataclass(frozen=True)
class BaselineSolution:
    """Per-layer private design points plus their evaluations."""

    network: str
    device: FpgaDevice
    points: tuple[DesignPoint, ...]
    layers: tuple[LayerEvaluation, ...]
    layer_dsp: tuple[int, ...]

    @property
    def latency_cycles(self) -> int:
        return sum(layer.latency_cycles for layer in self.layers)

    @property
    def latency_seconds(self) -> float:
        return self.latency_cycles / self.device.clock_hz

    @property
    def dsp_usage(self) -> int:
        """Total == aggregate: private instances are never shared."""
        return sum(self.layer_dsp)

    @property
    def bram_total(self) -> int:
        """Total == aggregate: private slices are never shared."""
        return sum(layer.bram_blocks for layer in self.layers)

    def layer(self, name: str) -> LayerEvaluation:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")

    def point_for(self, name: str) -> DesignPoint:
        for layer, point in zip(self.layers, self.points):
            if layer.name == name:
                return point
        raise KeyError(f"no layer named {name!r}")


def allocate_baseline(
    trace: NetworkTrace,
    device: FpgaDevice,
    nc_ntt: int = 2,
    max_steps: int = 200,
) -> BaselineSolution:
    """Greedy heaviest-layer-first allocation without any reuse."""
    points = [DesignPoint(nc_ntt=nc_ntt) for _ in trace.layers]

    def budgets() -> list[int]:
        """Private BRAM slices: mandatory buffers first, then the remainder
        split proportionally to residency demand — "more resources are
        assigned to the heavily burdened CNN layers", but never shared."""
        demands = []
        for lt, pt in zip(trace.layers, points):
            par = pt.parallelism(buffer_op(lt))
            demands.append(
                layer_buffer_demand(
                    lt.kind, lt.level, trace.poly_degree, trace.prime_bits,
                    par.p_intra, par.p_inter, pt.nc_ntt,
                )
            )
        total_mandatory = sum(m for m, _ in demands)
        total_cacheable = sum(c for _, c in demands) or 1
        spare = max(0, device.bram_blocks - total_mandatory)
        return [
            m + int(spare * c / total_cacheable) for m, c in demands
        ]

    def build() -> BaselineSolution:
        evals = tuple(
            evaluate_layer(
                lt, pt, trace.poly_degree, trace.prime_bits, bram_budget=budget
            )
            for lt, pt, budget in zip(trace.layers, points, budgets())
        )
        dsp = tuple(
            layer_private_dsp(lt, pt) for lt, pt in zip(trace.layers, points)
        )
        return BaselineSolution(
            network=trace.name,
            device=device,
            points=tuple(points),
            layers=evals,
            layer_dsp=dsp,
        )

    current = build()
    for _ in range(max_steps):
        # Rank layers by latency, heaviest first; try to upgrade each.
        order = sorted(
            range(len(trace.layers)),
            key=lambda i: current.layers[i].latency_cycles,
            reverse=True,
        )
        upgraded = False
        for idx in order:
            candidate = _upgrade(points[idx], trace.layers[idx])
            if candidate is None:
                continue
            old_point = points[idx]
            points[idx] = candidate
            trial = build()
            if (
                trial.dsp_usage <= device.dsp_slices
                and trial.bram_total <= device.bram_blocks
                and trial.latency_cycles < current.latency_cycles
            ):
                current = trial
                upgraded = True
                break
            points[idx] = old_point
        if not upgraded:
            break
    return current


def _upgrade(point: DesignPoint, trace: LayerTrace) -> DesignPoint | None:
    """One more unit of parallelism on the layer's dominant pipeline."""
    op = buffer_op(trace)
    par = point.parallelism(op)
    if par.p_intra < trace.level:
        new = OpParallelism(par.p_intra + 1, par.p_inter)
    elif par.p_inter < 4:
        new = OpParallelism(par.p_intra, par.p_inter + 1)
    else:
        return None
    ops = dict(point.ops)
    ops[op] = new
    return DesignPoint(nc_ntt=point.nc_ntt, ops=ops)
