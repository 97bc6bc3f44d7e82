"""Network-level accelerator simulation and analytic-model validation.

Runs every layer of a network trace through the discrete pipeline
simulator under a chosen design point, applies the same off-chip spill
penalties as the analytic path, and reports per-layer and end-to-end
cycles side by side with the analytic model (Eqs. 1-3).  The two must
agree within pipeline fill/drain effects — checked by the test suite and
reported by the model-validation ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.design_point import (
    DesignPoint,
    DesignSolution,
    buffer_op,
    layer_buffers,
    layer_cycles,
)
from ..fpga.buffers import offchip_slowdown
from ..fpga.device import FpgaDevice
from ..fpga.modules import lat_ntt_cycles
from ..hecnn.trace import LayerTrace, NetworkTrace
from ..obs import probes
from ..obs.tracing import trace_span
from ..optypes import HeOp
from .pipeline import simulate_ks_layer, simulate_nks_layer


@dataclass(frozen=True)
class SimulatedLayer:
    """One layer's simulated vs analytic cycle counts."""

    name: str
    kind: str
    simulated_cycles: int
    analytic_cycles: int

    @property
    def relative_error(self) -> float:
        """(simulated - analytic) / analytic."""
        if self.analytic_cycles == 0:
            return 0.0
        return (self.simulated_cycles - self.analytic_cycles) / self.analytic_cycles


@dataclass(frozen=True)
class SimulationReport:
    """End-to-end simulation outcome for one design solution."""

    network: str
    device: str
    layers: tuple[SimulatedLayer, ...]

    @property
    def simulated_cycles(self) -> int:
        return sum(layer.simulated_cycles for layer in self.layers)

    @property
    def analytic_cycles(self) -> int:
        return sum(layer.analytic_cycles for layer in self.layers)

    @property
    def relative_error(self) -> float:
        if self.analytic_cycles == 0:
            return 0.0
        return (self.simulated_cycles - self.analytic_cycles) / self.analytic_cycles


class AcceleratorSimulator:
    """Discrete simulation of a network on a configured accelerator."""

    def __init__(self, device: FpgaDevice) -> None:
        self.device = device

    def simulate_layer(
        self,
        trace: LayerTrace,
        point: DesignPoint,
        poly_degree: int,
        word_bits: int,
        bram_budget: int | None = None,
    ) -> int:
        """Simulated cycles for one layer, including spill penalties.

        Only the pipeline timing is simulated; the on-chip fraction, its
        slowdown and the rounding are the analytic model's own.
        """
        lat_b = lat_ntt_cycles(poly_degree, point.nc_ntt)
        rescale = point.parallelism(HeOp.RESCALE)
        ks = point.parallelism(HeOp.KEY_SWITCH)
        nks_cycles = simulate_nks_layer(
            num_units=trace.nks_units,
            level=trace.level,
            lat_basic=lat_b,
            p_intra=rescale.p_intra,
            p_inter=rescale.p_inter,
            fine_grained=True,
        )
        ks_cycles = simulate_ks_layer(
            num_ks_ops=trace.ks_units,
            level=trace.level,
            lat_basic=lat_b,
            p_intra=ks.p_intra,
            p_inter=ks.p_inter,
        )
        _, _, on_chip = layer_buffers(
            trace, point.parallelism(buffer_op(trace)), point.nc_ntt,
            poly_degree, word_bits, bram_budget,
        )
        slowdown = offchip_slowdown(on_chip, trace.kind)
        return int(layer_cycles(nks_cycles, ks_cycles, slowdown))

    def simulate(
        self, trace: NetworkTrace, solution: DesignSolution
    ) -> SimulationReport:
        """Simulate every layer of ``trace`` under ``solution``'s point."""
        layers = []
        budget = solution.bram_budget
        with trace_span(
            "simulate", category="sim", network=trace.name,
            device=self.device.name,
        ):
            for lt, analytic in zip(trace.layers, solution.layers):
                with trace_span(
                    lt.name, category="sim_layer", kind=lt.kind
                ) as span:
                    cycles = self.simulate_layer(
                        lt, solution.point, trace.poly_degree,
                        trace.prime_bits, bram_budget=budget,
                    )
                    span.set(
                        simulated_cycles=cycles,
                        analytic_cycles=analytic.latency_cycles,
                    )
                probes.record_sim_layer(
                    lt.name, cycles, analytic.latency_cycles
                )
                layers.append(
                    SimulatedLayer(
                        name=lt.name,
                        kind=lt.kind,
                        simulated_cycles=cycles,
                        analytic_cycles=analytic.latency_cycles,
                    )
                )
        return SimulationReport(
            network=trace.name, device=self.device.name, layers=tuple(layers)
        )
