"""Design points and evaluated design solutions.

A :class:`DesignPoint` is one candidate accelerator configuration — the
paper's decision variables (Sec. VI-B): the NTT core count ``nc_NTT`` plus
intra-/inter-parallelism for each HE operation module type (the quantities
Fig. 10 reports per network/device).  Module instances are *shared across
layers* (Sec. V-C module reuse): the DSP cost of an op type is paid once,
at the largest parallelism any layer needs, and layers with lower levels
reuse the same instances with idle copies.

A :class:`DesignSolution` is a design point evaluated against a network
trace and a device: per-layer latency and buffer demand, aggregate resource
usage, and feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fpga.arrays import Floats, Ints, maximum, minimum, require
from ..fpga.buffers import buffer_tile_words, layer_buffer_demand, offchip_slowdown
from ..fpga.device import FpgaDevice
from ..fpga.modules import dsp_const, layer_latency_cycles
from ..hecnn.trace import LayerTrace, NetworkTrace
from ..optypes import MODULE_OPS, HeOp


@dataclass(frozen=True)
class OpParallelism:
    """Intra-/inter-parallelism of one HE operation module type (Eq. 7).

    Ints for one setting, or integer arrays for a grid of settings
    (:meth:`DesignSpace.parallelism_grid`), which every model function
    below evaluates elementwise.
    """

    p_intra: Ints = 1
    p_inter: Ints = 1

    def __post_init__(self) -> None:
        require(self.p_intra >= 1, "parallelism must be >= 1")
        require(self.p_inter >= 1, "parallelism must be >= 1")


_SERIAL = OpParallelism()


def module_dsp(op: HeOp, nc_ntt: Ints, par: OpParallelism) -> Ints:
    """Eq. 7: DSP of one module's shared instance pool,
    ``P_intra * P_inter * Const_op^DSP``."""
    return par.p_intra * par.p_inter * dsp_const(op, nc_ntt)


@dataclass(frozen=True)
class DesignPoint:
    """One candidate configuration of the parameterized HE modules."""

    nc_ntt: int = 2
    ops: dict[HeOp, OpParallelism] = field(default_factory=dict)

    def parallelism(self, op: HeOp) -> OpParallelism:
        return self.ops.get(op, _SERIAL)

    def dsp_usage(self) -> int:
        """Total DSP with module reuse: one shared instance pool per op."""
        return sum(
            module_dsp(op, self.nc_ntt, self.parallelism(op))
            for op in MODULE_OPS
        )

    def describe(self) -> dict[str, tuple[int, int]]:
        """Per-op (intra, inter) map — the content of paper Fig. 10."""
        return {
            op.value: (self.parallelism(op).p_intra, self.parallelism(op).p_inter)
            for op in MODULE_OPS
        }


@dataclass(frozen=True)
class LayerEvaluation:
    """One layer's modeled latency and buffer usage under a design point.

    ``bram_mandatory`` is the module-working-buffer demand that *must* fit
    on chip; ``bram_blocks`` is the total the layer actually occupies
    (mandatory plus whatever ciphertext/key residency fits its budget);
    ``on_chip_fraction`` drives the Table III off-chip slowdown already
    folded into ``latency_cycles``.
    """

    name: str
    kind: str
    level: int
    latency_cycles: int
    bram_blocks: int
    bram_mandatory: int
    on_chip_fraction: float

    def latency_seconds(self, clock_hz: float) -> float:
        return self.latency_cycles / clock_hz


def pipeline_cycles(
    trace: LayerTrace,
    op: HeOp,
    par: OpParallelism,
    nc_ntt: Ints,
    poly_degree: int,
) -> Ints:
    """One layer's pre-slowdown cycles on one module's pipeline (Eqs. 1-3).

    The layer's elementwise chains run on the Rescale-anchored NKS pipeline
    (``op`` is ``RESCALE``); its KeySwitch units occupy ``L`` intervals each
    on the KeySwitch pipeline (Fig. 3).  The interval follows Eq. 3 with the
    module's intra-parallelism, and throughput scales with its
    inter-parallelism.  The trace's level and unit counts may be integer
    arrays too: the DSE stacks every layer of one kind along an axis.
    """
    if op == HeOp.KEY_SWITCH:
        nks_units, ks_units = 0, trace.ks_units
    else:
        nks_units, ks_units = trace.nks_units, 0
    return layer_latency_cycles(
        nks_units, ks_units, trace.level, poly_degree,
        par.p_intra, par.p_inter, nc_ntt,
    )


def buffer_op(trace: LayerTrace) -> HeOp:
    """The module whose pipeline sizes the layer's working buffers."""
    return HeOp.KEY_SWITCH if trace.kind == "KS" else HeOp.RESCALE


def layer_buffers(
    trace: LayerTrace,
    par: OpParallelism,
    nc_ntt: Ints,
    poly_degree: int,
    word_bits: int,
    bram_budget: Ints | None,
) -> tuple[Ints, Ints, Floats]:
    """``(mandatory, occupied, on-chip fraction)`` of one layer's buffers
    when its :func:`buffer_op` pipeline runs at ``par`` (Eqs. 8-9).

    Ciphertext and key residency that does not fit beside the mandatory
    blocks within ``bram_budget`` (``None``: unbounded) spills off chip;
    an empty cache is wholly on chip.  Like :func:`pipeline_cycles`, this
    takes stacked layers and arrays of settings and budgets.
    """
    mandatory, cacheable = layer_buffer_demand(
        kind=trace.kind,
        level=trace.level,
        poly_degree=poly_degree,
        word_bits=word_bits,
        p_intra=par.p_intra,
        p_inter=par.p_inter,
        nc_ntt=nc_ntt,
    )
    if bram_budget is None:
        resident = cacheable
    else:
        resident = maximum(0, minimum(cacheable, bram_budget - mandatory))
    empty = cacheable == 0
    on_chip = (resident + empty) / (cacheable + empty)
    return mandatory, mandatory + resident, on_chip


def layer_cycles(nks_cycles, ks_cycles, slowdown):
    """A layer's latency: its NKS and KS pipeline cycles back to back,
    stretched by the off-chip slowdown (Table III) and rounded up.

    Takes scalars or broadcastable arrays; both give the same integers
    while the products stay below 2**53.
    """
    return np.ceil((nks_cycles + ks_cycles) * slowdown).astype(np.int64)


def evaluate_layer(
    trace: LayerTrace,
    point: DesignPoint,
    poly_degree: int,
    word_bits: int,
    bram_budget: int | None = None,
) -> LayerEvaluation:
    """Model one layer under a design point (Eqs. 1-3, 8-9, Table III).

    See :func:`pipeline_cycles` for the two pipelines.  ``bram_budget`` is
    the on-chip memory the layer may claim (under FxHENN's inter-layer
    reuse, the whole device pool); any residency that does not fit incurs
    the off-chip access penalty.
    """
    nks, ks = (
        pipeline_cycles(
            trace, op, point.parallelism(op), point.nc_ntt, poly_degree
        )
        for op in (HeOp.RESCALE, HeOp.KEY_SWITCH)
    )
    mandatory, blocks, on_chip = layer_buffers(
        trace, point.parallelism(buffer_op(trace)), point.nc_ntt,
        poly_degree, word_bits, bram_budget,
    )
    slowdown = offchip_slowdown(on_chip, trace.kind)
    return LayerEvaluation(
        name=trace.name,
        kind=trace.kind,
        level=trace.level,
        latency_cycles=int(layer_cycles(nks, ks, slowdown)),
        bram_blocks=blocks,
        bram_mandatory=mandatory,
        on_chip_fraction=on_chip,
    )


def bram_budget_blocks(
    device: FpgaDevice,
    poly_degree: int,
    nc_ntt: int,
    bram_limit: int | None = None,
) -> int:
    """On-chip blocks a design may claim: ``bram_limit`` when given, else
    the device's BRAM plus its URAM converted at the ``nc_NTT`` buffer
    tile width (Sec. VI-A)."""
    if bram_limit is not None:
        return bram_limit
    return device.effective_bram_blocks(
        buffer_tile_words(poly_degree, nc_ntt)
    )


def dsp_budget(device: FpgaDevice, dsp_limit: int | None = None) -> int:
    """DSP slices a design may use: ``dsp_limit`` when given, else the
    device's."""
    return device.dsp_slices if dsp_limit is None else dsp_limit


@dataclass(frozen=True)
class DesignSolution:
    """A design point evaluated against a network trace on a device."""

    point: DesignPoint
    network: str
    device: FpgaDevice
    layers: tuple[LayerEvaluation, ...]
    poly_degree: int
    word_bits: int
    #: The ``bram_limit`` :meth:`evaluate` priced the layers at (``None``:
    #: the device's budget); :attr:`bram_budget` derives from it.
    bram_limit: int | None = None

    @classmethod
    def evaluate(
        cls,
        point: DesignPoint,
        trace: NetworkTrace,
        device: FpgaDevice,
        bram_limit: int | None = None,
    ) -> "DesignSolution":
        budget = bram_budget_blocks(
            device, trace.poly_degree, point.nc_ntt, bram_limit
        )
        layers = tuple(
            evaluate_layer(
                lt, point, trace.poly_degree, trace.prime_bits,
                bram_budget=budget,
            )
            for lt in trace.layers
        )
        return cls(
            point=point,
            network=trace.name,
            device=device,
            layers=layers,
            poly_degree=trace.poly_degree,
            word_bits=trace.prime_bits,
            bram_limit=bram_limit,
        )

    # -- aggregate metrics -------------------------------------------------------

    @property
    def latency_cycles(self) -> int:
        return sum(layer.latency_cycles for layer in self.layers)

    @property
    def latency_seconds(self) -> float:
        return self.latency_cycles / self.device.clock_hz

    @property
    def dsp_usage(self) -> int:
        return self.point.dsp_usage()

    @property
    def bram_peak(self) -> int:
        """On-chip buffer usage with inter-layer reuse: the max layer."""
        return max(layer.bram_blocks for layer in self.layers)

    @property
    def bram_mandatory_peak(self) -> int:
        """Largest per-layer *mandatory* buffer demand — the feasibility
        floor below which the design cannot be built at all."""
        return max(layer.bram_mandatory for layer in self.layers)

    @property
    def bram_aggregate(self) -> int:
        """Sum of per-layer demands — what the device would need *without*
        inter-layer reuse (the Table IX "aggregate" row)."""
        return sum(layer.bram_blocks for layer in self.layers)

    @property
    def bram_budget(self) -> int:
        """The on-chip blocks the layers were priced at."""
        return bram_budget_blocks(
            self.device, self.poly_degree, self.point.nc_ntt, self.bram_limit
        )

    def is_feasible(
        self, dsp_limit: int | None = None, bram_limit: int | None = None
    ) -> bool:
        """DSP fits, and every layer's mandatory buffers fit the budget.

        Ciphertext residency beyond the budget spills to DRAM (with the
        Table III penalty already folded into the latency) rather than
        making the design infeasible.
        """
        bram_limit = bram_limit if bram_limit is not None else self.bram_budget
        return (
            self.dsp_usage <= dsp_budget(self.device, dsp_limit)
            and self.bram_mandatory_peak <= bram_limit
        )

    def layer(self, name: str) -> LayerEvaluation:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")
