"""Batched-inference throughput modeling (an extension beyond the paper).

The paper optimizes single-image *latency* (Sec. VII-A: LoLa was chosen
for "the lowest inference latency per image frame (instead of
throughput)").  A natural follow-up for a deployed service is batch
throughput, and it exposes a real design tension:

* **sequential mode** (the paper's): one image traverses the layers in
  order, every layer reusing the whole BRAM pool — latency-optimal, but
  the accelerator is as slow per image as the sum of layers;
* **layer-pipelined mode**: consecutive images occupy consecutive layers
  simultaneously, so steady-state throughput is set by the *slowest*
  layer — but now every layer's buffers must be resident at once, which
  forfeits exactly the inter-layer BRAM reuse FxHENN is built on.  Each
  layer only gets a slice of the pool and may spill.

:func:`batch_execution` evaluates both modes for a batch size and reports
the winner — small batches favor the paper's reuse design, large batches
can amortize the pipelined mode's spilling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fpga.device import FpgaDevice
from ..hecnn.trace import NetworkTrace
from .design_point import DesignPoint, DesignSolution, evaluate_layer


@dataclass(frozen=True)
class BatchExecution:
    """Modeled execution of a batch of images under one mode."""

    mode: str
    batch_size: int
    total_seconds: float
    per_image_seconds: float

    @property
    def throughput_per_second(self) -> float:
        return 1.0 / self.per_image_seconds


def sequential_batch(
    trace: NetworkTrace,
    point: DesignPoint,
    device: FpgaDevice,
    batch_size: int,
    bram_budget: int,
) -> BatchExecution:
    """The paper's mode: images run one after another with full reuse."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    per_image = DesignSolution.evaluate(
        point, trace, device, bram_limit=bram_budget
    ).latency_cycles
    total = per_image * batch_size / device.clock_hz
    return BatchExecution(
        mode="sequential",
        batch_size=batch_size,
        total_seconds=total,
        per_image_seconds=total / batch_size,
    )


def pipelined_batch(
    trace: NetworkTrace,
    point: DesignPoint,
    device: FpgaDevice,
    batch_size: int,
    bram_budget: int,
) -> BatchExecution:
    """Layer-pipelined mode: all layers resident, partitioned buffers.

    The BRAM pool is split across layers proportionally to their demand
    (they all run concurrently), so layers may spill; steady-state
    throughput equals the slowest layer's (possibly degraded) latency.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    # First pass: full demand per layer.
    demands = [
        evaluate_layer(
            lt, point, trace.poly_degree, trace.prime_bits, bram_budget=None
        ).bram_blocks
        for lt in trace.layers
    ]
    total_demand = sum(demands) or 1
    scale = min(1.0, bram_budget / total_demand)
    layer_cycles = [
        evaluate_layer(
            lt, point, trace.poly_degree, trace.prime_bits,
            bram_budget=int(demand * scale),
        ).latency_cycles
        for lt, demand in zip(trace.layers, demands)
    ]
    fill = sum(layer_cycles)
    steady = max(layer_cycles)
    total = (fill + (batch_size - 1) * steady) / device.clock_hz
    return BatchExecution(
        mode="pipelined",
        batch_size=batch_size,
        total_seconds=total,
        per_image_seconds=total / batch_size,
    )


def batch_execution(
    trace: NetworkTrace,
    point: DesignPoint,
    device: FpgaDevice,
    batch_size: int,
    bram_budget: int | None = None,
) -> BatchExecution:
    """The better of the two modes for this batch size."""
    budget = bram_budget if bram_budget is not None else device.bram_blocks
    seq = sequential_batch(trace, point, device, batch_size, budget)
    pipe = pipelined_batch(trace, point, device, batch_size, budget)
    return seq if seq.total_seconds <= pipe.total_seconds else pipe


def crossover_batch_size(
    trace: NetworkTrace,
    point: DesignPoint,
    device: FpgaDevice,
    bram_budget: int | None = None,
    max_batch: int = 4096,
) -> int | None:
    """Smallest batch size where the pipelined mode wins, or None."""
    budget = bram_budget if bram_budget is not None else device.bram_blocks
    batch = 1
    while batch <= max_batch:
        seq = sequential_batch(trace, point, device, batch, budget)
        pipe = pipelined_batch(trace, point, device, batch, budget)
        if pipe.total_seconds < seq.total_seconds:
            return batch
        batch *= 2
    return None
