"""Pareto-frontier analysis of the design space (paper Fig. 9).

Fig. 9 scatters every feasible design solution in the (BRAM blocks,
latency) plane for BRAM budgets between 350 and 1500 blocks, and highlights
the non-dominated frontier; the FxHENN-generated solutions for the two
target devices sit on that frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fpga.device import FpgaDevice
from ..hecnn.trace import NetworkTrace
from .design_point import DesignSolution
from .dse import enumerate_feasible
from .space import DesignSpace


@dataclass(frozen=True)
class ParetoPoint:
    """One (BRAM, latency) point in the Fig. 9 plane."""

    bram_blocks: int
    latency_seconds: float
    solution: DesignSolution


def solution_scatter(
    trace: NetworkTrace,
    device: FpgaDevice,
    bram_min: int = 350,
    bram_max: int = 1500,
    space: DesignSpace | None = None,
) -> list[ParetoPoint]:
    """All feasible solutions whose BRAM peak lies in the budget window.

    DSP is constrained by the device; the BRAM axis is the budget the
    figure sweeps.
    """
    solutions = enumerate_feasible(
        trace, device, space=space, bram_limit=bram_max
    )
    return [
        ParetoPoint(
            bram_blocks=s.bram_peak,
            latency_seconds=s.latency_seconds,
            solution=s,
        )
        for s in solutions
        if bram_min <= s.bram_peak <= bram_max
    ]


def pareto_frontier(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset: no other point is <= on BRAM and < on latency.

    Returned sorted by BRAM ascending (latency then descends monotonically).
    """
    ordered = sorted(points, key=lambda p: (p.bram_blocks, p.latency_seconds))
    frontier: list[ParetoPoint] = []
    best_latency = float("inf")
    for p in ordered:
        if p.latency_seconds < best_latency:
            frontier.append(p)
            best_latency = p.latency_seconds
    return frontier


def is_dominated(candidate: ParetoPoint, others: list[ParetoPoint]) -> bool:
    """True if some other point is at least as good on both axes and
    strictly better on one."""
    for other in others:
        if other is candidate:
            continue
        if (
            other.bram_blocks <= candidate.bram_blocks
            and other.latency_seconds <= candidate.latency_seconds
            and (
                other.bram_blocks < candidate.bram_blocks
                or other.latency_seconds < candidate.latency_seconds
            )
        ):
            return True
    return False
