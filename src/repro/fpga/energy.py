"""Energy and efficiency accounting for platform comparisons (Table VII).

The paper compares platforms by energy per inference using the thermal
design power (TDP) of each platform: ``E = TDP * latency``.  Energy
efficiency of platform A over platform B is then
``(TDP_B * lat_B) / (TDP_A * lat_A)``.

For a multi-FPGA pipeline (``repro.cluster``) the same accounting is
applied per stage: each device burns its TDP only while its stage is
occupied, so cluster energy per inference is the sum of stage
``TDP x occupied-time`` terms — idle slack behind the bottleneck stage
is not charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class PlatformResult:
    """One platform's published (or modeled) inference result."""

    platform: str
    tdp_watts: float
    latency_seconds: float

    def __post_init__(self) -> None:
        if self.tdp_watts <= 0 or self.latency_seconds <= 0:
            raise ValueError("TDP and latency must be positive")

    @property
    def energy_joules(self) -> float:
        return self.tdp_watts * self.latency_seconds


def speedup(ours: PlatformResult, baseline: PlatformResult) -> float:
    """How many times faster ``ours`` is than ``baseline``."""
    return baseline.latency_seconds / ours.latency_seconds


def energy_efficiency(ours: PlatformResult, baseline: PlatformResult) -> float:
    """Energy-per-inference ratio baseline/ours (higher favors ``ours``)."""
    return baseline.energy_joules / ours.energy_joules


def cluster_energy_per_inference(
    stages: Iterable[tuple[float, float]]
) -> float:
    """Fleet energy per inference: ``sum(TDP x occupied-seconds)``.

    ``stages`` yields ``(tdp_watts, occupied_seconds)`` per pipeline
    stage, where occupied time is the stage's compute time per inference
    (in steady state every stage processes exactly one inference per
    pipeline interval, busy for its own stage time and idle for the
    rest).  Negative entries are rejected; zero-time stages are free.
    """
    total = 0.0
    for tdp_watts, occupied_seconds in stages:
        if tdp_watts <= 0 or occupied_seconds < 0:
            raise ValueError(
                "stage TDP must be positive and occupied time non-negative"
            )
        total += tdp_watts * occupied_seconds
    return total
