"""Cost facts the scheduler's dispatch policy is built on.

Two execution modes, both priced by the DSE'd accelerator design:

* **LoLa single** — the paper's latency-oriented packing; one image costs
  ``single_request_seconds`` and images serialize on the accelerator;
* **slot batch** — the CryptoNets-style batched trace; one run costs
  ``batch_seconds`` *regardless of lane occupancy* (the operation counts
  are lane-invariant), serving up to ``batch_capacity = N/2`` images.

The interesting consequence is the crossover: a batch of ``k`` images is
only worth dispatching in batched mode when ``batch_seconds <
k * single_request_seconds``; below that the scheduler degrades to plain
LoLa execution.  On CryptoNets-MNIST / ACU9EG the crossover sits near
``k = 50`` — far below the 4096-lane capacity, which is why even modest
traffic amortizes well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..fpga.device import FpgaDevice
from ..hecnn.batched import cryptonets_mnist_batched, max_batch_lanes
from ..hecnn.models import fxhenn_mnist_model
from ..hecnn.trace import NetworkTrace
from .cache import DesignCache


@dataclass
class ServingCostModel:
    """Mode costs for one (single-trace, batched-trace, device) triple.

    Design latencies are resolved lazily through the ``designs`` cache, so
    constructing the model is free and a warm cache makes pricing free
    too.
    """

    single_trace: NetworkTrace
    batched_trace: NetworkTrace
    device: FpgaDevice
    designs: DesignCache = field(default_factory=DesignCache)

    @classmethod
    def cryptonets_mnist(
        cls,
        device: FpgaDevice,
        poly_degree: int = 8192,
        designs: DesignCache | None = None,
    ) -> "ServingCostModel":
        """The benchmark pairing: FxHENN-MNIST (LoLa) vs CryptoNets-MNIST
        (slot-batched) on one device."""
        # `is None`, not `or`: an empty DesignCache is falsy (len == 0)
        # and must still be the one the caller gets warmed.
        return cls(
            single_trace=fxhenn_mnist_model().trace(),
            batched_trace=cryptonets_mnist_batched(poly_degree),
            device=device,
            designs=DesignCache() if designs is None else designs,
        )

    @property
    def batch_capacity(self) -> int:
        """Slot lanes per batch: ``N/2`` of the batched trace."""
        return max_batch_lanes(self.batched_trace.poly_degree)

    def single_request_seconds(self) -> float:
        """Latency of one LoLa inference on the chosen design."""
        return self.designs.get(
            self.single_trace, self.device
        ).latency_seconds

    def batch_seconds(self, lanes: int | None = None) -> float:
        """Latency of one slot-batched run — lane-invariant by design.

        ``lanes`` is accepted (and validated) for symmetry, but any
        occupancy from 1 to ``batch_capacity`` costs the same run.
        """
        if lanes is not None and not 1 <= lanes <= self.batch_capacity:
            raise ValueError(
                f"lanes must be in [1, {self.batch_capacity}], got {lanes}"
            )
        return self.designs.get(
            self.batched_trace, self.device
        ).latency_seconds

    def lola_wins(self, lanes: int) -> bool:
        """True when serializing ``lanes`` LoLa runs beats one batch."""
        return lanes * self.single_request_seconds() < self.batch_seconds()

    def crossover_lanes(self) -> int:
        """Smallest occupancy at which the slot batch wins (≥ 1)."""
        single = self.single_request_seconds()
        batch = self.batch_seconds()
        k = int(batch / single) + 1
        return max(1, min(k, self.batch_capacity))

    def as_dict(self) -> dict[str, Any]:
        return {
            "single_trace": self.single_trace.name,
            "batched_trace": self.batched_trace.name,
            "device": self.device.name,
            "batch_capacity": self.batch_capacity,
            "single_request_seconds": self.single_request_seconds(),
            "batch_seconds": self.batch_seconds(),
            "crossover_lanes": self.crossover_lanes(),
        }
