"""The design cache: the reason a warm service skips DSE.

Every cold inference pays two large one-time costs the request path must
not repeat:

* **design space exploration** — ``FxHennFramework.generate`` scans a few
  thousand design points per (network, device) pair;
* **context/key generation** — CKKS key material (public, relin, Galois)
  for a parameter set, plus the model's weight provisioning.

Both are pure functions of their keys, so the serving layer memoizes them
in bounded :class:`~repro.caching.LruCache` instances: designs through
:class:`DesignCache`, provisioned contexts in an ``LruCache(...,
name="context", flight=True)`` — or, per tenant key group, a
:class:`~repro.serve.tenants.TenantShardedCache` named ``"context"``.  The
acceptance check for cache correctness is observable: a second scheduler
run against a warm :class:`DesignCache` leaves the ``dse_points_*``
counters flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..caching import CacheStats, LruCache
from ..core.framework import AcceleratorDesign, FxHennFramework
from ..fpga.device import FpgaDevice
from ..hecnn.trace import NetworkTrace


@dataclass(frozen=True)
class DesignKey:
    """Identity of one DSE product: ``(network, device, params, limits)``.

    ``batch_lanes`` is deliberately excluded — under-filled slot batches
    execute the identical operation trace, so every lane count shares one
    accelerator design.
    """

    network: str
    device: str
    poly_degree: int
    base_level: int
    prime_bits: int
    dsp_limit: int | None = None
    bram_limit: int | None = None

    @classmethod
    def of(
        cls,
        trace: NetworkTrace,
        device: FpgaDevice,
        dsp_limit: int | None = None,
        bram_limit: int | None = None,
    ) -> "DesignKey":
        return cls(
            network=trace.name,
            device=device.name,
            poly_degree=trace.poly_degree,
            base_level=trace.base_level,
            prime_bits=trace.prime_bits,
            dsp_limit=dsp_limit,
            bram_limit=bram_limit,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "network": self.network,
            "device": self.device,
            "poly_degree": self.poly_degree,
            "base_level": self.base_level,
            "prime_bits": self.prime_bits,
            "dsp_limit": self.dsp_limit,
            "bram_limit": self.bram_limit,
        }


class DesignCache:
    """Memoized ``FxHennFramework.generate`` keyed by :class:`DesignKey`."""

    def __init__(self, capacity: int = 32) -> None:
        self._cache = LruCache(capacity, name="design", flight=True)
        self._framework = FxHennFramework()

    def get(
        self,
        trace: NetworkTrace,
        device: FpgaDevice,
        dsp_limit: int | None = None,
        bram_limit: int | None = None,
    ) -> AcceleratorDesign:
        key = DesignKey.of(trace, device, dsp_limit, bram_limit)
        return self._cache.get_or_create(
            key,
            lambda: self._framework.generate(
                trace, device, dsp_limit=dsp_limit, bram_limit=bram_limit
            ),
        )

    def contains(
        self,
        trace: NetworkTrace,
        device: FpgaDevice,
        dsp_limit: int | None = None,
        bram_limit: int | None = None,
    ) -> bool:
        """Warm probe: is the design already cached?

        Does not touch hit/miss accounting — the autoscaler's spin-up
        cost model asks "would this scale-up need DSE?" without the
        probe itself perturbing the hit-ratio gauge.
        """
        return DesignKey.of(trace, device, dsp_limit, bram_limit) in self._cache

    def stats(self) -> CacheStats:
        return self._cache.stats()

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
