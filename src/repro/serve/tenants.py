"""Multi-tenant key universe: the registry behind per-key serving.

A real HE-CNN service has no single key universe: every user encrypts
under their own CKKS key, so two requests can share an accelerator batch
*only* when they share key material — slot lanes of one ciphertext
stream are all decrypted by one secret key.  This module provides the
identity layer the serving stack batches, caches and accounts by:

* :class:`TenantRegistry` — tenants with a stable **key-group ID**
  (``"{tenant_id}:k{epoch}"``).  The key group is the unit of batching
  and cache sharding.  Registration lands in the flight recorder
  (``tenant_registered``), so a post-mortem window shows which tenants
  were live around a failure.
* :class:`TenantShardedCache` — per-tenant :class:`~repro.caching
  .LruCache` shards with a **bounded per-tenant quota** and a bounded
  tenant population: the least-recently-active tenant's whole shard is
  evicted when a new tenant would exceed ``max_tenants`` (recorded as a
  ``tenant_evicted`` flight event with the entry count dropped).  All
  shards publish under one cache label, so
  ``cache_events_total{cache="context", event=...}`` aggregates across
  tenants — the warm-rerun acceptance check reads exactly that counter.

Tenants carry a **tier** (``TIERS``): the traffic model maps zipf rank
onto tiers (few hot tenants, a long tail) and the benchmark holds each
tier to its own SLO set.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ..caching import CacheStats, LruCache
from ..obs import config as obs_config
from ..obs.probes import record_flight, record_tenant_event
from ..obs.registry import REGISTRY

#: Tenant service tiers, hottest first.  The zipf traffic model assigns
#: them by rank share; SLO thresholds are per-tier deployment knobs.
TIERS = ("hot", "warm", "cold")


@dataclass(frozen=True)
class Tenant:
    """One tenant's identity snapshot at a point in the key lifecycle."""

    tenant_id: str
    tier: str = "cold"
    key_epoch: int = 0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; choose from {TIERS}")
        if self.key_epoch < 0:
            raise ValueError("key_epoch must be >= 0")

    @property
    def key_group(self) -> str:
        """The batching/caching identity: tenant plus key epoch."""
        return f"{self.tenant_id}:k{self.key_epoch}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenant_id": self.tenant_id,
            "tier": self.tier,
            "key_epoch": self.key_epoch,
            "key_group": self.key_group,
        }


def tenant_of_key_group(key_group: str) -> str:
    """The tenant ID a key-group string belongs to."""
    return key_group.rsplit(":k", 1)[0]


class TenantRegistry:
    """Thread-safe tenant directory."""

    def __init__(self) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def register(self, tenant_id: str, tier: str = "cold") -> Tenant:
        """Idempotently register a tenant; returns its current snapshot."""
        with self._lock:
            existing = self._tenants.get(tenant_id)
            if existing is not None:
                return existing
            tenant = Tenant(tenant_id=tenant_id, tier=tier)
            self._tenants[tenant_id] = tenant
        record_flight(
            "tenant_registered", tenant=tenant_id, tier=tier,
            key_group=tenant.key_group,
        )
        record_tenant_event("registered")
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise KeyError(f"unknown tenant {tenant_id!r}") from None

    def key_group(self, tenant_id: str) -> str:
        """The tenant's current key group (auto-registers cold tenants)."""
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            tenant = self.register(tenant_id)
        return tenant.key_group

    def tenants(self) -> list[Tenant]:
        with self._lock:
            return list(self._tenants.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenants": [t.as_dict() for t in self.tenants()],
            "count": len(self),
        }


class TenantShardedCache:
    """Per-tenant LRU shards with bounded quotas, under one cache label.

    Layered on :class:`~repro.caching.LruCache` twice over: each tenant
    owns a shard bounded by ``per_tenant_capacity`` (one tenant cannot
    squeeze every other tenant's warm key material out), and the shard
    directory itself is LRU-bounded by ``max_tenants`` (the long tail of
    a zipf population cannot grow memory without bound — the coldest
    tenant's shard is dropped whole, with a ``tenant_evicted`` flight
    event naming it and the entry count lost).

    Shards share one metric label (``cache=<name>``) so hit/miss/eviction
    counters aggregate across tenants; the ``cache_size`` and
    ``cache_hit_ratio`` gauges are republished with the *total* entry
    count and the population-wide hit rate after every access.
    """

    def __init__(
        self,
        name: str,
        per_tenant_capacity: int = 8,
        max_tenants: int = 64,
        flight: bool = False,
    ) -> None:
        if per_tenant_capacity < 1:
            raise ValueError("per_tenant_capacity must be >= 1")
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        self.name = name
        self.per_tenant_capacity = per_tenant_capacity
        self.max_tenants = max_tenants
        self.flight = flight
        self._shards: dict[str, LruCache] = {}
        self._order: list[str] = []  # LRU order, least recent first
        self._lock = threading.Lock()
        self._tenant_evictions = 0

    # -- shard directory ------------------------------------------------------

    def shard(self, key_group: str) -> LruCache:
        """The tenant's shard, created (and LRU-touched) on demand."""
        evicted: list[tuple[str, int]] = []
        with self._lock:
            cache = self._shards.get(key_group)
            if cache is None:
                cache = LruCache(
                    self.per_tenant_capacity, name=self.name,
                    flight=self.flight,
                )
                self._shards[key_group] = cache
                self._order.append(key_group)
                while len(self._shards) > self.max_tenants:
                    coldest = self._order.pop(0)
                    dropped = self._shards.pop(coldest)
                    evicted.append((coldest, len(dropped)))
                    self._tenant_evictions += 1
            else:
                self._order.remove(key_group)
                self._order.append(key_group)
        for coldest, entries in evicted:
            record_flight(
                "tenant_evicted", tenant=tenant_of_key_group(coldest),
                key_group=coldest, cache=self.name, entries=entries,
                source="cache",
            )
            record_tenant_event("evicted")
        return cache

    def get_or_create(
        self, key_group: str, key: Hashable, factory: Callable[[], Any]
    ) -> Any:
        value = self.shard(key_group).get_or_create(key, factory)
        self._publish_total()
        return value

    def clear(self) -> None:
        with self._lock:
            shards = list(self._shards.values())
            self._shards.clear()
            self._order.clear()
        for cache in shards:
            cache.clear()
        self._publish_total()

    # -- accounting -----------------------------------------------------------

    def _publish_total(self) -> None:
        if obs_config.enabled():
            REGISTRY.gauge("cache_size", cache=self.name).set(len(self))
            REGISTRY.gauge("cache_tenants", cache=self.name).set(
                self.tenant_count()
            )
            # Individual shards publish their own per-shard ratio under the
            # shared label as they are touched; republish the aggregate so
            # the gauge always lands on the population-wide hit rate.
            REGISTRY.gauge("cache_hit_ratio", cache=self.name).set(
                self.stats().hit_rate
            )

    def tenant_count(self) -> int:
        with self._lock:
            return len(self._shards)

    def tenants(self) -> list[str]:
        """Key groups with live shards, least recently used first."""
        with self._lock:
            return list(self._order)

    def __len__(self) -> int:
        """Total entries across every shard."""
        with self._lock:
            shards = list(self._shards.values())
        return sum(len(s) for s in shards)

    @property
    def tenant_evictions(self) -> int:
        with self._lock:
            return self._tenant_evictions

    def stats(self) -> CacheStats:
        """Aggregate stats across all live shards (one cache label)."""
        with self._lock:
            shards = list(self._shards.values())
            tenant_evictions = self._tenant_evictions
        hits = misses = evictions = size = 0
        for shard in shards:
            s = shard.stats()
            hits += s.hits
            misses += s.misses
            evictions += s.evictions
            size += s.size
        return CacheStats(
            name=self.name,
            capacity=self.per_tenant_capacity * self.max_tenants,
            size=size,
            hits=hits,
            misses=misses,
            evictions=evictions + tenant_evictions,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            **self.stats().as_dict(),
            "per_tenant_capacity": self.per_tenant_capacity,
            "max_tenants": self.max_tenants,
            "tenant_count": self.tenant_count(),
            "tenant_evictions": self.tenant_evictions,
        }
