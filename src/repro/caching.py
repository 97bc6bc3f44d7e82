"""A bounded, thread-safe LRU cache with observability hooks.

The serving layer (``repro.serve``) keeps accelerator designs, CKKS
contexts and rotation-key material alive across requests so repeated
inference skips design space exploration and key generation; the FHE
context uses the same structure to bound its NTT-resident plaintext
cache.  Both need the identical semantics:

* **bounded**: memory is capped by entry count; the least-recently-used
  entry is evicted when a put would exceed capacity;
* **thread-safe**: callers may share one cache across threads, so
  every operation takes the cache's lock;
* **observable**: hits, misses, evictions and explicit removals
  (``pop``/``clear``) publish to the ``repro.obs`` registry
  (``cache_events_total{cache=..., event=...}`` plus the ``cache_size``
  and ``cache_hit_ratio`` gauges, kept in lock-step with the true size
  and lifetime hit rate) when observability is enabled, and
  :meth:`LruCache.stats` is always available for reports.  The hit-ratio
  gauge is the supported way for a dashboard to read cache warmth — it
  should not re-derive it from the raw event counters.

Kept dependency-free (only ``repro.obs``, itself zero-dependency) so the
FHE layer can import it without cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from .obs import config as obs_config
from .obs.flight import FLIGHT
from .obs.registry import REGISTRY


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache's lifetime activity (JSON-ready)."""

    name: str
    capacity: int
    size: int
    hits: int
    misses: int
    #: Entries removed for any reason: capacity pressure, ``pop``, and
    #: ``clear`` all count — the gauge-vs-stats parity tests rely on it.
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "size": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LruCache:
    """An ordered-dict LRU with dict-compatible accessors.

    ``get``/``__getitem__`` refresh recency; ``put``/``__setitem__``
    insert and evict the oldest entry once ``capacity`` is exceeded.
    ``get_or_create`` runs ``factory`` on a miss under a *per-key*
    in-flight lock: two threads warming the same key run the factory
    exactly once (the loser blocks briefly and gets the winner's value).
    Factories for *different* keys still build concurrently, and the
    cache's own lock is never held across a factory call.
    """

    def __init__(
        self, capacity: int, name: str = "lru", flight: bool = False
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        #: Mirror hit/miss/eviction events into the flight recorder.
        #: Off by default — per-op caches (the NTT plaintext cache) would
        #: flood the bounded ring; the coarse design/context caches opt in.
        self.flight = flight
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Per-key build locks for get_or_create; guarded by _inflight_lock.
        self._inflight: dict[Hashable, threading.Lock] = {}
        self._inflight_lock = threading.Lock()

    # -- core operations ------------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                self._publish("hit")
                return self._data[key]
            self._misses += 1
            self._publish("miss")
            return default

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1
                self._publish("eviction")
            self._publish_size()

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        with self._inflight_lock:
            build_lock = self._inflight.setdefault(key, threading.Lock())
        with build_lock:
            # Double-check under the key's build lock: the thread that
            # lost the race finds the winner's value and never builds.
            # Peek without touching hit/miss stats — this re-check is an
            # implementation detail of one logical lookup, not a second
            # cache access.
            with self._lock:
                if key in self._data:
                    self._data.move_to_end(key)
                    return self._data[key]
            value = factory()
            self.put(key, value)
        with self._inflight_lock:
            self._inflight.pop(key, None)
        return value

    def pop(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key not in self._data:
                return default
            value = self._data.pop(key)
            self._evictions += 1
            self._publish("pop")
            return value

    def clear(self) -> None:
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            if dropped:
                self._evictions += dropped
                self._publish("clear")

    # -- dict compatibility ---------------------------------------------------

    def __getitem__(self, key: Hashable) -> Any:
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data.keys()))

    # -- observability --------------------------------------------------------

    def _publish(self, event: str) -> None:
        # Called with the lock held; registry counters take their own lock
        # only on first creation, so this stays cheap.
        if obs_config.enabled():
            REGISTRY.counter(
                "cache_events_total", cache=self.name, event=event
            ).inc()
            REGISTRY.gauge("cache_size", cache=self.name).set(len(self._data))
            self._publish_hit_ratio()
            if self.flight:
                FLIGHT.record(
                    "cache", cache=self.name, event=event,
                    size=len(self._data),
                )

    def _publish_size(self) -> None:
        # Keep the size gauge in lock-step with every mutation (put, pop,
        # clear) — it used to lag behind explicit removals forever.  The
        # hit-ratio gauge rides along so both stay parity-exact with
        # stats() after any mutation.
        if obs_config.enabled():
            REGISTRY.gauge("cache_size", cache=self.name).set(len(self._data))
            self._publish_hit_ratio()

    def _publish_hit_ratio(self) -> None:
        # Called with the lock held.  Lifetime hit rate matching
        # CacheStats.hit_rate exactly (0.0 before any lookups).
        total = self._hits + self._misses
        ratio = self._hits / total if total else 0.0
        REGISTRY.gauge("cache_hit_ratio", cache=self.name).set(ratio)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                capacity=self.capacity,
                size=len(self._data),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )
