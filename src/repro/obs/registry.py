"""Labeled metrics: counters, gauges and timing histograms.

A :class:`MetricsRegistry` is a flat, process-local store of named metric
instruments, each keyed by ``(name, labels)`` — the usual Prometheus-style
data model, minus any wire format (this repo is zero-dependency; the
Prometheus/OpenMetrics *text* rendering lives in :mod:`repro.obs.export`).
Three instrument kinds exist:

* :class:`Counter` — monotone accumulator (op counts, NTT rows, DSE
  points pruned).  Counters are *always* live: incrementing one is a
  couple of integer adds, so they are not gated behind the
  :mod:`repro.obs.config` switch.  The NTT transform counters
  (``ntt_transform_{calls,rows}``) are among them.
* :class:`Gauge` — last-written value (ciphertext level/scale after an
  op, per-layer noise budget in bits).
* :class:`Histogram` — sample distribution with exact percentiles
  (p50/p95/p99) while under its reservoir cap; beyond the cap it keeps a
  uniform random sample (Vitter's Algorithm R), so memory is bounded in
  a long-running server.

Every mutating instrument method takes the instrument's own lock:
``value += amount`` is a read-modify-write that interleaves across
bytecodes, so unlocked increments lose counts under the
:class:`~repro.serve.service.InferenceService` worker pool (the hammer
test in ``tests/obs/test_registry.py`` demonstrates exactness).  Reads
of ``value`` stay unlocked — a stale read is fine, a lost write is not.

Handles returned by :meth:`MetricsRegistry.counter` (etc.) stay valid
across :meth:`MetricsRegistry.reset` — reset zeroes instruments in place
rather than dropping them, so modules may cache handles at import time.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Any, Iterator

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing accumulator."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """A value that can go up and down; remembers the last write."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += float(amount)

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


#: Default histogram reservoir: exact percentiles up to this many samples.
DEFAULT_RESERVOIR = 65_536


class Histogram:
    """Bounded-memory distribution with interpolated percentiles.

    Up to ``reservoir`` observations every sample is kept and percentiles
    are exact (the same linear interpolation as ``numpy.percentile``'s
    default).  Beyond the cap the stored samples become a uniform random
    reservoir (Algorithm R) of the full stream: ``count`` and ``total``
    stay exact, while ``min``/``max``/percentiles are estimates over the
    reservoir — unbiased, with error shrinking as the cap grows.  The
    replacement RNG is seeded from the instrument identity so runs are
    reproducible.
    """

    __slots__ = ("name", "labels", "values", "reservoir", "_count", "_total",
                 "_rng", "_seed", "_lock")

    def __init__(self, name: str, labels: LabelKey,
                 reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self.name = name
        self.labels = labels
        self.reservoir = reservoir
        self.values: list[float] = []
        self._count = 0
        self._total = 0.0
        self._seed = zlib.crc32(f"{name}|{labels}".encode())
        self._rng = random.Random(self._seed)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if len(self.values) < self.reservoir:
                self.values.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.reservoir:
                    self.values[slot] = value

    def reset(self) -> None:
        with self._lock:
            self.values.clear()
            self._count = 0
            self._total = 0.0
            self._rng = random.Random(self._seed)

    @property
    def count(self) -> int:
        """Exact number of observations (including sampled-out ones)."""
        return self._count

    @property
    def total(self) -> float:
        """Exact running sum of all observations."""
        return self._total

    @property
    def saturated(self) -> bool:
        """True once the reservoir is sampling (percentiles approximate)."""
        return self._count > self.reservoir

    def _sample(self) -> list[float]:
        with self._lock:
            return list(self.values)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), linearly interpolated.

        Exact below the reservoir cap; a reservoir estimate above it.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self._sample())
        if not ordered:
            return 0.0
        rank = (len(ordered) - 1) * p / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> dict[str, float]:
        sample = self._sample()
        if not sample:
            return {"count": 0, "total": 0.0}
        ordered = sorted(sample)
        out = {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count,
            "min": ordered[0],
            "max": ordered[-1],
            "p50": _interp(ordered, 50),
            "p95": _interp(ordered, 95),
            "p99": _interp(ordered, 99),
        }
        if self.saturated:
            out["sampled"] = True
        return out


def _interp(ordered: list[float], p: float) -> float:
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of metric instruments, safe for concurrent use."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, LabelKey], Any] = {}
        self._lock = threading.Lock()

    def _get(self, kind: str, name: str, labels: dict[str, Any]):
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = _KINDS[kind](name, key[2])
                    self._metrics[key] = metric
        return metric

    # ``name`` is positional-only so a label may itself be called "name"
    # (e.g. ``span_seconds{category=..., name=...}``).
    def counter(self, name: str, /, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, /, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, /, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    def collect(self, kind: str | None = None, name: str | None = None) -> Iterator:
        """Iterate instruments, optionally filtered by kind and/or name."""
        for (k, n, _), metric in sorted(
            self._metrics.items(), key=lambda item: item[0][:2] + (str(item[0][2]),)
        ):
            if kind is not None and k != kind:
                continue
            if name is not None and n != name:
                continue
            yield metric

    def items(self) -> Iterator[tuple[tuple[str, str, LabelKey], Any]]:
        """``((kind, name, labels), instrument)`` pairs in stable order."""
        yield from sorted(
            self._metrics.items(), key=lambda item: item[0][:2] + (str(item[0][2]),)
        )

    def reset(self) -> None:
        """Zero every instrument *in place* (cached handles stay valid)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All current values, JSON-ready, keyed ``name{label=value,...}``."""
        out: dict[str, dict[str, Any]] = {}
        for (kind, name, labels), metric in self.items():
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{name}{{{label_str}}}" if label_str else name
            if kind == "histogram":
                out[key] = {"kind": kind, **metric.summary()}
            else:
                out[key] = {"kind": kind, "value": metric.value}
        return out


#: The process-global registry every probe records into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
