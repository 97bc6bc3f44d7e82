"""Bounded time-series retention over the metrics registry.

The registry and the OpenMetrics snapshotter expose *point-in-time*
state; dashboards and alert rules need *history* — "is the p99 trending
toward its threshold", "what was the miss rate over the last minute".
:class:`TimeSeriesStore` closes that gap: on a fixed virtual-time
cadence it walks :meth:`~repro.obs.registry.MetricsRegistry.items` and
appends one point per instrument to a bounded ring, so memory stays
constant no matter how long a serving session runs.

What gets sampled per instrument kind:

* **counters** — the raw cumulative value; :meth:`TimeSeriesStore.rate`
  and :meth:`TimeSeriesStore.increase` derive per-window deltas with
  Prometheus-style reset handling (a value that *drops* between samples
  means the registry was reset mid-run; the post-reset value counts as
  the increase, never a negative delta);
* **gauges** — the last-written value;
* **histograms** — derived series per quantile (``:p50``/``:p95``/
  ``:p99``) plus the exact ``:count``.

Series are keyed exactly like :meth:`MetricsRegistry.snapshot` —
``name{label=value,...}`` — so an alert rule written against a snapshot
key reads the matching history here.  Sampling is driven *explicitly* by
the virtual-time loops (:func:`repro.obs.probes.record_timeseries_tick`);
there is no wall-clock thread, which is what makes replays exactly
reproducible.

All mutation happens under one lock, and reads of instrument values are
tolerant of a concurrent :meth:`MetricsRegistry.reset` — the hammer test
in ``tests/obs/test_timeseries.py`` races the two on purpose.
"""

from __future__ import annotations

import fnmatch
import threading
from collections import deque
from typing import Any, Iterator

from .registry import REGISTRY, MetricsRegistry, interpolated_percentile

#: Default ring length per series: at the default 1 s cadence this keeps
#: 12 minutes of history — enough for any burn-rate window we evaluate.
DEFAULT_POINTS = 720

#: Default sampling cadence in (virtual) seconds.
DEFAULT_INTERVAL_S = 1.0

#: Histogram quantiles materialized as derived series.
_HIST_QUANTILES = ((50.0, "p50"), (95.0, "p95"), (99.0, "p99"))


def series_key(name: str, labels: tuple[tuple[str, Any], ...]) -> str:
    """The snapshot-style key ``name{label=value,...}`` for one series."""
    label_str = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{label_str}}}" if label_str else name


class TimeSeriesStore:
    """Bounded ring of ``(t_s, value)`` points per registry series."""

    def __init__(
        self,
        capacity: int = DEFAULT_POINTS,
        interval_s: float = DEFAULT_INTERVAL_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.capacity = capacity
        self.interval_s = interval_s
        self.registry = REGISTRY if registry is None else registry
        self._series: dict[str, deque[tuple[float, float]]] = {}
        self._kinds: dict[str, str] = {}
        #: First-ever sample time per series: a counter born inside a
        #: query window counts its first value as an increase from the
        #: implicit 0 every instrument starts at.  Kept separately from
        #: the ring because the ring is bounded and forgets its oldest
        #: points.
        self._births: dict[str, float] = {}
        self._lock = threading.Lock()
        self._last_sample_s: float | None = None
        self._samples_taken = 0

    # -- recording ------------------------------------------------------------

    def maybe_sample(self, now_s: float) -> bool:
        """Sample if a full cadence interval has elapsed; True if sampled.

        The virtual loops call this at every interesting moment; the
        cadence check keeps the stored history evenly spaced regardless
        of how bursty the calling loop's events are.  Time going
        backwards (two interleaved loops) is ignored rather than raised —
        the store keeps a single monotone clock.
        """
        with self._lock:
            last = self._last_sample_s
            if last is not None and now_s - last < self.interval_s:
                return False
        self.sample(now_s)
        return True

    def sample(self, now_s: float) -> None:
        """Unconditionally record one point per registry instrument."""
        points: list[tuple[str, str, float]] = []
        for (kind, name, labels), metric in self.registry.items():
            key = series_key(name, labels)
            if kind == "histogram":
                # ``count``/``total`` are exact even while the reservoir
                # samples; quantiles are reservoir estimates past the cap.
                points.append((key + ":count", "counter",
                               float(metric.count)))
                if metric.count:
                    for p, suffix in _HIST_QUANTILES:
                        points.append((f"{key}:{suffix}", "gauge",
                                       metric.percentile(p)))
            else:
                points.append((key, kind, float(metric.value)))
        with self._lock:
            if self._last_sample_s is not None \
                    and now_s < self._last_sample_s:
                return  # a second loop's older clock — keep monotone
            for key, kind, value in points:
                ring = self._series.get(key)
                if ring is None:
                    ring = deque(maxlen=self.capacity)
                    self._series[key] = ring
                    self._kinds[key] = kind
                    self._births[key] = now_s
                ring.append((now_s, value))
            self._last_sample_s = now_s
            self._samples_taken += 1

    # -- introspection --------------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Sampling sweeps taken (monotone; alert engines key off this)."""
        with self._lock:
            return self._samples_taken

    @property
    def last_sample_s(self) -> float | None:
        with self._lock:
            return self._last_sample_s

    def keys(self, pattern: str | None = None) -> list[str]:
        """All series keys, optionally filtered by an fnmatch pattern."""
        with self._lock:
            keys = sorted(self._series)
        if pattern is None:
            return keys
        return [k for k in keys if fnmatch.fnmatchcase(k, pattern)]

    def kind(self, key: str) -> str | None:
        with self._lock:
            return self._kinds.get(key)

    def points(self, key: str) -> list[tuple[float, float]]:
        """The surviving ring for one series, oldest first."""
        with self._lock:
            ring = self._series.get(key)
            return list(ring) if ring is not None else []

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def clear(self) -> None:
        with self._lock:
            self._series.clear()
            self._kinds.clear()
            self._births.clear()
            self._last_sample_s = None
            self._samples_taken = 0

    # -- windowed queries -----------------------------------------------------

    def window(
        self, key: str, window_s: float, at_s: float | None = None
    ) -> list[tuple[float, float]]:
        """Points with ``at_s - window_s <= t <= at_s`` (``at_s`` defaults
        to the last sample time)."""
        pts = self.points(key)
        if not pts:
            return []
        end = pts[-1][0] if at_s is None else at_s
        start = end - window_s
        return [p for p in pts if start <= p[0] <= end]

    def last(self, key: str, at_s: float | None = None) -> float | None:
        """The most recent value at or before ``at_s`` (None if empty)."""
        pts = self.points(key)
        if at_s is not None:
            pts = [p for p in pts if p[0] <= at_s]
        return pts[-1][1] if pts else None

    def increase(
        self, key: str, window_s: float, at_s: float | None = None
    ) -> float:
        """Counter increase over the window, reset-aware.

        Sums consecutive deltas; a drop (``v2 < v1``) means the counter
        was reset mid-window, so the post-reset value ``v2`` *is* the
        increase since the reset — the Prometheus convention.  This is
        what keeps the sampler correct while a test's ``obs.reset()``
        races it.

        A series *born* inside the window (its first-ever sample lands
        there) counts that first value as an increase from the implicit
        0 every instrument starts at — a counter first incremented late
        in a run (``outcome=expired``) would otherwise never show its
        initial burst.
        """
        pts = self.window(key, window_s, at_s)
        if not pts:
            return 0.0
        with self._lock:
            birth = self._births.get(key)
        total = pts[0][1] if birth is not None and pts[0][0] <= birth \
            else 0.0
        for (_, v1), (_, v2) in zip(pts, pts[1:]):
            total += v2 - v1 if v2 >= v1 else v2
        return total

    def rate(
        self, key: str, window_s: float, at_s: float | None = None
    ) -> float:
        """Per-second counter rate over the window (0.0 when < 2 points)."""
        pts = self.window(key, window_s, at_s)
        if len(pts) < 2:
            return 0.0
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return 0.0
        return self.increase(key, window_s, at_s) / span

    def avg_over(
        self, key: str, window_s: float, at_s: float | None = None
    ) -> float:
        """Mean of the stored values over the window (0.0 when empty)."""
        pts = self.window(key, window_s, at_s)
        if not pts:
            return 0.0
        return sum(v for _, v in pts) / len(pts)

    def max_over(
        self, key: str, window_s: float, at_s: float | None = None
    ) -> float:
        pts = self.window(key, window_s, at_s)
        return max((v for _, v in pts), default=0.0)

    def quantile_over(
        self,
        key: str,
        p: float,
        window_s: float,
        at_s: float | None = None,
    ) -> float:
        """The ``p``-th percentile (0..100) of windowed values, linearly
        interpolated like :meth:`Histogram.percentile` (0.0 when empty)."""
        return interpolated_percentile(
            sorted(v for _, v in self.window(key, window_s, at_s)), p
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())


#: The process-global store :func:`repro.obs.probes.record_timeseries_tick`
#: samples into; :func:`repro.obs.reset` clears it.
TIMESERIES = TimeSeriesStore()
