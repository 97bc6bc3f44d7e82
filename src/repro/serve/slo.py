"""Declarative service-level objectives over sliding request windows.

An :class:`Slo` names one objective on the serving layer's terminal
request stream::

    Slo("p99 under 2s", objective="p99_latency_s", threshold=2.0)
    Slo("miss rate", objective="deadline_miss_rate", threshold=0.01)
    Slo("rejects", objective="reject_rate", threshold=0.05)

A :class:`SloMonitor` holds a set of SLOs and a bounded sliding window of
the most recent terminal requests (outcome + latency).  It is fed by
:meth:`observe` — the autoscaler's control loop feeds it every terminal
request; the window is lock-protected, so threads may share a monitor —
and evaluated on demand with :meth:`evaluate`, which also publishes
``slo_value`` / ``slo_ok`` gauges and records a flight event on every
*transition* — ``slo_violation`` on ok → violated, ``slo_recovery`` on
violated → ok — so the flight ring shows when an objective broke and
when it healed, not a line per request in between.

:func:`evaluate_report` applies the same objectives to a finished
:class:`~repro.serve.records.ServeReport`, which is how the virtual-time
scheduler, the cluster router and the regression bench get SLO verdicts
without running a live monitor.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..obs.probes import record_flight
from ..obs.registry import REGISTRY, interpolated_percentile
from .records import ServeReport

#: Objectives an :class:`Slo` may target.  Latency objectives are
#: "measured value must stay <= threshold seconds"; rate objectives are
#: fractions of the window in [0, 1]; ``noise_headroom_bits`` is the
#: one *floor* objective — the minimum analytic precision headroom over
#: the window must stay >= the threshold (fed per request from the
#: lineage tracker's final waterfall boundary).
OBJECTIVES = (
    "p50_latency_s",
    "p95_latency_s",
    "p99_latency_s",
    "deadline_miss_rate",
    "reject_rate",
    "noise_headroom_bits",
)

#: Objectives where *higher* measured values are better (``ok`` means
#: ``value >= threshold`` instead of ``<=``).
FLOOR_OBJECTIVES = frozenset({"noise_headroom_bits"})

_LATENCY_PERCENTILE = {
    "p50_latency_s": 50.0,
    "p95_latency_s": 95.0,
    "p99_latency_s": 99.0,
}


@dataclass(frozen=True)
class Slo:
    """One objective over a sliding window: ``measured <= threshold``
    (or ``>=`` for the floor objectives in :data:`FLOOR_OBJECTIVES`)."""

    name: str
    objective: str
    threshold: float
    #: Number of most-recent terminal requests the objective is measured
    #: over (the monitor keeps the max across its SLOs).
    window: int = 1000

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"choose from {OBJECTIVES}"
            )
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "objective": self.objective,
            "threshold": self.threshold,
            "window": self.window,
        }


@dataclass(frozen=True)
class SloStatus:
    """One SLO's verdict at evaluation time."""

    slo: Slo
    value: float
    ok: bool
    samples: int

    def as_dict(self) -> dict[str, Any]:
        return {
            **self.slo.as_dict(),
            "value": self.value,
            "ok": self.ok,
            "samples": self.samples,
        }


def default_slos(
    p99_latency_s: float = 30.0,
    deadline_miss_rate: float = 0.01,
    reject_rate: float = 0.05,
    window: int = 1000,
) -> tuple[Slo, ...]:
    """The stock serving SLO set (thresholds are per-deployment knobs)."""
    return (
        Slo("p99-latency", "p99_latency_s", p99_latency_s, window),
        Slo("deadline-misses", "deadline_miss_rate", deadline_miss_rate,
            window),
        Slo("queue-rejects", "reject_rate", reject_rate, window),
    )


class _Tail:
    """What the objectives read of a window's terminal requests: their
    completed latencies and headroom bits, each kept sorted, and their
    count and outcome counts."""

    __slots__ = ("size", "expired", "rejected", "latencies", "bits")

    def __init__(self) -> None:
        self.size = self.expired = self.rejected = 0
        self.latencies: list[float] = []
        self.bits: list[float] = []

    def add(
        self, outcome: str, latency_s: float | None, bits: float | None,
        sign: int,
    ) -> None:
        """Count one request in (``sign=1``) or out (``sign=-1``)."""
        self.size += sign
        if outcome == "expired":
            self.expired += sign
        elif outcome == "rejected":
            self.rejected += sign
        elif latency_s is not None:
            _update(self.latencies, latency_s, sign)
        if bits is not None:
            _update(self.bits, bits, sign)

    def measure(self, slo: Slo) -> tuple[float, int]:
        """``(value, samples)`` of one objective over this window."""
        if slo.objective in _LATENCY_PERCENTILE:
            p = _LATENCY_PERCENTILE[slo.objective]
            return interpolated_percentile(self.latencies, p), len(self.latencies)
        if slo.objective == "noise_headroom_bits":
            # Worst headroom over the window; with no headroom samples the
            # floor objective is vacuously met (value pinned to the
            # threshold so the gauge stays finite and the verdict is ok).
            if not self.bits:
                return slo.threshold, 0
            return self.bits[0], len(self.bits)
        if not self.size:
            return 0.0, 0
        if slo.objective == "deadline_miss_rate":
            return self.expired / self.size, self.size
        return self.rejected / self.size, self.size  # reject_rate


def _update(ordered: list[float], value: float, sign: int) -> None:
    """Insert ``value`` into, or remove one copy of it from, an ascending
    list."""
    if sign > 0:
        insort(ordered, value)
    else:
        del ordered[bisect_left(ordered, value)]


class SloMonitor:
    """Sliding-window SLO evaluation over a live terminal-request stream.

    Each distinct window length keeps its :class:`_Tail` up to date as
    requests arrive and age out, so :meth:`evaluate` reads sorted
    latencies and counts instead of rescanning the window."""

    def __init__(self, slos: tuple[Slo, ...] | list[Slo] | None = None) -> None:
        self.slos = tuple(slos) if slos is not None else default_slos()
        if not self.slos:
            raise ValueError("monitor needs at least one SLO")
        span = max(slo.window for slo in self.slos)
        self._window: deque[tuple[str, float | None, float | None]] = deque(
            maxlen=span
        )
        self._tails = {slo.window: _Tail() for slo in self.slos}
        self._lock = threading.Lock()
        self._violated: set[str] = set()

    def observe(
        self,
        outcome: str,
        latency_s: float | None = None,
        noise_headroom_bits: float | None = None,
    ) -> None:
        """Feed one terminal request (from any thread).

        ``noise_headroom_bits`` is the request's analytic precision
        headroom (e.g. the lineage tracker's final boundary bits minus
        the deployment's precision floor); omit it for callers that do
        not track noise.
        """
        entry = (outcome, latency_s, noise_headroom_bits)
        with self._lock:
            held = len(self._window)
            for length, tail in self._tails.items():
                if held >= length:
                    tail.add(*self._window[-length], sign=-1)
                tail.add(*entry, sign=1)
            self._window.append(entry)

    def observe_report(self, report: ServeReport) -> None:
        """Feed every terminal request of a finished report, in ID order."""
        for result in report.results:
            self.observe(result.outcome, result.latency_s)

    def evaluate(self) -> list[SloStatus]:
        """Measure every SLO; publish gauges and violation transitions."""
        with self._lock:
            measured = [self._tails[slo.window].measure(slo) for slo in self.slos]
        statuses = []
        for slo, (value, samples) in zip(self.slos, measured):
            if slo.objective in FLOOR_OBJECTIVES:
                ok = value >= slo.threshold
            else:
                ok = value <= slo.threshold
            statuses.append(SloStatus(slo=slo, value=value, ok=ok,
                                      samples=samples))
            REGISTRY.gauge("slo_value", slo=slo.name).set(value)
            REGISTRY.gauge("slo_ok", slo=slo.name).set(1.0 if ok else 0.0)
            if not ok and slo.name not in self._violated:
                record_flight(
                    "slo_violation", slo=slo.name,
                    objective=slo.objective, value=value,
                    threshold=slo.threshold, samples=samples,
                )
            elif ok and slo.name in self._violated:
                # The mirror transition (violated -> ok) gets exactly one
                # event too — including when the violation clears exactly
                # at window close, i.e. the moment the last bad sample
                # ages out of the sliding window.
                record_flight(
                    "slo_recovery", slo=slo.name,
                    objective=slo.objective, value=value,
                    threshold=slo.threshold, samples=samples,
                )
            if ok:
                self._violated.discard(slo.name)
            else:
                self._violated.add(slo.name)
        return statuses

    def ok(self) -> bool:
        return all(status.ok for status in self.evaluate())


def evaluate_report(
    report: ServeReport, slos: tuple[Slo, ...] | list[Slo] | None = None
) -> list[SloStatus]:
    """Apply SLOs to a finished virtual-time serving session."""
    monitor = SloMonitor(slos)
    monitor.observe_report(report)
    return monitor.evaluate()
