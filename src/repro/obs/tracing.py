"""Span-based tracing with Chrome-trace / Perfetto export.

A *span* is one timed region: an HE op, an HE-CNN layer, a whole
inference, a simulator pass.  Spans nest naturally through the ``with``
statement::

    with trace_span("Cnv1", category="layer"):
        with trace_span("KeySwitch", category="he_op", level=7):
            ...

Each finished span becomes one Chrome-trace *complete* event (``"ph":
"X"`` with microsecond ``ts``/``dur``), so an exported trace opens
directly in ``chrome://tracing`` or https://ui.perfetto.dev and shows the
op-inside-layer-inside-inference nesting on a per-thread track.  Span
durations are simultaneously observed into the ``span_seconds`` histogram
of the metrics registry, which is where the per-op p50/p95/p99 of the
benchmark record comes from.

When observability is disabled (:mod:`repro.obs.config`),
:func:`trace_span` returns a module-level no-op singleton — the disabled
hot path performs one flag check and allocates nothing.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable

from . import config, tracectx
from .registry import REGISTRY, interpolated_percentile


class _NullSpan:
    """Inert stand-in handed out while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **args: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """One active timed region; created by :func:`trace_span`."""

    __slots__ = ("name", "category", "args", "tracer", "start_ns", "duration_ns")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.start_ns = 0
        self.duration_ns = 0

    def set(self, **args: Any) -> None:
        """Attach (or overwrite) event arguments while the span is open."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration_ns = time.perf_counter_ns() - self.start_ns
        self.tracer._pop(self)

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9


class Tracer:
    """Collects finished spans into an in-memory Chrome-trace event list."""

    def __init__(self) -> None:
        self._events: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Dense thread-ident -> track map: masking the raw ident can
        #: alias two live worker threads onto one Perfetto row.
        self._tids: dict[int, int] = {}
        #: Common epoch so every event's ``ts`` shares one monotonic origin.
        self._epoch_ns = time.perf_counter_ns()

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids)
        return tid

    # -- span lifecycle (internal; use trace_span) ---------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": (span.start_ns - self._epoch_ns) / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": 0,
            "tid": self._tid(),
        }
        args = dict(span.args) if span.args else {}
        trace_id = tracectx.current_trace_id()
        if trace_id is not None and "trace_id" not in args:
            args["trace_id"] = trace_id
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)
        REGISTRY.histogram(
            "span_seconds", category=span.category, name=span.name
        ).observe(span.duration_seconds)

    # -- virtual-time events --------------------------------------------------

    #: ``pid`` used for events with caller-supplied (virtual) timestamps,
    #: keeping them on their own process track next to wall-clock spans.
    VIRTUAL_PID = 1

    def emit(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        *,
        tid: int = 0,
        pid: int = VIRTUAL_PID,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record one complete event with explicit timestamps.

        The virtual-time schedulers (:class:`~repro.serve.scheduler
        .SlotBatchScheduler`, :class:`~repro.cluster.serving
        .ClusterService`) live on simulated clocks — there is no wall
        time to span — so they emit each request's queue-wait, batch
        execution and per-stage journey directly, in virtual seconds.
        Events land on ``pid=VIRTUAL_PID`` so Perfetto renders them as a
        separate process track with one row (``tid``) per request or
        stage.
        """
        event: dict[str, Any] = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": start_s * 1e6,
            "dur": duration_s * 1e6,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    # -- inspection / export -------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        """Finished events in ``ts`` order (Chrome-trace dicts)."""
        with self._lock:
            return sorted(self._events, key=lambda e: e["ts"])

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._tids.clear()
        self._epoch_ns = time.perf_counter_ns()

    def chrome_trace(self) -> dict[str, Any]:
        """The full ``chrome://tracing`` / Perfetto JSON object."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path) -> None:
        """Write the trace to ``path`` as Perfetto-loadable JSON."""
        from pathlib import Path

        Path(path).write_text(json.dumps(self.chrome_trace(), indent=1) + "\n")

    def summary(self, category: str | None = None) -> list[dict[str, Any]]:
        """Aggregate finished spans per (category, name).

        Returns rows sorted by total time descending, each with count,
        total/mean/p50/p95 milliseconds — the plain-text counterpart of
        the per-layer latency breakdown of paper Fig. 7.
        """
        groups: dict[tuple[str, str], list[float]] = {}
        for event in self.events():
            if category is not None and event["cat"] != category:
                continue
            groups.setdefault((event["cat"], event["name"]), []).append(
                event["dur"] / 1000.0  # µs -> ms
            )
        rows = []
        for (cat, name), durs in groups.items():
            durs.sort()
            rows.append({
                "category": cat,
                "name": name,
                "count": len(durs),
                "total_ms": sum(durs),
                "mean_ms": sum(durs) / len(durs),
                "p50_ms": interpolated_percentile(durs, 50),
                "p95_ms": interpolated_percentile(durs, 95),
            })
        rows.sort(key=lambda r: -r["total_ms"])
        return rows


#: The process-global tracer all spans record into.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def trace_span(name: str, category: str = "span", **args: Any):
    """Open a timed span (context manager).

    With observability disabled this returns a shared no-op object — no
    allocation, no clock read — so instrumented hot paths cost one flag
    check.
    """
    if not config.enabled():
        return _NULL_SPAN
    return Span(TRACER, name, category, args)


def emit_virtual(
    name: str,
    category: str,
    start_s: float,
    duration_s: float,
    *,
    tid: int = 0,
    args: dict[str, Any] | None = None,
) -> None:
    """Gated module-level form of :meth:`Tracer.emit` (no-op while off)."""
    if not config.enabled():
        return
    TRACER.emit(name, category, start_s, duration_s, tid=tid, args=args)


def traced(name: str | None = None, category: str = "fn") -> Callable:
    """Decorator form of :func:`trace_span` (span per call)."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not config.enabled():
                return fn(*args, **kwargs)
            with trace_span(span_name, category=category):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
