"""Flight recorder: the last N structured events, always at hand.

Metrics answer "how much"; traces answer "how long"; neither answers
"what exactly happened just before this request failed".  The flight
recorder does: a thread-safe, bounded ring buffer of structured events —
admissions, dispatches, expiries, cache hits/misses, DSE incumbents,
pipeline stage handoffs — cheap enough to leave on in production and
small enough to dump whole.

Each event is one JSON-ready dict::

    {"seq": 1042, "ts_s": 12.48, "kind": "dispatch",
     "lanes": 7, "mode": "batched", ...}

``seq`` is a monotone sequence number (gaps reveal ring overwrite),
``ts_s`` is seconds since the recorder's epoch.  :meth:`FlightRecorder
.dump_jsonl` writes the surviving window as JSON Lines;
:func:`dump_on_error` wraps a block so the window is written *before*
the exception propagates — the post-mortem for a failed request.

Recording goes through :func:`repro.obs.probes.record_flight`, which is
gated on the observability master switch like every other probe; the
recorder itself is switch-agnostic so tests and embedders can drive it
directly.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

#: Default ring capacity: enough for a few hundred requests' worth of
#: admission/dispatch/handoff events without holding a serving day hostage.
DEFAULT_CAPACITY = 1024


class FlightRecorder:
    """Bounded ring of structured events; every operation takes the lock."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._epoch = time.monotonic()

    def record(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Append one event; returns the stored dict (already stamped)."""
        now = time.monotonic() - self._epoch
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts_s": now, "kind": kind, **fields}
            self._ring.append(event)
        return event

    def events(
        self,
        kind: str | None = None,
        trace_id: str | None = None,
    ) -> list[dict[str, Any]]:
        """The surviving window, oldest first, optionally filtered.

        ``kind`` selects one event kind; ``trace_id`` selects the events
        of one request's journey — an event matches when its own
        ``trace_id`` field equals it, or its ``trace_ids`` batch list
        contains it (batch dispatches and stage handoffs carry the
        lists).  Both filters compose, so "this request's expiries" is
        one call instead of a ring replay.
        """
        with self._lock:
            window = list(self._ring)
        if kind is not None:
            window = [e for e in window if e["kind"] == kind]
        if trace_id is not None:
            window = [
                e for e in window
                if e.get("trace_id") == trace_id
                or trace_id in e.get("trace_ids", ())
            ]
        return window

    def clear(self) -> None:
        """Drop all events and restart the clock (sequence keeps rising,
        so post-clear events remain distinguishable in merged dumps)."""
        with self._lock:
            self._ring.clear()
            self._epoch = time.monotonic()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (``> len(self)`` once the ring wrapped)."""
        with self._lock:
            return self._seq

    def dump_jsonl(
        self,
        path: str | Path,
        kind: str | None = None,
        trace_id: str | None = None,
    ) -> int:
        """Write the surviving window as JSON Lines; returns event count.

        Takes the same filters as :meth:`events`, so a post-mortem can
        dump just one request's journey or just the alert transitions.
        """
        events = self.events(kind=kind, trace_id=trace_id)
        lines = "".join(
            json.dumps(e, sort_keys=True, default=str) + "\n" for e in events
        )
        Path(path).write_text(lines)
        return len(events)


#: The process-global recorder every probe records into.
FLIGHT = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    return FLIGHT


@contextmanager
def dump_on_error(
    path: str | Path, recorder: FlightRecorder | None = None
) -> Iterator[FlightRecorder]:
    """Dump the flight window to ``path`` if the block raises.

    The dump happens before the exception propagates, so the last N
    events survive even when the caller's process is about to die::

        with dump_on_error("crash_flight.jsonl"):
            model.infer(context, image)
    """
    recorder = FLIGHT if recorder is None else recorder
    try:
        yield recorder
    except BaseException:
        try:
            recorder.record("dump_on_error", path=str(path))
            recorder.dump_jsonl(path)
        except OSError:
            pass  # never shadow the original failure with a dump failure
        raise
