"""The slot-batching policy on real threads.

Where :mod:`repro.serve.scheduler` *simulates* the policy in virtual time,
:class:`InferenceService` runs it live: callers ``submit()`` payloads and
get ``concurrent.futures.Future`` handles; a dispatcher thread coalesces
the bounded admission queue into slot batches (full batch, or batch
window expired); a worker pool executes batches through a pluggable
executor — a modeled sleep, or a real CKKS inference against a cached,
pre-provisioned context.

Guarantees:

* **backpressure** — a full admission queue makes ``submit`` raise
  :class:`BackpressureError` instead of buffering unboundedly;
* **deadlines** — a request still queued past its deadline gets
  ``TimeoutError`` set on its future and never occupies a lane;
* **degradation** — batches smaller than the cost crossover run in
  unbatched LoLa mode (the executor is told which mode to use);
* **clean shutdown** — ``close()`` drains the queue, runs the final
  partial batch, and joins all threads; late submits raise
  :class:`ServiceClosed`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from ..obs.flight import FLIGHT
from ..obs.probes import (
    record_batch_dispatch,
    record_flight,
    record_queue_depth,
    record_request_latency,
    record_request_outcome,
)
from ..obs.tracectx import new_trace_id, trace_context
from ..obs.tracing import trace_span
from .costmodel import ServingCostModel
from .loop import full_group_head
from .records import BatchRecord, RequestResult, ServeReport
from .request import InferenceRequest
from .slo import SloMonitor

#: Executes one dispatched batch: receives the requests and the chosen
#: mode ("batched" | "lola"), returns one result per request, in order.
BatchExecutor = Callable[[list[InferenceRequest], str], list[Any]]


class ServiceClosed(RuntimeError):
    """Raised by ``submit`` after ``close()``."""


class BackpressureError(RuntimeError):
    """Raised by ``submit`` when the admission queue is full."""


class _Entry:
    __slots__ = ("request", "future")

    def __init__(self, request: InferenceRequest, future: Future) -> None:
        self.request = request
        self.future = future


class InferenceService:
    """Threaded slot-batching frontend around a batch executor."""

    def __init__(
        self,
        executor: BatchExecutor,
        capacity: int,
        batch_window_s: float = 0.05,
        queue_capacity: int = 256,
        workers: int = 1,
        cost_model: ServingCostModel | None = None,
        degrade_to_lola: bool = True,
        slo_monitor: SloMonitor | None = None,
        flight_dump_path: Any = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.executor = executor
        self.capacity = capacity
        self.batch_window_s = batch_window_s
        self.queue_capacity = queue_capacity
        self.degrade_to_lola = degrade_to_lola
        #: Optional SLO monitor fed with every terminal request; read it
        #: back with :meth:`slo_status`.
        self.slo_monitor = slo_monitor
        #: When set, a failed batch dumps the flight-recorder window here
        #: (JSONL) before the exception is set on the futures.
        self.flight_dump_path = flight_dump_path
        self._crossover = 1
        if degrade_to_lola and cost_model is not None:
            self._crossover = min(cost_model.crossover_lanes(), capacity)
        self._cond = threading.Condition()
        self._queue: list[_Entry] = []
        self._closed = False
        self._next_id = 0
        self._start = time.monotonic()
        self._results: list[RequestResult] = []
        self._batches: list[BatchRecord] = []
        self._record_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-worker"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- client API -----------------------------------------------------------

    def submit(
        self,
        payload: Any = None,
        deadline_s: float | None = None,
        trace_id: str | None = None,
        key_group: str | None = None,
    ) -> Future:
        """Enqueue one request; ``deadline_s`` is relative to now.

        ``trace_id`` names the request's end-to-end trace (a fresh ID is
        minted when omitted); spans the workers open while executing the
        batch carry it, so the exported trace connects this request's
        queue wait and execution across threads.  ``key_group`` names the
        tenant key universe the payload is encrypted under (see
        :mod:`repro.serve.tenants`); the dispatcher only batches
        same-key-group requests together.
        """
        now = self._now()
        trace_id = trace_id if trace_id is not None else new_trace_id()
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is closed")
            if len(self._queue) >= self.queue_capacity:
                self._record(RequestResult(
                    request_id=self._next_id, outcome="rejected",
                    arrival_s=now, key_group=key_group,
                ))
                self._next_id += 1
                record_request_outcome(
                    "rejected", request_id=self._next_id - 1,
                    trace_id=trace_id, queue="service",
                )
                # Backpressure must be visible in dump-on-error windows:
                # mirror the "admit" flight event for the shed request.
                record_flight(
                    "reject", request_id=self._next_id - 1,
                    trace_id=trace_id, queue="service",
                    depth=len(self._queue), key_group=key_group,
                )
                self._observe_slo("rejected")
                raise BackpressureError(
                    f"admission queue full ({self.queue_capacity})"
                )
            request = InferenceRequest(
                request_id=self._next_id,
                arrival_s=now,
                deadline_s=None if deadline_s is None else now + deadline_s,
                payload=payload,
                trace_id=trace_id,
                key_group=key_group,
            )
            self._next_id += 1
            future: Future = Future()
            self._queue.append(_Entry(request, future))
            record_queue_depth(len(self._queue))
            record_flight(
                "admit", request_id=request.request_id, trace_id=trace_id,
                queue="service", depth=len(self._queue),
                key_group=key_group,
            )
            self._cond.notify_all()
        return future

    def close(self, drain: bool = True) -> None:
        """Stop accepting work; optionally run what is already queued."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for entry in self._queue:
                    entry.future.cancel()
                    self._record(RequestResult(
                        request_id=entry.request.request_id,
                        outcome="rejected",
                        arrival_s=entry.request.arrival_s,
                        key_group=entry.request.key_group,
                    ))
                self._queue.clear()
            self._cond.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def report(self) -> ServeReport:
        """Everything served so far, as the simulator would report it."""
        with self._record_lock:
            results = tuple(sorted(
                self._results, key=lambda r: r.request_id
            ))
            batches = tuple(self._batches)
        return ServeReport(
            results=results,
            batches=batches,
            config={
                "batch_window_s": self.batch_window_s,
                "max_lanes": self.capacity,
                "queue_capacity": self.queue_capacity,
                "degrade_to_lola": self.degrade_to_lola,
                "capacity": self.capacity,
            },
        )

    # -- internals ------------------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._start

    def _record(self, result: RequestResult) -> None:
        with self._record_lock:
            self._results.append(result)

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            if batch:
                self._pool.submit(self._run_batch, batch)

    def _collect_batch(self) -> list[_Entry] | None:
        """Block until a batch is due; None means shut down."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            # Wait for key-mates until a group fills a batch or the oldest
            # request's window closes (rare keys age out rather than
            # stranding behind hot ones).
            chosen: _Entry | None = None
            while True:
                if self._closed:
                    chosen = self._queue[0] if self._queue else None
                    break
                groups = [e.request.key_group for e in self._queue]
                head = full_group_head(groups, Counter(groups), self.capacity)
                if head is not None:
                    chosen = self._queue[head]
                    break
                oldest = self._queue[0].request
                remaining = (
                    oldest.arrival_s + self.batch_window_s - self._now()
                )
                if remaining <= 0:
                    chosen = self._queue[0]
                    break
                self._cond.wait(timeout=remaining)
                if not self._queue:
                    # Everything expired or was drained elsewhere.
                    return self._collect_batch_restart()
            group = chosen.request.key_group if chosen is not None else None
            now = self._now()
            batch: list[_Entry] = []
            keep: list[_Entry] = []
            for entry in self._queue:
                if entry.request.expired(now):
                    entry.future.set_exception(TimeoutError(
                        f"request {entry.request.request_id} expired "
                        f"before dispatch"
                    ))
                    self._record(RequestResult(
                        request_id=entry.request.request_id,
                        outcome="expired",
                        arrival_s=entry.request.arrival_s,
                        key_group=entry.request.key_group,
                    ))
                    record_request_outcome(
                        "expired", request_id=entry.request.request_id,
                        trace_id=entry.request.trace_ref, queue="service",
                    )
                    self._observe_slo("expired")
                elif (entry.request.key_group == group
                      and len(batch) < self.capacity):
                    batch.append(entry)
                else:
                    keep.append(entry)
            self._queue = keep
            record_queue_depth(len(self._queue))
            # An all-expired group returns an empty batch; the dispatch
            # loop re-enters immediately and picks the next group.
            return batch

    def _collect_batch_restart(self) -> list[_Entry] | None:
        # Re-enter without holding the lock twice (cond is re-entrant for
        # the same acquisition, but recursion keeps the state machine flat).
        return []

    def _run_batch(self, batch: list[_Entry]) -> None:
        k = len(batch)
        mode = "lola" if k < self._crossover else "batched"
        start = self._now()
        record_batch_dispatch(k, self.capacity, mode)
        requests = [entry.request for entry in batch]
        trace_ids = [r.trace_ref for r in requests[:64]]
        key_group = requests[0].key_group
        try:
            # The batch's lead trace context covers the worker-thread
            # span, so every event it produces is tagged and filterable.
            with trace_context(requests[0].trace_ref), trace_span(
                "serve.batch_execute", category="serve",
                lanes=k, mode=mode, trace_ids=trace_ids,
            ):
                outputs = self.executor(requests, mode)
            if len(outputs) != k:
                raise RuntimeError(
                    f"executor returned {len(outputs)} results for "
                    f"{k} requests"
                )
        except Exception as exc:
            finish = self._now()
            record_flight(
                "batch_error", lanes=k, mode=mode, error=repr(exc),
                trace_ids=trace_ids,
            )
            if self.flight_dump_path is not None:
                try:
                    FLIGHT.dump_jsonl(self.flight_dump_path)
                except OSError:
                    pass  # post-mortem must not mask the batch failure
            for entry in batch:
                entry.future.set_exception(exc)
                self._record(RequestResult(
                    request_id=entry.request.request_id, outcome="expired",
                    arrival_s=entry.request.arrival_s,
                    key_group=entry.request.key_group,
                ))
                record_request_outcome(
                    "expired", request_id=entry.request.request_id,
                    trace_id=entry.request.trace_ref, queue="service",
                )
                self._observe_slo("expired")
            return
        finish = self._now()
        with self._record_lock:
            batch_id = len(self._batches)
            self._batches.append(BatchRecord(
                batch_id=batch_id, mode=mode, lanes=k,
                capacity=self.capacity, start_s=start, finish_s=finish,
                key_group=key_group,
            ))
        for entry, output in zip(batch, outputs):
            self._record(RequestResult(
                request_id=entry.request.request_id, outcome=mode,
                arrival_s=entry.request.arrival_s, start_s=start,
                finish_s=finish, batch_id=batch_id,
                key_group=entry.request.key_group,
            ))
            record_request_outcome(mode)
            latency = finish - entry.request.arrival_s
            record_request_latency(latency, mode)
            self._observe_slo(mode, latency)
            entry.future.set_result(output)

    def _observe_slo(
        self, outcome: str, latency_s: float | None = None
    ) -> None:
        if self.slo_monitor is not None:
            self.slo_monitor.observe(outcome, latency_s)

    def slo_status(self):
        """Evaluate the attached SLO monitor (``None`` when unattached)."""
        if self.slo_monitor is None:
            return None
        return self.slo_monitor.evaluate()
