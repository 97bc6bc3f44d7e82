"""The virtual-time serving loop every simulated deployment shares.

One discrete-event core replays a request stream under the slot-batching
policy.  Deployments differ only in how a dispatched batch runs, which an
:class:`Executor` supplies:

* :class:`~repro.serve.scheduler.SlotBatchScheduler` — one board, busy
  for ``batch_seconds(k)`` (or ``k`` serialized single-image runs under
  the LoLa fallback) before it can take the next batch;
* :class:`~repro.cluster.serving.ClusterService` — a pipelined fleet that
  admits a batch every bottleneck interval and finishes it one fill
  latency after admission;
* :class:`~repro.serve.autoscale.FleetAutoscaler` — that pipeline, with
  its plan swapped by a :class:`ControlPlane` at control ticks.

The core owns everything else, each in one place:

* the arrival-sorted pending stream and the **bounded admission queue**
  (a full queue rejects, with a ``reject`` flight event);
* the **key-aware batch choice** (:func:`full_group_head`): a batch only
  carries one tenant key group, because the lanes of one ciphertext all
  decrypt under one key.  A group dispatches once it fills a batch; a
  rare group's partial batch goes when its oldest request's window
  closes, rather than stranding behind hot keys.  ``key_group=None`` is
  the single-key universe, for which the choice is plain
  window-or-full FIFO;
* **deadline expiry** at dispatch, so an expired request never takes a
  lane;
* :class:`~repro.serve.records.RequestResult` / ``BatchRecord``
  construction, both carrying ``key_group``;
* queue-depth, outcome and latency probes and each request's journey
  (``queue_wait`` then ``response`` on track ``request_id + 1``);
* time-series and alert ticks — at every admission step and batch
  completion, unless a control plane owns the clock — and the
  end-of-run flush.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Protocol

from ..obs.alerts import AlertEngine
from ..obs.config import enabled as obs_enabled
from ..obs.probes import (
    record_batch_dispatch,
    record_flight,
    record_queue_depth,
    record_request_latency,
    record_request_outcome,
    record_throughput,
    record_timeseries_flush,
    record_timeseries_tick,
)
from ..obs.tracing import emit_virtual
from .records import BatchRecord, RequestResult, ServeReport
from .request import InferenceRequest

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import SchedulerConfig

#: Virtual-trace track for batch events; request journeys ride on
#: ``tid = request_id + 1`` (track 0 is the batch lane).
BATCH_TID = 0


def full_group_head(
    groups: Iterable[str | None],
    counts: Mapping[str | None, int],
    capacity: int,
) -> int | None:
    """Position of the oldest member of the first key group that fills a
    batch, or ``None`` when no group does.

    ``groups`` are the queued requests' key groups, oldest first, and
    ``counts`` how many of each are queued.  The FIFO scan keeps the
    choice deterministic: among groups that can dispatch full right now,
    the one that has waited longest goes first.  Returning a position
    (not the group) keeps ``key_group=None`` — the valid single-key
    group — distinguishable from "no group is full".
    """
    if all(n < capacity for n in counts.values()):
        return None
    for position, group in enumerate(groups):
        if counts[group] >= capacity:
            return position
    return None


class Executor(Protocol):
    """How a dispatched batch runs; the loop does the rest."""

    def execute(
        self, batch: list[InferenceRequest], at_s: float
    ) -> tuple[str, list[float], float]:
        """``(mode, each request's finish time, when the next batch may
        dispatch)`` for ``batch`` dispatched at ``at_s``."""

    def on_batch(
        self, batch: list[InferenceRequest], record: BatchRecord
    ) -> None:
        """Cost charges, executor probes and trace events of a batch."""


class ControlPlane(Protocol):
    """Owns the loop's clock (its control ticks sample telemetry)."""

    def advance(self, loop: ServeLoop, t: float) -> bool:
        """Fire every event due by ``t``, before the loop admits up to
        ``t``; True when the executor changed and the dispatch must be
        re-chosen."""

    def drain(self, loop: ServeLoop) -> float:
        """Run past the last dispatch; return the run's end time."""


class ServeLoop:
    """One replay of ``requests`` through ``executor``; see the module
    docstring.  Build one per run, then call :meth:`run`."""

    def __init__(
        self,
        requests: list[InferenceRequest],
        executor: Executor,
        config: SchedulerConfig,
        capacity: int,
        *,
        queue: str = "serve",
        alerts: AlertEngine | None = None,
        control: ControlPlane | None = None,
    ) -> None:
        self.pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        self.executor = executor
        self.config = config
        self.capacity = capacity
        #: Label of the queue in probes and flight events.
        self.label = queue
        self.alerts = alerts
        self.control = control
        self.queue: list[InferenceRequest] = []
        #: Queued requests per key group.
        self.counts: dict[str | None, int] = {}
        self.results: list[RequestResult] = []
        self.batches: list[BatchRecord] = []
        #: ``(terminal time, seq, result)`` heap, kept for a control
        #: plane to read causally (see :meth:`terminals_until`).
        self.terminals: list[tuple[float, int, RequestResult]] = []
        self.end_s = 0.0
        self._next = 0  # index of the first pending request not admitted
        self._free_at = 0.0  # when the executor takes the next batch

    # -- the clock --------------------------------------------------------

    def tick(self, now_s: float) -> None:
        """Sample the time-series store and evaluate alert rules."""
        record_timeseries_tick(now_s)
        if self.alerts is not None:
            self.alerts.tick(now_s)

    def _advance(self, t: float) -> bool:
        self.end_s = max(self.end_s, t)
        if self.control is not None:
            return self.control.advance(self, t)
        self.tick(t)
        return False

    def terminals_until(self, t: float) -> Iterator[RequestResult]:
        """Pop, in terminal-time order, every result final by ``t``."""
        while self.terminals and self.terminals[0][0] <= t:
            yield heapq.heappop(self.terminals)[2]

    # -- the queue --------------------------------------------------------

    def _terminal(self, result: RequestResult, at_s: float) -> None:
        if self.control is not None:
            heapq.heappush(
                self.terminals, (at_s, len(self.results), result)
            )
        self.results.append(result)

    def admit(self, t: float) -> None:
        """Admit every pending arrival up to ``t``; a full queue rejects."""
        pending, queue, label = self.pending, self.queue, self.label
        observed = obs_enabled()
        while self._next < len(pending) and pending[self._next].arrival_s <= t:
            req = pending[self._next]
            self._next += 1
            group = req.key_group
            rejected = len(queue) >= self.config.queue_capacity
            if rejected:
                self._terminal(RequestResult(
                    request_id=req.request_id, outcome="rejected",
                    arrival_s=req.arrival_s, key_group=group,
                ), req.arrival_s)
            else:
                queue.append(req)
                self.counts[group] = self.counts.get(group, 0) + 1
            if observed:
                if rejected:
                    record_request_outcome(
                        "rejected", request_id=req.request_id,
                        trace_id=req.trace_ref, queue=label,
                    )
                # "reject" mirrors "admit", so dump-on-error windows show
                # backpressure, not just acceptances.
                record_flight(
                    "reject" if rejected else "admit",
                    request_id=req.request_id, trace_id=req.trace_ref,
                    queue=label, depth=len(queue), key_group=group,
                )
                record_queue_depth(len(queue), queue=label)

    def _expire(self, at_s: float) -> None:
        """Deadline check at dispatch: a request that would start past
        its deadline expires instead of occupying a lane."""
        alive: list[InferenceRequest] = []
        for req in self.queue:
            if not req.expired(at_s):
                alive.append(req)
                continue
            self.counts[req.key_group] -= 1
            self._terminal(RequestResult(
                request_id=req.request_id, outcome="expired",
                arrival_s=req.arrival_s, key_group=req.key_group,
            ), at_s)
            record_request_outcome(
                "expired", request_id=req.request_id,
                trace_id=req.trace_ref, queue=self.label,
            )
            emit_virtual(
                "expired", "request", req.arrival_s, at_s - req.arrival_s,
                tid=req.request_id + 1,
                args={"trace_id": req.trace_ref, "request_id": req.request_id},
            )
        self.queue = alive
        record_queue_depth(len(alive), queue=self.label)

    def _take(self, group: str | None) -> list[InferenceRequest]:
        """Dequeue up to ``capacity`` of ``group``'s requests, oldest
        first — lanes of one ciphertext all decrypt under one key."""
        queue, cap = self.queue, self.capacity
        queued = self.counts.get(group, 0)
        if queued == len(queue):
            batch, self.queue = queue[:cap], queue[cap:]
        else:
            batch, rest = [], []
            for req in queue:
                if req.key_group == group and len(batch) < cap:
                    batch.append(req)
                else:
                    rest.append(req)
            self.queue = rest
        self.counts[group] = queued - len(batch)
        return batch

    def _fill_time(self, group: str | None, start: int) -> float:
        """Arrival of the ``capacity``-th queued member of ``group``, whose
        oldest member sits at queue position ``start``."""
        arrivals = (
            r.arrival_s for r in islice(self.queue, start, None)
            if r.key_group == group
        )
        return next(islice(arrivals, self.capacity - 1, None))

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, batch: list[InferenceRequest], at_s: float) -> None:
        mode, finishes, self._free_at = self.executor.execute(batch, at_s)
        batch_id = len(self.batches)
        group = batch[0].key_group
        for req, finish in zip(batch, finishes):
            self._terminal(RequestResult(
                request_id=req.request_id, outcome=mode,
                arrival_s=req.arrival_s, start_s=at_s, finish_s=finish,
                batch_id=batch_id, key_group=req.key_group,
            ), finish)
        if obs_enabled():
            for req, finish in zip(batch, finishes):
                latency = finish - req.arrival_s
                record_request_outcome(mode)
                record_request_latency(latency, mode)
                journey = {"trace_id": req.trace_ref,
                           "request_id": req.request_id, "batch_id": batch_id}
                emit_virtual("queue_wait", "request", req.arrival_s,
                             at_s - req.arrival_s, tid=req.request_id + 1,
                             args=journey)
                emit_virtual("response", "request", finish, 0.0,
                             tid=req.request_id + 1,
                             args={**journey, "mode": mode,
                                   "latency_s": latency})
        done = finishes[-1]
        record = BatchRecord(
            batch_id=batch_id, mode=mode, lanes=len(batch),
            capacity=self.capacity, start_s=at_s, finish_s=done,
            key_group=group,
        )
        self.batches.append(record)
        record_batch_dispatch(len(batch), self.capacity, mode)
        self.executor.on_batch(batch, record)
        self.end_s = max(self.end_s, done)
        if self.control is None:
            self.tick(done)

    def run(self, **config: Any) -> ServeReport:
        """Serve every request; ``config`` extends the report's config."""
        pending, window = self.pending, self.config.batch_window_s
        while self._next < len(pending) or self.queue:
            arrival = (pending[self._next].arrival_s
                       if self._next < len(pending) else float("inf"))
            head = None
            if self.queue:
                position = full_group_head(
                    (r.key_group for r in self.queue), self.counts,
                    self.capacity,
                )
                if position is not None:
                    # A full group dispatches once its capacity-th member
                    # has arrived, so no lane starts before its request.
                    head = self.queue[position]
                    filled_at = self._fill_time(head.key_group, position)
                    dispatch_at = max(self._free_at, filled_at)
                elif arrival > self.queue[0].arrival_s + window:
                    # No key group fills a batch, and the oldest request's
                    # window closes before the next arrival: its group
                    # goes partial rather than stranding.
                    head = self.queue[0]
                    dispatch_at = max(self._free_at, head.arrival_s + window)
            if head is None:  # nothing due before the next arrival
                if not self._advance(arrival):
                    self.admit(arrival)
                continue
            # Arrivals while the executor is busy still make this batch.
            if self._advance(dispatch_at):
                continue  # the executor changed: re-choose the dispatch
            self.admit(dispatch_at)
            self._expire(dispatch_at)
            batch = self._take(head.key_group)
            if batch:  # else the whole group expired; re-pick
                record_queue_depth(len(self.queue), queue=self.label)
                self._dispatch(batch, dispatch_at)

        if self.control is not None:
            self.end_s = self.control.drain(self)
        # Terminal events land after the last cadence tick: force a final
        # sample and give the alert rules one last evaluation.
        record_timeseries_flush(self.end_s)
        if self.alerts is not None:
            self.alerts.tick(self.end_s)
        self.results.sort(key=lambda r: r.request_id)
        report = ServeReport(
            results=tuple(self.results),
            batches=tuple(self.batches),
            config={
                **self.config.as_dict(), "capacity": self.capacity, **config,
            },
        )
        record_throughput(report.throughput_images_per_s)
        return report
