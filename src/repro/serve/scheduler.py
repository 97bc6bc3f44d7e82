"""Virtual-time slot-batch scheduler: one accelerator, simulated.

The single-board executor of the shared serving loop
(:class:`~repro.serve.loop.ServeLoop`, which owns the bounded admission
queue, the key-aware batch window and deadline expiry).  The board is
busy for a whole batch between dispatches, and an under-filled batch
**degrades to LoLa**: if ``k`` serialized single-image runs are cheaper
than one batched run (``k < crossover``), the scheduler runs them
unbatched.

Virtual time makes the policy exactly reproducible — batch latencies come
from the DSE'd designs via :class:`~repro.serve.costmodel
.ServingCostModel`, not from wall clocks — so benches and tests can
assert on precise latency/throughput numbers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Any

from ..obs.alerts import AlertEngine
from ..obs.tracing import emit_virtual, trace_span
from .costmodel import ServingCostModel
from .costs import CostLedger
from .loop import BATCH_TID, ServeLoop
from .records import BatchRecord, ServeReport
from .request import InferenceRequest


@dataclass(frozen=True)
class SchedulerConfig:
    """Serving policy knobs.

    ``batch_window_s`` bounds how long the oldest request may wait for
    lane-mates; ``max_lanes`` caps batch size below the packing capacity
    (``None`` = use all ``N/2`` lanes); ``queue_capacity`` bounds the
    admission queue (backpressure).
    """

    batch_window_s: float = 0.5
    max_lanes: int | None = None
    queue_capacity: int = 10_000

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.max_lanes is not None and self.max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class SlotBatchScheduler:
    """Simulate serving a request stream; see the module docstring."""

    def __init__(
        self,
        cost_model: ServingCostModel,
        config: SchedulerConfig | None = None,
        ledger: CostLedger | None = None,
        alerts: AlertEngine | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.config = config or SchedulerConfig()
        cap = self.cost_model.batch_capacity
        self.capacity = min(self.config.max_lanes or cap, cap)
        #: Optional per-tenant cost attribution (charged at dispatch).
        self.ledger = ledger
        #: Optional alert engine ticked along the virtual clock.
        self.alerts = alerts

    def run(self, requests: list[InferenceRequest]) -> ServeReport:
        with trace_span("serve.run", category="serve",
                        window=self.config.batch_window_s) as span:
            report = ServeLoop(
                requests, self, self.config, self.capacity,
                alerts=self.alerts,
            ).run(cost_model=self.cost_model.as_dict())
            span.set(completed=report.completed,
                     throughput=report.throughput_images_per_s)
        return report

    # -- the executor ---------------------------------------------------------

    def execute(
        self, batch: list[InferenceRequest], at_s: float
    ) -> tuple[str, list[float], float]:
        """The board is busy until the batch finishes; an under-filled
        batch below the cost crossover runs as ``k`` serialized LoLa runs."""
        k = len(batch)
        if self.cost_model.lola_wins(k):
            single = self.cost_model.single_request_seconds()
            finishes = list(accumulate([single] * k, initial=at_s))[1:]
            return "lola", finishes, finishes[-1]
        finish = at_s + self.cost_model.batch_seconds(k)
        return "batched", [finish] * k, finish

    def on_batch(
        self, batch: list[InferenceRequest], record: BatchRecord
    ) -> None:
        if self.ledger is not None:
            # The batch occupies the accelerator dispatch->finish; each
            # lane is charged its exact share.
            self.ledger.note_batch(
                [r.key_group for r in batch], record.duration_s
            )
        emit_virtual(
            f"batch {record.batch_id} [{record.mode}]", "serve.batch",
            record.start_s, record.duration_s, tid=BATCH_TID,
            args={
                "batch_id": record.batch_id, "lanes": record.lanes,
                "mode": record.mode, "key_group": record.key_group,
                "trace_ids": [r.trace_ref for r in batch[:64]],
            },
        )
