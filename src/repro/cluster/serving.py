"""Cluster serving: slot batches routed through a pipelined fleet.

:class:`~repro.serve.scheduler.SlotBatchScheduler` models one board that
is busy for a whole batch latency between dispatches.  A pipelined fleet
is different in exactly one way that matters for throughput: it admits a
*new* batch every bottleneck interval while earlier batches are still in
flight downstream, so

* batch **admission cadence** = ``plan.bottleneck_seconds``;
* batch **completion** = admission + ``plan.fill_latency_seconds``.

:class:`ClusterService` is the pipeline executor of the shared
:class:`~repro.serve.loop.ServeLoop`: the same admission queue, key-aware
batch window and deadline semantics as the single-board scheduler,
producing the same :class:`~repro.serve.records.ServeReport` (outcome
``"cluster"``).  There is no LoLa degradation here — an under-filled
batch still rides the pipeline; degrading would require a second,
latency-oriented deployment next to the fleet.

Every dispatched batch publishes cluster probes: per-stage occupancy,
transfer bytes on every link, and end-to-end batch latency.
"""

from __future__ import annotations

from typing import Any

from ..hecnn.batched import cryptonets_mnist_batched, max_batch_lanes
from ..obs.alerts import AlertEngine
from ..obs.probes import (
    record_cluster_batch,
    record_cluster_stage,
    record_cluster_transfer,
    record_flight,
)
from ..obs.tracing import emit_virtual, trace_span
from ..serve.costs import CostLedger
from ..serve.loop import BATCH_TID, ServeLoop
from ..serve.records import BatchRecord, ServeReport
from ..serve.request import InferenceRequest
from ..serve.scheduler import SchedulerConfig
from .dse import FleetPlanner
from .fleet import Fleet
from .plan import ClusterPlan


class ClusterService:
    """Virtual-time slot-batch router over a cluster plan."""

    def __init__(
        self,
        plan: ClusterPlan,
        batch_capacity: int,
        config: SchedulerConfig | None = None,
        ledger: CostLedger | None = None,
        alerts: AlertEngine | None = None,
    ) -> None:
        if batch_capacity < 1:
            raise ValueError("batch_capacity must be >= 1")
        self.plan = plan
        self.config = config or SchedulerConfig()
        self.capacity = min(
            self.config.max_lanes or batch_capacity, batch_capacity
        )
        #: Optional per-tenant cost attribution (charged at dispatch;
        #: fleet energy settled when the run drains).
        self.ledger = ledger
        #: Optional alert engine ticked along the virtual clock.
        self.alerts = alerts

    @classmethod
    def cryptonets_mnist(
        cls,
        fleet: Fleet,
        poly_degree: int = 8192,
        planner: FleetPlanner | None = None,
        config: SchedulerConfig | None = None,
        method: str = "dp",
    ) -> "ClusterService":
        """The benchmark deployment: the slot-batched CryptoNets-MNIST
        trace pipelined across ``fleet``, ``N/2`` lanes per batch."""
        planner = planner if planner is not None else FleetPlanner()
        trace = cryptonets_mnist_batched(poly_degree)
        plan = planner.plan(trace, fleet, method=method)
        return cls(
            plan, batch_capacity=max_batch_lanes(poly_degree), config=config
        )

    # -- the router -----------------------------------------------------------

    def run(self, requests: list[InferenceRequest]) -> ServeReport:
        with trace_span(
            "cluster.serve", category="cluster",
            fleet=self.plan.fleet.name, window=self.config.batch_window_s,
        ) as span:
            report = ServeLoop(
                requests, self, self.config, self.capacity,
                queue="cluster", alerts=self.alerts,
            ).run(cluster=self._plan_summary())
            span.set(completed=report.completed,
                     throughput=report.throughput_images_per_s)
        return report

    # -- the executor ---------------------------------------------------------

    def execute(
        self, batch: list[InferenceRequest], at_s: float
    ) -> tuple[str, list[float], float]:
        """The pipeline frees an admission slot one bottleneck interval
        after a dispatch, while the batch is still in flight downstream."""
        finish = at_s + self.plan.fill_latency_seconds
        next_at = at_s + self.plan.bottleneck_seconds
        return "cluster", [finish] * len(batch), next_at

    def on_batch(
        self, batch: list[InferenceRequest], record: BatchRecord
    ) -> None:
        record_cluster_batch(record.lanes, self.plan.fill_latency_seconds)
        self._charge_batch(batch)
        self._emit_batch_journey(batch, record.batch_id, record.start_s)
        self._publish_stages()

    # -- cost attribution -----------------------------------------------------

    def _charge_batch(self, batch: list[InferenceRequest]) -> None:
        """Charge one dispatched batch to the cost ledger.

        Slot time is the batch's total accelerator occupancy across the
        pipeline (sum of stage compute, not wall latency — stages serve
        other batches concurrently); wire bytes are the partitioner's
        serialized ciphertext bytes, charged both per-lane (tenant view)
        and per-stage (topology view), and energy is the plan's
        per-inference joules per lane.  Both views of the wire bytes
        must reconcile, which :meth:`CostReport.reconciliation` checks.
        """
        if self.ledger is None:
            return
        compute_s = sum(s.compute_seconds for s in self.plan.stages)
        self.ledger.note_batch(
            [r.key_group for r in batch], compute_s,
            wire_bytes=self.plan.total_transfer_bytes,
        )
        for stage in self.plan.stages:
            if stage.transfer_bytes:
                self.ledger.note_stage_wire(
                    f"stage{stage.index}:{stage.device.name}",
                    stage.transfer_bytes,
                )
        self.ledger.settle(
            energy_joules=len(batch) * self.plan.energy_per_inference_joules
        )

    # -- probes / reporting ---------------------------------------------------

    #: Virtual-trace track base for pipeline stages, far above any
    #: realistic request track (``tid = request_id + 1``).
    STAGE_TID_BASE = 10_000_000

    def _emit_batch_journey(
        self,
        batch: list[InferenceRequest],
        batch_id: int,
        dispatch_at: float,
    ) -> None:
        """One batch's walk down the pipeline, as virtual trace events.

        Emits the batch envelope plus, per stage, an ``execute`` event on
        the stage's own track and a ``transfer`` event for its outgoing
        link — every event tagged with the batch's trace IDs, so a single
        request filters to one connected queue → batch → stage-by-stage →
        response flame.  Stage handoffs also land in the flight recorder.
        """
        trace_ids = [r.trace_ref for r in batch[:64]]
        shared = {"batch_id": batch_id, "lanes": len(batch),
                  "trace_ids": trace_ids}
        emit_virtual(
            f"batch {batch_id} [cluster]", "cluster.batch", dispatch_at,
            self.plan.fill_latency_seconds, tid=BATCH_TID, args=shared,
        )
        at = dispatch_at
        for stage in self.plan.stages:
            tid = self.STAGE_TID_BASE + stage.index
            emit_virtual(
                f"stage{stage.index} {stage.device.name}",
                "cluster.stage", at, stage.compute_seconds, tid=tid,
                args={**shared, "stage": stage.index,
                      "device": stage.device.name,
                      "layers": list(stage.layer_names)},
            )
            at += stage.compute_seconds
            record_flight(
                "stage_handoff", batch_id=batch_id, stage=stage.index,
                device=stage.device.name, at_s=at, trace_ids=trace_ids,
            )
            if stage.transfer_seconds > 0:
                emit_virtual(
                    f"transfer{stage.index}", "cluster.transfer", at,
                    stage.transfer_seconds, tid=tid,
                    args={**shared, "stage": stage.index,
                          "bytes": stage.transfer_bytes},
                )
                at += stage.transfer_seconds

    def _publish_stages(self) -> None:
        for stage, util in zip(self.plan.stages, self.plan.utilization()):
            record_cluster_stage(
                stage.index, stage.device.name,
                busy_seconds=stage.compute_seconds, utilization=util,
            )
            if stage.transfer_bytes:
                record_cluster_transfer(
                    stage.index, stage.transfer_bytes, stage.transfer_seconds
                )

    def _plan_summary(self) -> dict[str, Any]:
        return {
            "network": self.plan.network,
            "fleet": self.plan.fleet.name,
            "stages": len(self.plan.stages),
            "bottleneck_seconds": self.plan.bottleneck_seconds,
            "fill_latency_seconds": self.plan.fill_latency_seconds,
            "total_transfer_bytes": self.plan.total_transfer_bytes,
        }
