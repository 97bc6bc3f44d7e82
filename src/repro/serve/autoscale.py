"""SLO-driven elastic fleet autoscaling in virtual time.

A :class:`FleetAutoscaler` replays a request stream through the shared
serving loop (:mod:`repro.serve.loop`) on a pipelined fleet, exactly like
:class:`~repro.cluster.serving.ClusterService`, but its control plane
owns the loop's clock: every ``evaluate_every_s`` of virtual time it runs
a **control tick**:

1. feed the sliding-window :class:`~repro.serve.slo.SloMonitor` every
   terminal request that has *finished by the tick* (causality: the
   controller never sees the future);
2. evaluate the SLOs and read the admission-queue depth;
3. decide — **scale up** when the breach streak clears the hysteresis
   bar (``scale_up_after`` consecutive breached ticks) and the cooldown
   has expired; **scale down** when the idle streak clears its own bar;
   otherwise hold.  A decision the cooldown vetoes is recorded as a
   ``flap_suppressed`` flight event — the post-mortem shows what the
   controller *wanted* to do.

Scale-up is charged a modeled **spin-up cost** before the grown fleet
takes effect: base node provisioning plus key generation plus
design-cache warm-up, each component waived when the corresponding cache
is already hot (:class:`SpinUpCostModel` probes the actual caches, so a
warm scale-up charges exactly zero keygen/DSE seconds).  The old fleet
keeps serving while the new node warms.
Scale-down takes effect immediately for new dispatches, but the retiring
node is **billed until its in-flight work drains** (drain-before-retire).
Every resize re-partitions the pipeline through the existing DP
partitioner via the shared :class:`~repro.cluster.dse.FleetPlanner`
design cache — warm replans scan zero DSE points.

Every decision lands in three places: the flight recorder
(``scale_up`` / ``scale_down`` / ``flap_suppressed``), the registry
(``autoscale_decisions_total``, the ``fleet_size`` gauge) and the
virtual-time Perfetto trace (spin-up and drain spans on the autoscaler's
own track).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.dse import FleetPlanner
    from ..cluster.fleet import Link
    from ..cluster.serving import ClusterService

from ..caching import LruCache
from ..fpga.device import FpgaDevice
from ..hecnn.batched import cryptonets_mnist_batched, max_batch_lanes
from ..obs.alerts import AlertEngine
from ..obs.probes import (
    record_autoscale_decision,
    record_fleet_size,
    record_flight,
    record_spin_up_cost,
)
from ..obs.registry import interpolated_percentile
from ..obs.tracing import emit_virtual, trace_span
from .costs import CostLedger
from .loop import ServeLoop
from .records import BatchRecord, ServeReport
from .request import InferenceRequest
from .scheduler import SchedulerConfig
from .slo import Slo, SloMonitor

#: Virtual-trace track for autoscaler spans (spin-up, drain) — far above
#: the request tracks (``request_id + 1``) and the cluster stage tracks.
AUTOSCALE_TID = 20_000_000


@dataclass(frozen=True)
class AutoscalerConfig:
    """Policy knobs of the control loop.

    Hysteresis is two-sided: a scale-up needs ``scale_up_after``
    *consecutive* breached ticks, a scale-down ``scale_down_after``
    consecutive idle ones, and any resize starts a ``cooldown_s``
    refractory period during which further resizes are suppressed (and
    recorded as ``flap_suppressed``).  ``queue_high`` is the fast path:
    admission-queue depth reacts to a flash crowd within a tick or two,
    long before the first overlong latencies complete and reach the
    sliding SLO window.
    """

    min_nodes: int = 1
    max_nodes: int = 3
    #: Control-tick interval in virtual seconds.
    evaluate_every_s: float = 2.0
    #: Refractory period after any resize.
    cooldown_s: float = 20.0
    #: Consecutive breached ticks before a scale-up.
    scale_up_after: int = 2
    #: Consecutive idle ticks before a scale-down.
    scale_down_after: int = 5
    #: Queue depth above which a tick counts as breached.
    queue_high: int = 250
    #: Queue depth at or below which a tick may count as idle.
    queue_low: int = 60
    #: Scale-down additionally requires p99 <= slack * threshold, so the
    #: fleet never shrinks into a marginal latency budget.
    p99_slack: float = 0.95
    #: Nodes added/removed per decision.
    step: int = 1

    def __post_init__(self) -> None:
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if self.evaluate_every_s <= 0 or self.cooldown_s < 0:
            raise ValueError("evaluate_every_s must be > 0, cooldown_s >= 0")
        if self.scale_up_after < 1 or self.scale_down_after < 1:
            raise ValueError("hysteresis streaks must be >= 1")
        if self.queue_low < 0 or self.queue_high < self.queue_low:
            raise ValueError("need 0 <= queue_low <= queue_high")
        if not 0 < self.p99_slack <= 1:
            raise ValueError("p99_slack must be in (0, 1]")
        if self.step < 1:
            raise ValueError("step must be >= 1")

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SpinUpCostModel:
    """Virtual seconds to bring one node from rack to serving.

    Three additive components: base provisioning (always paid), CKKS key
    generation (waived when the context cache already holds the
    deployment's key material) and design-cache warm-up (waived when the
    planner's design cache already holds the network's designs — e.g.
    after the capacity planner pre-warmed the deployment, or any earlier
    scale-up).
    """

    #: Base provisioning: bitstream load, link bring-up.
    node_warm_s: float = 0.5
    #: Key generation + weight provisioning on a cold context cache.
    keygen_s: float = 30.0
    #: Design-space exploration on a cold design cache.
    design_warm_s: float = 5.0

    def __post_init__(self) -> None:
        if min(self.node_warm_s, self.keygen_s, self.design_warm_s) < 0:
            raise ValueError("spin-up cost components must be >= 0")

    def charge(self, design_warm: bool, context_warm: bool) -> float:
        """The *charged* cost given exact cache probes: a fully warm
        scale-up pays only base provisioning — zero keygen, zero DSE."""
        cost = self.node_warm_s
        if not design_warm:
            cost += self.design_warm_s
        if not context_warm:
            cost += self.keygen_s
        return cost

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ScaleDecision:
    """One control decision, including the ones the cooldown vetoed."""

    at_s: float
    action: str  # scale_up | scale_down | flap_suppressed
    from_nodes: int
    to_nodes: int
    reason: str
    #: Charged spin-up seconds (scale-up only).
    spin_up_s: float = 0.0
    #: When the resized plan starts serving.
    effective_s: float = 0.0
    #: Drain-before-retire horizon (scale-down only).
    drain_until_s: float | None = None
    #: Both caches were hot — zero keygen/DSE charged (scale-up only).
    warm: bool | None = None

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class AutoscaleReport:
    """A full elastic-serving session: the serve report plus the
    control-plane record (decisions, fleet timeline, node-seconds)."""

    serve: ServeReport
    decisions: tuple[ScaleDecision, ...]
    #: ``(virtual_seconds, serving_fleet_size)`` step function.
    timeline: tuple[tuple[float, int], ...]
    #: Billed node-seconds — includes spin-up and drain intervals.
    node_seconds: float
    end_s: float
    policy: dict[str, Any] = field(default_factory=dict)
    spin_up: dict[str, Any] = field(default_factory=dict)

    @property
    def peak_nodes(self) -> int:
        return max(size for _, size in self.timeline)

    @property
    def resizes(self) -> tuple[ScaleDecision, ...]:
        return tuple(
            d for d in self.decisions if d.action != "flap_suppressed"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "serve": self.serve.to_dict(),
            "decisions": [d.as_dict() for d in self.decisions],
            "timeline": [list(point) for point in self.timeline],
            "node_seconds": self.node_seconds,
            "end_s": self.end_s,
            "peak_nodes": self.peak_nodes,
            "policy": self.policy,
            "spin_up": self.spin_up,
        }


def p99_windows(
    report: ServeReport,
    window_s: float,
    threshold_s: float,
    start_s: float = 0.0,
) -> list[dict[str, Any]]:
    """Per-window p99 verdicts over a finished report's completions.

    Buckets completed requests by *finish* time into ``window_s`` bins
    from ``start_s`` and measures each bin's p99 latency against
    ``threshold_s``; empty bins pass vacuously.  The bench's headline
    assertion — "p99 held for >= 99% of windows after the surge's first
    cooldown interval" — is a fold over this table.
    """
    if window_s <= 0:
        raise ValueError("window_s must be > 0")
    finished = [
        r for r in report.results
        if r.finish_s is not None and r.latency_s is not None
        and r.finish_s >= start_s
    ]
    if not finished:
        return []
    end = max(r.finish_s for r in finished)
    count = int((end - start_s) // window_s) + 1
    bins: list[list[float]] = [[] for _ in range(count)]
    for r in finished:
        bins[int((r.finish_s - start_s) // window_s)].append(r.latency_s)
    rows = []
    for b, lats in enumerate(bins):
        lats.sort()
        p99 = interpolated_percentile(lats, 99.0)
        rows.append({
            "start_s": start_s + b * window_s,
            "p99_s": p99,
            "samples": len(lats),
            "ok": (not lats) or p99 <= threshold_s,
        })
    return rows


def held_fraction(
    report: ServeReport,
    window_s: float,
    threshold_s: float,
    start_s: float = 0.0,
) -> float:
    """Fraction of p99 windows meeting the threshold (1.0 when empty)."""
    rows = p99_windows(report, window_s, threshold_s, start_s)
    if not rows:
        return 1.0
    return sum(1 for r in rows if r["ok"]) / len(rows)


class FleetAutoscaler:
    """The virtual-time elastic control loop over a homogeneous fleet.

    The data plane is :class:`~repro.cluster.serving.ClusterService`
    semantics — admission queue, batch window, deadline expiry at
    dispatch, one admission per bottleneck interval — swapped between
    pre-planned fleet sizes by the control ticks described in the module
    docstring.  With ``prewarm=True`` (the deployment default) every
    size in ``[min_nodes, max_nodes]`` is planned at construction
    through the shared design cache and the context key material is
    provisioned once, so every runtime resize is a *warm* replan:
    ``dse_points_scanned`` stays flat and no keygen is charged.
    """

    def __init__(
        self,
        device: FpgaDevice,
        poly_degree: int = 8192,
        policy: AutoscalerConfig | None = None,
        spin_up: SpinUpCostModel | None = None,
        planner: FleetPlanner | None = None,
        contexts: LruCache | None = None,
        config: SchedulerConfig | None = None,
        slos: tuple[Slo, ...] | list[Slo] | None = None,
        method: str = "dp",
        link: Link | None = None,
        prewarm: bool = True,
        ledger: CostLedger | None = None,
        alerts: AlertEngine | None = None,
    ) -> None:
        # Imported here, not at module top: ``repro.cluster`` imports
        # this package back (dse -> serve.cache), so a module-level
        # import would be circular whenever the cluster package loads
        # first.
        from ..cluster.dse import FleetPlanner
        from ..cluster.fleet import Fleet

        self.device = device
        self.poly_degree = poly_degree
        self.policy = policy or AutoscalerConfig()
        self.spin_up = spin_up or SpinUpCostModel()
        self.planner = planner or FleetPlanner()
        # ``is None``, not ``or``: an empty cache is falsy (``__len__``).
        self.contexts = (
            LruCache(8, name="context", flight=True)
            if contexts is None else contexts
        )
        self.config = config or SchedulerConfig()
        self.method = method
        self.trace = cryptonets_mnist_batched(poly_degree)
        if self.policy.max_nodes > len(self.trace.layers):
            raise ValueError(
                f"max_nodes {self.policy.max_nodes} exceeds the pipeline "
                f"depth ({len(self.trace.layers)} layers)"
            )
        lanes = max_batch_lanes(poly_degree)
        self.capacity = min(self.config.max_lanes or lanes, lanes)
        self.slos = tuple(slos) if slos is not None else (
            Slo("p99-latency", "p99_latency_s", 13.0, window=1000),
        )
        #: Optional per-tenant cost attribution: batches are charged at
        #: dispatch; billed node-seconds settle when the run drains.
        self.ledger = ledger
        #: Optional alert engine ticked at every control tick.
        self.alerts = alerts
        self._fleets = {
            n: Fleet.homogeneous(device, n, link=link)
            for n in range(self.policy.min_nodes, self.policy.max_nodes + 1)
        }
        #: The pipeline executor of each planned fleet size.
        self._services: dict[int, ClusterService] = {}
        if prewarm:
            self.warm()

    # -- deployment prep ------------------------------------------------------

    @property
    def _context_key(self) -> tuple[str, str, int]:
        return (self.trace.name, self.device.name, self.poly_degree)

    def warm(self) -> None:
        """Pre-plan every reachable fleet size and provision keys, so
        runtime resizes hit only warm caches (what a capacity-planned
        deployment does before taking traffic)."""
        for n in self._fleets:
            self._service_for(n)
        self.contexts.get_or_create(self._context_key, lambda: object())

    def _service_for(self, n: int) -> ClusterService:
        """The pipeline executor of an ``n``-node fleet, planned on first
        use (charging this autoscaler's ledger)."""
        from ..cluster.serving import ClusterService

        svc = self._services.get(n)
        if svc is None:
            svc = ClusterService(
                self.planner.plan(
                    self.trace, self._fleets[n], method=self.method
                ),
                batch_capacity=max_batch_lanes(self.poly_degree),
                config=self.config, ledger=self.ledger,
            )
            self._services[n] = svc
        return svc

    def _probe_warmth(self) -> tuple[bool, bool]:
        """Exact (design_warm, context_warm) cache probes — stat-neutral."""
        design_warm = self.planner.designs.contains(self.trace, self.device)
        context_warm = self._context_key in self.contexts
        return design_warm, context_warm

    # -- the control loop -----------------------------------------------------

    def run(self, requests: list[InferenceRequest]) -> AutoscaleReport:
        with trace_span(
            "autoscale.serve", category="autoscale",
            device=self.device.name, min_nodes=self.policy.min_nodes,
            max_nodes=self.policy.max_nodes,
        ) as span:
            elastic = _ElasticRun(self)
            loop = ServeLoop(
                requests, elastic, self.config, self.capacity,
                queue="autoscale", alerts=self.alerts, control=elastic,
            )
            serve = loop.run(autoscale={
                "device": self.device.name,
                "policy": self.policy.as_dict(),
                "spin_up": self.spin_up.as_dict(),
                "slos": [s.as_dict() for s in self.slos],
            })
            node_seconds = _integrate(elastic.billing, loop.end_s)
            if self.ledger is not None:
                # Billed node-seconds (spin-up and drain intervals
                # included) settle onto tenants by their slot-time weight.
                self.ledger.settle(node_seconds=node_seconds)
            report = AutoscaleReport(
                serve=serve,
                decisions=tuple(elastic.decisions),
                timeline=tuple(elastic.timeline),
                node_seconds=node_seconds,
                end_s=loop.end_s,
                policy=self.policy.as_dict(),
                spin_up=self.spin_up.as_dict(),
            )
            span.set(
                completed=report.serve.completed,
                resizes=len(report.resizes),
                node_seconds=report.node_seconds,
            )
        return report


class _ElasticRun:
    """One autoscaled replay: the control plane that owns the loop's clock,
    and the pipeline executor whose plan its decisions swap."""

    def __init__(self, scaler: FleetAutoscaler) -> None:
        self.scaler = scaler
        self.monitor = SloMonitor(scaler.slos)
        self.p99_slo = next(
            (s for s in scaler.slos if s.objective == "p99_latency_s"), None
        )
        policy = scaler.policy
        self.size = policy.min_nodes
        scaler._service_for(self.size)  # plan it before any traffic
        #: (effective_s, new_size) while a spin-up is in flight.
        self.activation: tuple[float, int] | None = None
        self.next_tick = policy.evaluate_every_s
        self.cooldown_until = 0.0
        self.breach_streak = self.idle_streak = 0
        self.suppressed_this_streak = False
        self.decisions: list[ScaleDecision] = []
        self.timeline: list[tuple[float, int]] = [(0.0, self.size)]
        #: (at_s, node_delta) — billed capacity changes (spin-up from
        #: decision time; retiring nodes until drain).
        self.billing: list[tuple[float, int]] = [(0.0, self.size)]
        self.last_finish = 0.0
        record_fleet_size(self.size)

    # -- the executor: the pipeline serving new dispatches --------------------

    def execute(
        self, batch: list[InferenceRequest], at_s: float
    ) -> tuple[str, list[float], float]:
        return self.scaler._service_for(self.size).execute(batch, at_s)

    def on_batch(
        self, batch: list[InferenceRequest], record: BatchRecord
    ) -> None:
        self.last_finish = max(self.last_finish, record.finish_s)
        self.scaler._service_for(self.size).on_batch(batch, record)

    # -- the control plane ----------------------------------------------------

    def drain(self, loop: ServeLoop) -> float:
        # Keep ticking while completions are still in flight, so the
        # monitor sees the tail (SLO recovery events, final scale-down).
        while loop.terminals:
            self.advance(loop, self.next_tick)
        return max(
            self.last_finish, max(t for t, _ in self.billing),
            self.timeline[-1][0],
        )

    def decide(self, t: float) -> bool:
        """One control decision at tick ``t``; True if the plan serving
        new dispatches changed."""
        scaler, policy = self.scaler, self.scaler.policy
        size = self.size
        if self.activation is not None:
            return False  # a resize is already in flight
        want_up = (
            self.breach_streak >= policy.scale_up_after
            and size < policy.max_nodes
        )
        want_down = (
            self.idle_streak >= policy.scale_down_after
            and size > policy.min_nodes
        )
        if not want_up and not want_down:
            self.suppressed_this_streak = False
            return False
        if t < self.cooldown_until:
            if not self.suppressed_this_streak:
                self.suppressed_this_streak = True
                action = "scale_up" if want_up else "scale_down"
                self.decisions.append(ScaleDecision(
                    at_s=t, action="flap_suppressed",
                    from_nodes=size, to_nodes=size,
                    reason=f"cooldown until {self.cooldown_until:.1f}s "
                           f"vetoed {action}",
                ))
                record_autoscale_decision(
                    "flap_suppressed", size, at_s=t,
                    wanted=action, cooldown_until_s=self.cooldown_until,
                )
            return False
        self.suppressed_this_streak = False
        if want_up:
            new = min(size + policy.step, policy.max_nodes)
            design_warm, context_warm = scaler._probe_warmth()
            cost = scaler.spin_up.charge(design_warm, context_warm)
            warm = design_warm and context_warm
            record_spin_up_cost(cost, warm=warm)
            # Re-partition for the grown fleet through the DP
            # partitioner; warm design caches make this free.
            scaler._service_for(new)
            scaler.contexts.get_or_create(
                scaler._context_key, lambda: object()
            )
            self.activation = (t + cost, new)
            self.billing.append((t, new - size))
            reason = (
                f"breach streak {self.breach_streak} "
                f"(queue or SLO) at {size} nodes"
            )
            self.decisions.append(ScaleDecision(
                at_s=t, action="scale_up", from_nodes=size,
                to_nodes=new, reason=reason, spin_up_s=cost,
                effective_s=t + cost, warm=warm,
            ))
            record_autoscale_decision(
                "scale_up", new, at_s=t, from_nodes=size,
                spin_up_s=cost, warm=warm, reason=reason,
            )
            emit_virtual(
                f"spin_up {size}->{new}", "autoscale", t, cost,
                tid=AUTOSCALE_TID,
                args={"from_nodes": size, "to_nodes": new,
                      "spin_up_s": cost, "warm": warm},
            )
            self.cooldown_until = t + policy.cooldown_s
            self.breach_streak = 0
            return False  # old plan serves until activation
        # Scale-down: new dispatches use the shrunk plan at once;
        # the retiring node is billed until its pipeline drains.
        new = max(size - policy.step, policy.min_nodes)
        drain_until = max(t, self.last_finish)
        reason = f"idle streak {self.idle_streak} at {size} nodes"
        self.decisions.append(ScaleDecision(
            at_s=t, action="scale_down", from_nodes=size,
            to_nodes=new, reason=reason, effective_s=t,
            drain_until_s=drain_until,
        ))
        record_autoscale_decision(
            "scale_down", new, at_s=t, from_nodes=size,
            drain_until_s=drain_until, reason=reason,
        )
        emit_virtual(
            f"drain {size}->{new}", "autoscale", t,
            max(0.0, drain_until - t), tid=AUTOSCALE_TID,
            args={"from_nodes": size, "to_nodes": new,
                  "drain_until_s": drain_until},
        )
        self.billing.append((drain_until, new - size))
        self._resize(t, new)
        self.cooldown_until = t + policy.cooldown_s
        self.idle_streak = 0
        return True

    def _resize(self, at_s: float, size: int) -> None:
        self.size = size
        self.scaler._service_for(size)
        self.timeline.append((at_s, size))
        record_fleet_size(size)

    def advance(self, loop: ServeLoop, t_limit: float) -> bool:
        """Fire activations and control ticks up to ``t_limit``; True if
        the serving plan changed."""
        policy = self.scaler.policy
        changed = False
        while True:
            act_at = self.activation[0] if self.activation else float("inf")
            if min(self.next_tick, act_at) > t_limit:
                break
            if act_at <= self.next_tick and self.activation is not None:
                self._resize(act_at, self.activation[1])
                self.activation = None
                record_flight(
                    "fleet_resized", fleet_size=self.size, at_s=act_at,
                    fleet=self.scaler._service_for(self.size).plan.fleet.name,
                )
                changed = True
                continue
            t = self.next_tick
            self.next_tick += policy.evaluate_every_s
            loop.admit(t)
            for result in loop.terminals_until(t):
                self.monitor.observe(result.outcome, result.latency_s)
            statuses = self.monitor.evaluate()
            loop.tick(t)
            depth = len(loop.queue)
            breach = (
                any(not s.ok for s in statuses) or depth > policy.queue_high
            )
            slack_ok = True
            if self.p99_slo is not None:
                p99_value = next(
                    s.value for s in statuses if s.slo is self.p99_slo
                )
                slack_ok = (
                    p99_value <= policy.p99_slack * self.p99_slo.threshold
                )
            idle = not breach and depth <= policy.queue_low and slack_ok
            self.breach_streak = self.breach_streak + 1 if breach else 0
            self.idle_streak = self.idle_streak + 1 if idle else 0
            if self.decide(t):
                changed = True
        return changed


def _integrate(billing: list[tuple[float, int]], end_s: float) -> float:
    """Node-seconds under the billed-capacity step function."""
    events = sorted(billing)
    total = 0.0
    active = 0
    prev = 0.0
    for at, delta in events:
        at = min(at, end_s)
        total += active * (at - prev)
        active += delta
        prev = at
    total += active * max(0.0, end_s - prev)
    return total
