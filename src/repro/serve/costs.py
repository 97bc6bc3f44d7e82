"""Per-tenant cost attribution with an exact reconciliation invariant.

PR 8/9 already *compute* every raw economic number — batch occupancy,
serialized wire bytes per pipeline link, drain-aware node-seconds,
energy per inference, keygen and DSE work — but nothing *attributes*
them.  :class:`CostLedger` does: the serving loops charge each completed
request's key group its actual consumption, and fleet-level costs
(node-seconds, energy) are settled onto tenants in proportion to the
slot time they consumed.

The design constraint is the **reconciliation invariant**: per-tenant
charges must sum to the fleet totals *exactly*, not within a float
tolerance — an attribution bug that leaks cost must turn a CI boolean
red.  Exactness comes from doing all accounting in integer micro-units
(microseconds of slot/node time, microjoules, bytes, counts) and
splitting every shared quantity with a largest-remainder division, so
integer sums reconcile bit-for-bit no matter the addition order:

* **slot time** — a batch's accelerator occupancy, split across its
  lanes (one tenant per batch under key-aware batching; a cluster batch
  may mix groups and each lane carries its own share);
* **wire bytes** — the partitioner's serialized ciphertext bytes per
  dispatched batch, split across lanes; per-stage totals are kept too,
  and stage sums must equal tenant sums;
* **keygen / DSE points** — counted where they happen (a context-cache
  miss, a design scan); unattributed DSE work lands in a shared pool
  distributed like fleet costs;
* **node-seconds / energy** — autoscale billing integrals and
  ``plan.energy_per_inference_joules``, settled by slot-time weight
  (request-count weight when no slot time was charged).

``key_group=None`` requests charge the ``"(unkeyed)"`` bucket, so the
books always balance even for the legacy single-key universe.

Reconciliation compares the books with themselves, so it cannot see a
charge that never arrived; :meth:`CostReport.matches` joins them with the
serving report instead (per tenant, requests charged == completed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.probes import record_tenant_cost
from .records import ServeReport
from .tenants import tenant_of_key_group

#: Tenant bucket for requests outside the key-group universe.
UNKEYED = "(unkeyed)"

#: Integer micro-units per second / joule.
_MICRO = 1_000_000

#: The charge axes a ledger tracks, in report order.
METRICS = (
    "slot_seconds",
    "wire_bytes",
    "keygen_count",
    "dse_points",
    "node_seconds",
    "energy_joules",
)


def _tenant_of(key_group: str | None) -> str:
    return UNKEYED if key_group is None else tenant_of_key_group(key_group)


def split_exact(total: int, weights: dict[str, float]) -> dict[str, int]:
    """Split integer ``total`` by ``weights`` with largest-remainder
    rounding: shares are ints and sum to ``total`` exactly.

    Zero/negative weight maps get an equal split; ties break by key so
    the split is deterministic.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if not weights:
        return {}
    keys = sorted(weights)
    wsum = sum(max(0.0, weights[k]) for k in keys)
    if wsum <= 0:
        weights = {k: 1.0 for k in keys}
        wsum = float(len(keys))
    shares: dict[str, int] = {}
    remainders: list[tuple[float, str]] = []
    floor_sum = 0
    for k in keys:
        exact = total * max(0.0, weights[k]) / wsum
        floor = int(exact)
        shares[k] = floor
        floor_sum += floor
        remainders.append((-(exact - floor), k))
    remainders.sort()
    for _, k in remainders[: total - floor_sum]:
        shares[k] += 1
    return shares


@dataclass
class TenantCharges:
    """Integer-unit accumulators for one tenant."""

    tenant: str
    requests: int = 0
    slot_us: int = 0
    wire_bytes: int = 0
    keygen_count: int = 0
    dse_points: int = 0
    node_us: int = 0
    energy_uj: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "requests": self.requests,
            "slot_seconds": self.slot_us / _MICRO,
            "slot_us": self.slot_us,
            "wire_bytes": self.wire_bytes,
            "keygen_count": self.keygen_count,
            "dse_points": self.dse_points,
            "node_seconds": self.node_us / _MICRO,
            "node_us": self.node_us,
            "energy_joules": self.energy_uj / _MICRO,
            "energy_uj": self.energy_uj,
        }


class CostLedger:
    """Accumulate per-tenant charges; see the module docstring.

    Thread-compatibility note: the virtual-time loops are single-
    threaded, so the ledger takes no locks — install one ledger per
    run (the loops accept it as a constructor argument).
    """

    def __init__(self) -> None:
        self._tenants: dict[str, TenantCharges] = {}
        #: Fleet totals in the same integer units as the tenant rows.
        self._fleet = {
            "slot_us": 0, "wire_bytes": 0, "keygen_count": 0,
            "dse_points": 0, "node_us": 0, "energy_uj": 0,
        }
        #: Unattributed DSE points, distributed at report time.
        self._dse_pool = 0
        #: Per-stage wire bytes ("stage{index}:{device}" -> bytes).
        self._stage_wire: dict[str, int] = {}
        #: Pending fleet-level settlements awaiting distribution.
        self._unsettled_node_us = 0
        self._unsettled_energy_uj = 0

    # -- charging -------------------------------------------------------------

    def _charges(self, tenant: str) -> TenantCharges:
        row = self._tenants.get(tenant)
        if row is None:
            row = TenantCharges(tenant)
            self._tenants[tenant] = row
        return row

    def note_batch(
        self,
        key_groups: list[str | None],
        slot_seconds: float,
        wire_bytes: int = 0,
    ) -> None:
        """Charge one dispatched batch: its accelerator occupancy and
        wire bytes, split exactly across its lanes."""
        if not key_groups:
            return
        lanes = {f"lane{i}": 1.0 for i in range(len(key_groups))}
        slot_us = round(slot_seconds * _MICRO)
        slot_split = split_exact(slot_us, lanes)
        wire_split = split_exact(int(wire_bytes), lanes)
        for i, group in enumerate(key_groups):
            row = self._charges(_tenant_of(group))
            row.requests += 1
            row.slot_us += slot_split[f"lane{i}"]
            row.wire_bytes += wire_split[f"lane{i}"]
        self._fleet["slot_us"] += slot_us
        self._fleet["wire_bytes"] += int(wire_bytes)

    def note_stage_wire(self, stage: str, wire_bytes: int) -> None:
        """Track the same wire bytes by pipeline stage (the dual view:
        stage sums must reconcile against tenant sums)."""
        self._stage_wire[stage] = self._stage_wire.get(stage, 0) \
            + int(wire_bytes)

    def note_keygen(self, key_group: str | None, count: int = 1) -> None:
        """Charge key-generation work (a context-cache miss)."""
        self._charges(_tenant_of(key_group)).keygen_count += count
        self._fleet["keygen_count"] += count

    def keygen_factory(
        self, key_group: str | None, factory: Callable[[], Any]
    ) -> Callable[[], Any]:
        """Wrap a context-cache miss factory so every actual build is
        charged — a cache hit never runs the factory, so warm tenants
        pay zero keygen, exactly like the spin-up cost model."""
        def charged() -> Any:
            self.note_keygen(key_group)
            return factory()
        return charged

    def note_dse(self, points: int, key_group: str | None = None) -> None:
        """Charge DSE scan work; with no key group it lands in the
        shared pool and is distributed like fleet costs."""
        if key_group is None:
            self._dse_pool += points
        else:
            self._charges(_tenant_of(key_group)).dse_points += points
        self._fleet["dse_points"] += points

    def settle(
        self, node_seconds: float = 0.0, energy_joules: float = 0.0
    ) -> None:
        """Queue fleet-level totals for distribution at report time.

        Distribution is deferred so charges that arrive *after* a
        settlement (another loop's batches) still shift the weights —
        the report distributes each total once over the final weights.
        """
        self._unsettled_node_us += round(node_seconds * _MICRO)
        self._unsettled_energy_uj += round(energy_joules * _MICRO)
        self._fleet["node_us"] = self._unsettled_node_us
        self._fleet["energy_uj"] = self._unsettled_energy_uj

    # -- reporting ------------------------------------------------------------

    def _weights(self) -> dict[str, float]:
        """Distribution weights: slot time, falling back to requests."""
        if not self._tenants:
            return {UNKEYED: 1.0}
        if any(row.slot_us for row in self._tenants.values()):
            return {t: float(r.slot_us) for t, r in self._tenants.items()}
        return {t: float(r.requests) for t, r in self._tenants.items()}

    def report(self) -> "CostReport":
        """Distribute pending fleet costs and snapshot the books.

        Non-mutating: calling twice (mid-run and at the end) yields
        consistent, fully-reconciled views each time.
        """
        weights = self._weights()
        node_split = split_exact(self._unsettled_node_us, weights)
        energy_split = split_exact(self._unsettled_energy_uj, weights)
        dse_split = split_exact(self._dse_pool, weights)
        rows: list[TenantCharges] = []
        for tenant in sorted(set(self._tenants) | set(weights)):
            base = self._tenants.get(tenant, TenantCharges(tenant))
            rows.append(TenantCharges(
                tenant=tenant,
                requests=base.requests,
                slot_us=base.slot_us,
                wire_bytes=base.wire_bytes,
                keygen_count=base.keygen_count,
                dse_points=base.dse_points + dse_split.get(tenant, 0),
                node_us=base.node_us + node_split.get(tenant, 0),
                energy_uj=base.energy_uj + energy_split.get(tenant, 0),
            ))
        return CostReport(
            tenants=tuple(rows),
            fleet=dict(self._fleet),
            stage_wire=dict(self._stage_wire),
        )

    def publish(self) -> None:
        """Publish per-tenant ``cost_*`` gauges to the registry.

        These series are per-tenant (high cardinality by design); small
        exports scope them out with the OpenMetrics prefix filters.
        """
        for row in self.report().tenants:
            record_tenant_cost(
                row.tenant,
                requests=row.requests,
                slot_seconds=row.slot_us / _MICRO,
                wire_bytes=row.wire_bytes,
                keygen_count=row.keygen_count,
                dse_points=row.dse_points,
                node_seconds=row.node_us / _MICRO,
                energy_joules=row.energy_uj / _MICRO,
            )


@dataclass(frozen=True)
class CostReport:
    """The settled books: per-tenant rows, fleet totals, stage duals."""

    tenants: tuple[TenantCharges, ...]
    fleet: dict[str, int] = field(default_factory=dict)
    stage_wire: dict[str, int] = field(default_factory=dict)

    def reconciliation(self) -> dict[str, bool]:
        """Exact integer equality of tenant sums against fleet totals.

        ``wire_stage`` additionally checks the per-stage dual (skipped
        as vacuously true when no stage charges were recorded — the
        single-board scheduler has no pipeline links).
        """
        sums = {
            "slot_us": sum(r.slot_us for r in self.tenants),
            "wire_bytes": sum(r.wire_bytes for r in self.tenants),
            "keygen_count": sum(r.keygen_count for r in self.tenants),
            "dse_points": sum(r.dse_points for r in self.tenants),
            "node_us": sum(r.node_us for r in self.tenants),
            "energy_uj": sum(r.energy_uj for r in self.tenants),
        }
        out = {
            "slot_seconds": sums["slot_us"] == self.fleet["slot_us"],
            "wire_bytes": sums["wire_bytes"] == self.fleet["wire_bytes"],
            "keygen_count":
                sums["keygen_count"] == self.fleet["keygen_count"],
            "dse_points": sums["dse_points"] == self.fleet["dse_points"],
            "node_seconds": sums["node_us"] == self.fleet["node_us"],
            "energy_joules": sums["energy_uj"] == self.fleet["energy_uj"],
        }
        if self.stage_wire:
            out["wire_stage"] = (
                sum(self.stage_wire.values()) == self.fleet["wire_bytes"]
            )
        return out

    @property
    def reconciled(self) -> bool:
        return all(self.reconciliation().values())

    def matches(self, serve: ServeReport) -> bool:
        """The books joined with the serving report they charged: per
        tenant, the requests charged equal the results that completed.

        :meth:`reconciliation` compares the books with themselves, so a
        batch that never reaches the ledger leaves it exact; here it is a
        tenant charged for fewer requests than it completed.  Requests
        are the axis every loop charges alike: the cluster charges stage
        compute as slot time, not ``finish - start``.
        """
        completed = Counter(
            _tenant_of(r.key_group) for r in serve.results if r.completed
        )
        charged = {r.tenant: r.requests for r in self.tenants if r.requests}
        return charged == dict(completed)

    def totals(self) -> dict[str, float]:
        """Fleet totals in human units."""
        return {
            "requests": sum(r.requests for r in self.tenants),
            "slot_seconds": self.fleet["slot_us"] / _MICRO,
            "wire_bytes": self.fleet["wire_bytes"],
            "keygen_count": self.fleet["keygen_count"],
            "dse_points": self.fleet["dse_points"],
            "node_seconds": self.fleet["node_us"] / _MICRO,
            "energy_joules": self.fleet["energy_uj"] / _MICRO,
        }

    def share(self, tenant: str, metric: str = "node_seconds") -> float:
        """One tenant's fraction of a fleet total (0.0 on empty books)."""
        unit = {"slot_seconds": "slot_us", "node_seconds": "node_us",
                "energy_joules": "energy_uj"}.get(metric, metric)
        total = self.fleet.get(unit, 0)
        if not total:
            return 0.0
        row = next((r for r in self.tenants if r.tenant == tenant), None)
        return getattr(row, unit) / total if row is not None else 0.0

    def top_share(self, metric: str = "node_seconds") -> float:
        """The largest single-tenant share of a fleet total."""
        return max(
            (self.share(r.tenant, metric) for r in self.tenants),
            default=0.0,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenants": [r.as_dict() for r in self.tenants],
            "fleet": dict(self.fleet),
            "totals": self.totals(),
            "stage_wire": dict(self.stage_wire),
            "reconciliation": self.reconciliation(),
            "reconciled": self.reconciled,
            "top_shares": {
                m: self.top_share(m)
                for m in ("slot_seconds", "node_seconds", "energy_joules",
                          "wire_bytes")
            },
        }
