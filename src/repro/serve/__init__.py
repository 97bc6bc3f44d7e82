"""Throughput serving layer: slot-batched scheduling above the HE stack.

The paper optimizes single-image latency with LoLa packing (Sec. VII-A);
a deployed service facing "heavy traffic from millions of users" (the
ROADMAP north star) instead wants *amortized throughput*, which
CryptoNets-style slot batching delivers: the batched CryptoNets-MNIST
trace costs the same whether 1 or ``N/2`` images ride the slot lanes, so
a full batch divides one inference's latency by 4096.

This package provides the pieces between "a request arrived" and "the
accelerator ran a trace":

* :mod:`~repro.serve.request` — request/result records;
* :mod:`~repro.serve.tenants` — the multi-tenant key universe: tenant
  registry with stable key-group IDs, key rotation/eviction lifecycle
  events, and per-tenant cache shards with bounded quotas;
* :mod:`~repro.serve.cache`   — the LRU design cache so repeated
  requests skip DSE (contexts live in plain or tenant-sharded LRU caches
  so they skip key generation);
* :mod:`~repro.serve.costmodel` — per-mode cost facts derived from the
  DSE'd designs (LoLa single vs slot-batched);
* :mod:`~repro.serve.traffic` — deterministic arrival processes;
* :mod:`~repro.serve.loop`    — the one virtual-time serving loop
  (bounded queue, key-aware batch window, deadlines);
* :mod:`~repro.serve.scheduler` — its single-board executor (LoLa
  degradation below the cost crossover);
* :mod:`~repro.serve.records` — JSON round-trip of serve reports;
* :mod:`~repro.serve.slo`     — declarative SLOs (p99 latency, deadline
  misses, rejects) evaluated over sliding windows;
* :mod:`~repro.serve.bench`   — the latency-vs-throughput sweep behind
  ``repro bench-throughput`` and BENCH_serve.json.

See ``docs/serving.md`` for the design discussion.
"""

from .autoscale import (
    AutoscaleReport,
    AutoscalerConfig,
    FleetAutoscaler,
    ScaleDecision,
    SpinUpCostModel,
    held_fraction,
    p99_windows,
)
from .cache import DesignCache, DesignKey
from .costmodel import ServingCostModel
from .costs import (
    METRICS as COST_METRICS,
    UNKEYED,
    CostLedger,
    CostReport,
    TenantCharges,
    split_exact,
)
from .records import BatchRecord, RequestResult, ServeReport
from .request import InferenceRequest
from .scheduler import SchedulerConfig, SlotBatchScheduler
from .slo import (
    FLOOR_OBJECTIVES,
    OBJECTIVES,
    Slo,
    SloMonitor,
    SloStatus,
    default_slos,
    evaluate_report,
)
from .tenants import TIERS, Tenant, TenantRegistry, TenantShardedCache
from .traffic import (
    burst_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    merge_arrivals,
    poisson_arrivals,
    tier_of_rank,
    uniform_arrivals,
    zipf_shares,
    zipf_tenant_arrivals,
)

__all__ = [
    "AutoscaleReport",
    "AutoscalerConfig",
    "BatchRecord",
    "COST_METRICS",
    "CostLedger",
    "CostReport",
    "DesignCache",
    "DesignKey",
    "FleetAutoscaler",
    "InferenceRequest",
    "RequestResult",
    "ScaleDecision",
    "SchedulerConfig",
    "ServeReport",
    "ServingCostModel",
    "Slo",
    "SpinUpCostModel",
    "SloMonitor",
    "SloStatus",
    "SlotBatchScheduler",
    "Tenant",
    "TenantCharges",
    "TenantRegistry",
    "TenantShardedCache",
    "TIERS",
    "UNKEYED",
    "burst_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "FLOOR_OBJECTIVES",
    "OBJECTIVES",
    "default_slos",
    "evaluate_report",
    "held_fraction",
    "merge_arrivals",
    "p99_windows",
    "poisson_arrivals",
    "split_exact",
    "tier_of_rank",
    "uniform_arrivals",
    "zipf_shares",
    "zipf_tenant_arrivals",
]
