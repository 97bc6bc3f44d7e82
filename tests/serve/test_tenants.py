"""Multi-tenant serving: registry, sharded caches, key-aware batching."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.flight import FLIGHT
from repro.serve import (
    SchedulerConfig,
    SlotBatchScheduler,
    Tenant,
    TenantRegistry,
    TenantShardedCache,
    tier_of_rank,
    zipf_shares,
    zipf_tenant_arrivals,
)
from repro.serve.request import InferenceRequest
from repro.serve.tenants import tenant_of_key_group


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_tenant_validation():
    with pytest.raises(ValueError):
        Tenant(tenant_id="")
    with pytest.raises(ValueError):
        Tenant(tenant_id="t", tier="platinum")
    with pytest.raises(ValueError):
        Tenant(tenant_id="t", key_epoch=-1)


def test_registry_assigns_stable_key_groups():
    reg = TenantRegistry()
    t = reg.register("alice", tier="hot")
    assert t.key_group == "alice:k0"
    # Idempotent: re-registering returns the same snapshot.
    assert reg.register("alice", tier="cold") is t
    assert reg.key_group("alice") == "alice:k0"
    assert "alice" in reg and len(reg) == 1
    assert tenant_of_key_group("alice:k0") == "alice"


def test_key_group_auto_registers_cold_tenants():
    reg = TenantRegistry()
    assert reg.key_group("drive-by") == "drive-by:k0"
    assert reg.get("drive-by").tier == "cold"


# ---------------------------------------------------------------------------
# Sharded caches and per-tenant quotas
# ---------------------------------------------------------------------------


def test_sharded_cache_per_tenant_quota_isolates_tenants():
    cache = TenantShardedCache("t", per_tenant_capacity=2, max_tenants=8)
    for k in range(5):  # noisy tenant overflows its own quota only
        cache.get_or_create("noisy:k0", k, lambda k=k: k)
    cache.get_or_create("quiet:k0", "x", lambda: "vx")
    assert len(cache.shard("noisy:k0")) == 2  # quota bound
    assert cache.shard("quiet:k0").get("x") == "vx"  # untouched
    assert cache.tenant_count() == 2


def test_sharded_cache_bounds_tenant_population_with_flight_event():
    cache = TenantShardedCache("t", per_tenant_capacity=2, max_tenants=2)
    with obs.observed():
        obs.reset()
        FLIGHT.clear()
        cache.get_or_create("a:k0", 1, lambda: "a")
        cache.get_or_create("b:k0", 1, lambda: "b")
        cache.get_or_create("c:k0", 1, lambda: "c")  # evicts coldest: a
        assert cache.tenant_count() == 2
        assert cache.tenants() == ["b:k0", "c:k0"]
        assert cache.tenant_evictions == 1
        events = FLIGHT.events("tenant_evicted")
        assert events and events[-1]["key_group"] == "a:k0"
        assert events[-1]["entries"] == 1


def test_sharded_cache_aggregate_stats_and_gauge():
    cache = TenantShardedCache("probe-shard", per_tenant_capacity=4,
                               max_tenants=8)
    with obs.observed():
        obs.reset()
        cache.get_or_create("a:k0", 1, lambda: "x")   # miss
        cache.get_or_create("a:k0", 1, lambda: "x")   # hit
        cache.get_or_create("b:k0", 1, lambda: "y")   # miss
        s = cache.stats()
        assert (s.hits, s.misses, s.size) == (1, 2, 2)
        reg = obs.get_registry()
        # Shards share one cache label, so counters aggregate...
        assert reg.counter(
            "cache_events_total", cache="probe-shard", event="miss"
        ).value == 2
        # ...and the gauge reflects the cross-tenant total.
        assert reg.gauge("cache_size", cache="probe-shard").value == 2
        assert reg.gauge("cache_tenants", cache="probe-shard").value == 2


def test_sharded_cache_publishes_population_wide_hit_ratio():
    """The ``cache_hit_ratio`` gauge aggregates over every shard and
    stays in lock step with ``stats().hit_rate``."""
    cache = TenantShardedCache("probe-ratio", per_tenant_capacity=4,
                               max_tenants=8)
    with obs.observed():
        obs.reset()
        reg = obs.get_registry()
        gauge = reg.gauge("cache_hit_ratio", cache="probe-ratio")
        cache.get_or_create("a:k0", 1, lambda: "x")   # miss
        assert gauge.value == pytest.approx(cache.stats().hit_rate)
        assert gauge.value == 0.0
        cache.get_or_create("a:k0", 1, lambda: "x")   # hit
        cache.get_or_create("b:k0", 1, lambda: "y")   # miss
        assert gauge.value == pytest.approx(cache.stats().hit_rate)
        assert gauge.value == pytest.approx(1 / 3)


def test_concurrent_same_tenant_context_provisioning_builds_once():
    """Satellite hammer: N threads warming one tenant's context run the
    (expensive keygen) factory exactly once."""
    cache = TenantShardedCache(
        "context", per_tenant_capacity=4, max_tenants=8, flight=True
    )
    builds = []
    barrier = threading.Barrier(8)
    errors = []

    def factory():
        builds.append(threading.get_ident())
        return {"ctx": "keys"}

    def worker():
        try:
            barrier.wait()
            got = cache.get_or_create("alice:k0", "mnist", factory)
            assert got == {"ctx": "keys"}
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(builds) == 1
    assert len(cache) == 1 and cache.tenant_count() == 1


def test_warm_per_tenant_rerun_performs_zero_keygen():
    """Acceptance: a warm rerun leaves the context miss counter flat."""
    cache = TenantShardedCache(
        "context", per_tenant_capacity=4, max_tenants=16, flight=True
    )
    groups = [f"tenant-{i:04d}:k0" for i in range(6)]
    with obs.observed():
        obs.reset()
        reg = obs.get_registry()
        miss = reg.counter("cache_events_total", cache="context",
                           event="miss")
        for g in groups:  # cold pass provisions each tenant once
            cache.get_or_create(g, "model", lambda g=g: f"ctx-{g}")
        cold_misses = miss.value
        assert cold_misses == len(groups)
        for g in groups:  # warm rerun: zero keygen
            cache.get_or_create(g, "model", lambda g=g: f"ctx-{g}")
        assert miss.value == cold_misses


# ---------------------------------------------------------------------------
# Zipf tenant traffic
# ---------------------------------------------------------------------------


def test_zipf_shares_shape():
    shares = zipf_shares(10, s=1.1)
    assert shares[0] > shares[1] > shares[-1] > 0
    assert shares.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        zipf_shares(0)
    with pytest.raises(ValueError):
        zipf_shares(4, s=0.0)


def test_tier_of_rank_partitions():
    assert tier_of_rank(0, 100) == "hot"
    assert tier_of_rank(9, 100) == "hot"
    assert tier_of_rank(10, 100) == "warm"
    assert tier_of_rank(39, 100) == "warm"
    assert tier_of_rank(40, 100) == "cold"
    assert tier_of_rank(0, 1) == "hot"  # tiny population keeps a head
    with pytest.raises(ValueError):
        tier_of_rank(5, 5)


def test_zipf_traffic_is_deterministic_under_fixed_seed():
    a = zipf_tenant_arrivals(400, 2000.0, tenant_count=12, seed=11)
    b = zipf_tenant_arrivals(400, 2000.0, tenant_count=12, seed=11)
    assert a == b
    c = zipf_tenant_arrivals(400, 2000.0, tenant_count=12, seed=12)
    assert a != c
    # Hot-headed population: rank 0 carries the most traffic.
    by_group: dict[str, int] = {}
    for r in a:
        by_group[r.key_group] = by_group.get(r.key_group, 0) + 1
    hottest = max(by_group, key=lambda g: by_group[g])
    assert hottest == "tenant-0000:k0"


def test_zipf_traffic_registers_tenants_with_tiers():
    reg = TenantRegistry()
    zipf_tenant_arrivals(100, 1000.0, tenant_count=20, seed=5, registry=reg)
    assert len(reg) == 20
    assert reg.get("tenant-0000").tier == "hot"
    assert reg.get("tenant-0019").tier == "cold"


# ---------------------------------------------------------------------------
# Key-aware batching: the cross-tenant isolation invariant
# ---------------------------------------------------------------------------


def test_scheduler_never_mixes_key_groups(cost_model):
    requests = zipf_tenant_arrivals(
        600, 5000.0, tenant_count=8, seed=7,
    )
    report = SlotBatchScheduler(
        cost_model, SchedulerConfig(batch_window_s=0.5)
    ).run(requests)
    assert report.completed == 600
    assert report.isolation_ok()
    # Belt and braces: re-derive the invariant from raw results.
    for batch in report.batches:
        members = [
            r for r in report.results if r.batch_id == batch.batch_id
        ]
        groups = {r.key_group for r in members}
        assert groups == {batch.key_group}
    # Every tenant that sent traffic is represented in the outcome.
    assert len(report.key_groups) == 8
    summary = report.per_key_group()
    assert sum(row["requests"] for row in summary.values()) == 600


def test_scheduler_full_hot_group_dispatches_ahead_of_rare_window(
    cost_model
):
    """A rare key arriving first must not strand a full hot batch."""
    cap = 16
    requests = [InferenceRequest(request_id=0, arrival_s=0.0,
                                 key_group="rare:k0")]
    requests += [
        InferenceRequest(request_id=i + 1, arrival_s=0.01,
                         key_group="hot:k0")
        for i in range(cap)
    ]
    report = SlotBatchScheduler(
        cost_model,
        SchedulerConfig(batch_window_s=10.0, max_lanes=cap),
    ).run(requests)
    assert report.isolation_ok()
    hot = next(b for b in report.batches if b.key_group == "hot:k0")
    rare = next(b for b in report.batches if b.key_group == "rare:k0")
    # The full hot batch went first; the rare key aged out at its window
    # close instead of being stranded forever.
    assert hot.start_s < rare.start_s
    assert hot.lanes == cap
    assert rare.lanes == 1
    assert report.completed == cap + 1


def test_scheduler_rare_key_ages_out_at_window_close(cost_model):
    requests = [
        InferenceRequest(request_id=0, arrival_s=0.0, key_group="lonely:k0")
    ]
    report = SlotBatchScheduler(
        cost_model, SchedulerConfig(batch_window_s=0.25)
    ).run(requests)
    assert report.completed == 1
    assert report.batches[0].start_s == pytest.approx(0.25)
    assert report.batches[0].key_group == "lonely:k0"


def test_scheduler_reject_emits_flight_event(cost_model):
    """Satellite: backpressure shows up in dump-on-error windows."""
    requests = [
        InferenceRequest(request_id=i, arrival_s=0.0, key_group="t:k0")
        for i in range(30)
    ]
    with obs.observed():
        obs.reset()
        FLIGHT.clear()
        report = SlotBatchScheduler(
            cost_model,
            SchedulerConfig(batch_window_s=1.0, queue_capacity=20),
        ).run(requests)
        rejects = FLIGHT.events("reject")
        admits = FLIGHT.events("admit")
    assert report.rejected == 10
    assert len(rejects) == 10
    assert len(admits) == 20
    # The reject event mirrors the admit event's shape.
    assert rejects[0]["queue"] == "serve"
    assert rejects[0]["depth"] == 20
    assert rejects[0]["key_group"] == "t:k0"
    assert {e["request_id"] for e in rejects} == set(range(20, 30))


def test_report_roundtrip_preserves_key_groups(cost_model):
    requests = zipf_tenant_arrivals(80, 2000.0, tenant_count=4, seed=2)
    report = SlotBatchScheduler(
        cost_model, SchedulerConfig(batch_window_s=0.2)
    ).run(requests)
    from repro.serve import ServeReport

    clone = ServeReport.from_json(report.to_json())
    assert clone.key_groups == report.key_groups
    assert clone.isolation_ok()
    assert clone.per_key_group() == report.per_key_group()
    assert [b.key_group for b in clone.batches] == [
        b.key_group for b in report.batches
    ]
