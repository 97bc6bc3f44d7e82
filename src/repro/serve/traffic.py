"""Deterministic arrival processes for serving experiments.

All generators return :class:`~repro.serve.request.InferenceRequest`
lists sorted by arrival time and are fully determined by their arguments
(Poisson arrivals via a seeded generator), so every bench and test run is
reproducible.

:func:`zipf_tenant_arrivals` is the multi-tenant workload shape: a
Poisson arrival stream whose requests are assigned to tenants by a
zipf-ranked draw — a few hot tenants own most of the traffic and a long
tail of cold tenants trickles in, the realistic millions-of-users
population every per-key batching and caching decision must survive.
"""

from __future__ import annotations

import numpy as np

from .request import InferenceRequest
from .tenants import TIERS, TenantRegistry


def uniform_arrivals(
    count: int,
    rate_per_s: float,
    deadline_s: float | None = None,
) -> list[InferenceRequest]:
    """``count`` requests at exactly ``rate_per_s``, evenly spaced."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be > 0")
    gap = 1.0 / rate_per_s
    return [
        InferenceRequest(
            request_id=i,
            arrival_s=i * gap,
            deadline_s=None if deadline_s is None else i * gap + deadline_s,
        )
        for i in range(count)
    ]


def poisson_arrivals(
    count: int,
    rate_per_s: float,
    seed: int = 0,
    deadline_s: float | None = None,
) -> list[InferenceRequest]:
    """Memoryless arrivals at mean ``rate_per_s`` (seeded, reproducible)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be > 0")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=count)
    times = np.cumsum(gaps)
    return [
        InferenceRequest(
            request_id=i,
            arrival_s=float(t),
            deadline_s=None if deadline_s is None else float(t) + deadline_s,
        )
        for i, t in enumerate(times)
    ]


def zipf_shares(tenant_count: int, s: float = 1.1) -> np.ndarray:
    """Normalized zipf(``s``) traffic shares over ranks ``1..tenant_count``.

    Truncated (finite population) rather than ``numpy``'s unbounded zipf
    sampler, so the distribution is exact and the draw below stays
    deterministic under a fixed seed across numpy versions.
    """
    if tenant_count < 1:
        raise ValueError("tenant_count must be >= 1")
    if s <= 0:
        raise ValueError("s must be > 0")
    weights = 1.0 / np.arange(1, tenant_count + 1, dtype=float) ** s
    return weights / weights.sum()


def tier_of_rank(rank: int, tenant_count: int) -> str:
    """Map a zipf rank (0-based, hottest first) onto a service tier.

    The head decile is ``hot``, the next three deciles ``warm``, the
    tail ``cold`` — tiny populations always keep at least one hot
    tenant.
    """
    if not 0 <= rank < tenant_count:
        raise ValueError(f"rank must be in [0, {tenant_count})")
    if rank <= max(0, tenant_count // 10 - 1):
        return TIERS[0]
    if rank < tenant_count * 4 // 10:
        return TIERS[1]
    return TIERS[2]


def zipf_tenant_arrivals(
    count: int,
    rate_per_s: float,
    tenant_count: int,
    s: float = 1.1,
    seed: int = 0,
    deadline_s: float | None = None,
    registry: TenantRegistry | None = None,
) -> list[InferenceRequest]:
    """Poisson arrivals spread over a zipf-ranked tenant population.

    Each request carries the key group of its tenant (``tenant-0000`` is
    the hottest rank).  When ``registry`` is given, tenants are
    registered there (with tiers from :func:`tier_of_rank`) and key
    groups come from the registry — so a pre-rotated registry hands out
    post-rotation key groups; otherwise epoch-0 groups are synthesized.
    Fully deterministic under a fixed ``seed``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be > 0")
    shares = zipf_shares(tenant_count, s)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=count)
    times = np.cumsum(gaps)
    ranks = rng.choice(tenant_count, size=count, p=shares)
    key_groups = []
    for rank in range(tenant_count):
        tenant_id = f"tenant-{rank:04d}"
        if registry is not None:
            tenant = registry.register(
                tenant_id, tier=tier_of_rank(rank, tenant_count)
            )
            key_groups.append(tenant.key_group)
        else:
            key_groups.append(f"{tenant_id}:k0")
    return [
        InferenceRequest(
            request_id=i,
            arrival_s=float(t),
            deadline_s=None if deadline_s is None else float(t) + deadline_s,
            key_group=key_groups[int(rank)],
        )
        for i, (t, rank) in enumerate(zip(times, ranks))
    ]


def _thinned_poisson(
    duration_s: float,
    rate_fn,
    max_rate_per_s: float,
    seed: int,
    deadline_s: float | None,
) -> list[InferenceRequest]:
    """Inhomogeneous Poisson arrivals over ``[0, duration_s)`` by thinning.

    Candidate arrivals are drawn from a homogeneous process at
    ``max_rate_per_s`` and kept with probability ``rate_fn(t) / max``;
    the result is an exact draw from the inhomogeneous process with
    intensity ``rate_fn`` as long as ``rate_fn(t) <= max_rate_per_s``
    everywhere.  Deterministic under ``seed``.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    if max_rate_per_s <= 0:
        raise ValueError("max rate must be > 0")
    rng = np.random.default_rng(seed)
    requests: list[InferenceRequest] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / max_rate_per_s))
        if t >= duration_s:
            break
        if rng.random() * max_rate_per_s <= rate_fn(t):
            requests.append(
                InferenceRequest(
                    request_id=len(requests),
                    arrival_s=t,
                    deadline_s=None if deadline_s is None
                    else t + deadline_s,
                )
            )
    return requests


def diurnal_arrivals(
    duration_s: float,
    base_rate_per_s: float,
    peak_rate_per_s: float,
    period_s: float,
    seed: int = 0,
    deadline_s: float | None = None,
) -> list[InferenceRequest]:
    """A day/night load curve: sinusoidal rate between base and peak.

    The rate starts at ``base_rate_per_s`` (trough), crests at
    ``peak_rate_per_s`` half a period in, and returns — the capacity-vs-
    demand shape an autoscaler must track without flapping.  Exact
    inhomogeneous Poisson via thinning; deterministic under ``seed``.
    """
    if base_rate_per_s <= 0 or peak_rate_per_s < base_rate_per_s:
        raise ValueError("need 0 < base_rate_per_s <= peak_rate_per_s")
    if period_s <= 0:
        raise ValueError("period_s must be > 0")
    swing = peak_rate_per_s - base_rate_per_s

    def rate(t: float) -> float:
        phase = 2.0 * np.pi * t / period_s
        return base_rate_per_s + swing * (1.0 - np.cos(phase)) / 2.0

    return _thinned_poisson(
        duration_s, rate, peak_rate_per_s, seed, deadline_s
    )


def flash_crowd_arrivals(
    duration_s: float,
    base_rate_per_s: float,
    surge_start_s: float,
    surge_duration_s: float,
    surge_multiplier: float = 10.0,
    seed: int = 0,
    deadline_s: float | None = None,
) -> list[InferenceRequest]:
    """Steady traffic with one rectangular surge (default 10×).

    The flash-crowd stress case: rate jumps to ``surge_multiplier *
    base_rate_per_s`` for ``surge_duration_s`` starting at
    ``surge_start_s``, then collapses back.  Deterministic under
    ``seed``.
    """
    if base_rate_per_s <= 0:
        raise ValueError("base_rate_per_s must be > 0")
    if surge_multiplier < 1.0:
        raise ValueError("surge_multiplier must be >= 1")
    if surge_start_s < 0 or surge_duration_s < 0:
        raise ValueError("surge window must be non-negative")
    surge_end_s = surge_start_s + surge_duration_s

    def rate(t: float) -> float:
        if surge_start_s <= t < surge_end_s:
            return base_rate_per_s * surge_multiplier
        return base_rate_per_s

    return _thinned_poisson(
        duration_s, rate, base_rate_per_s * surge_multiplier, seed,
        deadline_s,
    )


def merge_arrivals(
    *streams: list[InferenceRequest],
) -> list[InferenceRequest]:
    """Superpose arrival streams into one, renumbered by arrival order.

    Merging independent Poisson streams yields a Poisson stream at the
    summed rate, so composite workloads (diurnal baseline + flash-crowd
    surge) are built by generating each component separately and merging.
    Deadlines, trace IDs and key groups are preserved; ``request_id`` is
    reassigned to match the merged arrival order.
    """
    merged = sorted(
        (req for stream in streams for req in stream),
        key=lambda r: (r.arrival_s, r.request_id),
    )
    return [
        InferenceRequest(
            request_id=i,
            arrival_s=req.arrival_s,
            deadline_s=req.deadline_s,
            trace_id=req.trace_id,
            key_group=req.key_group,
        )
        for i, req in enumerate(merged)
    ]


def burst_arrivals(
    bursts: int,
    burst_size: int,
    gap_s: float,
    deadline_s: float | None = None,
) -> list[InferenceRequest]:
    """``bursts`` instantaneous bursts of ``burst_size``, ``gap_s`` apart.

    The adversarial case for a batch window: each burst either fills a
    batch at once or strands a partial batch until the window closes.
    """
    if bursts < 0 or burst_size < 1:
        raise ValueError("bursts must be >= 0 and burst_size >= 1")
    if gap_s < 0:
        raise ValueError("gap_s must be >= 0")
    requests = []
    for b in range(bursts):
        t = b * gap_s
        for j in range(burst_size):
            requests.append(
                InferenceRequest(
                    request_id=b * burst_size + j,
                    arrival_s=t,
                    deadline_s=None if deadline_s is None
                    else t + deadline_s,
                )
            )
    return requests
