"""JSON-ready records of what the serving layer did.

Every record round-trips through ``to_dict``/``from_dict`` (exercised in
the serializer tests) so a bench run, a CI artifact, or a later analysis
session can reload a full serving session without re-running it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Any


@dataclass(frozen=True, slots=True)
class RequestResult:
    """Terminal record of one request.

    ``outcome`` is one of ``"batched"`` / ``"lola"`` / ``"cluster"``
    (completed in that mode), ``"expired"`` (deadline passed before
    dispatch) or ``"rejected"`` (bounded admission queue was full).
    ``start_s`` / ``finish_s`` / ``batch_id`` are ``None`` unless the
    request completed.  ``key_group`` carries the tenant key identity
    through to per-tenant reporting (``None`` = single-key universe).
    """

    request_id: int
    outcome: str
    arrival_s: float
    start_s: float | None = None
    finish_s: float | None = None
    batch_id: int | None = None
    key_group: str | None = None

    OUTCOMES = ("batched", "lola", "cluster", "expired", "rejected")

    def __post_init__(self) -> None:
        if self.outcome not in self.OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")

    @property
    def completed(self) -> bool:
        return self.outcome in ("batched", "lola", "cluster")

    @property
    def latency_s(self) -> float | None:
        """Arrival-to-completion latency; None unless completed."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RequestResult":
        return cls(
            request_id=int(data["request_id"]),
            outcome=str(data["outcome"]),
            arrival_s=float(data["arrival_s"]),
            start_s=None if data.get("start_s") is None
            else float(data["start_s"]),
            finish_s=None if data.get("finish_s") is None
            else float(data["finish_s"]),
            batch_id=None if data.get("batch_id") is None
            else int(data["batch_id"]),
            key_group=None if data.get("key_group") is None
            else str(data["key_group"]),
        )


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One accelerator dispatch: a slot batch or a LoLa degradation run."""

    batch_id: int
    mode: str  # "batched" | "lola" | "cluster"
    lanes: int
    capacity: int
    start_s: float
    finish_s: float
    #: The single key group every lane of this batch belongs to (the
    #: cross-tenant isolation invariant: a batch never mixes keys).
    key_group: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("batched", "lola", "cluster"):
            raise ValueError(f"unknown batch mode {self.mode!r}")
        if not 1 <= self.lanes <= max(1, self.capacity):
            raise ValueError("lanes must be in [1, capacity]")

    @property
    def fill_ratio(self) -> float:
        return self.lanes / self.capacity if self.capacity else 0.0

    @property
    def duration_s(self) -> float:
        return self.finish_s - self.start_s

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BatchRecord":
        return cls(
            batch_id=int(data["batch_id"]),
            mode=str(data["mode"]),
            lanes=int(data["lanes"]),
            capacity=int(data["capacity"]),
            start_s=float(data["start_s"]),
            finish_s=float(data["finish_s"]),
            key_group=None if data.get("key_group") is None
            else str(data["key_group"]),
        )


def _percentile(sorted_values: list[float], p: float) -> float:
    """Exact nearest-rank percentile of an ascending list.

    The serving records report this definition, not the interpolated one
    of :func:`repro.obs.registry.interpolated_percentile`.
    """
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(p / 100 * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(frozen=True)
class ServeReport:
    """Aggregate outcome of one serving session.

    The counts and the makespan walk every result, so each is computed once
    per report (``results`` is a tuple)."""

    results: tuple[RequestResult, ...]
    batches: tuple[BatchRecord, ...]
    config: dict[str, Any]

    @cached_property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.completed)

    @cached_property
    def rejected(self) -> int:
        return sum(1 for r in self.results if r.outcome == "rejected")

    @cached_property
    def expired(self) -> int:
        return sum(1 for r in self.results if r.outcome == "expired")

    @cached_property
    def makespan_s(self) -> float:
        """First arrival to last completion."""
        finishes = [r.finish_s for r in self.results if r.finish_s is not None]
        if not finishes:
            return 0.0
        start = min(r.arrival_s for r in self.results)
        return max(finishes) - start

    @property
    def throughput_images_per_s(self) -> float:
        """Amortized completed images per second of makespan."""
        span = self.makespan_s
        return self.completed / span if span > 0 else 0.0

    @property
    def mean_fill_ratio(self) -> float:
        slot_batches = [
            b for b in self.batches if b.mode in ("batched", "cluster")
        ]
        if not slot_batches:
            return 0.0
        return sum(b.fill_ratio for b in slot_batches) / len(slot_batches)

    def latency_percentiles(self) -> dict[str, float]:
        lats = sorted(
            r.latency_s for r in self.results if r.latency_s is not None
        )
        return {
            "p50": _percentile(lats, 50),
            "p95": _percentile(lats, 95),
            "p99": _percentile(lats, 99),
            "max": lats[-1] if lats else 0.0,
        }

    @property
    def key_groups(self) -> tuple[str, ...]:
        """Distinct key groups seen, sorted (``None`` is excluded)."""
        return tuple(sorted({
            r.key_group for r in self.results if r.key_group is not None
        }))

    def isolation_ok(self) -> bool:
        """The cross-tenant invariant: no batch ever mixed key groups, and
        each batch record names the one group its requests carry."""
        batch_groups: dict[int, set[str | None]] = {}
        for r in self.results:
            if r.batch_id is not None:
                batch_groups.setdefault(r.batch_id, set()).add(r.key_group)
        if any(len(groups) != 1 for groups in batch_groups.values()):
            return False
        return all(
            batch_groups.get(b.batch_id, {b.key_group}) == {b.key_group}
            for b in self.batches
        )

    def per_key_group(self) -> dict[str, dict[str, Any]]:
        """Per-tenant-key serving summary (completion counts, p50/p99)."""
        by_group: dict[str, list[RequestResult]] = {}
        for r in self.results:
            if r.key_group is not None:
                by_group.setdefault(r.key_group, []).append(r)
        out: dict[str, dict[str, Any]] = {}
        for group in sorted(by_group):
            rs = by_group[group]
            lats = sorted(
                r.latency_s for r in rs if r.latency_s is not None
            )
            out[group] = {
                "requests": len(rs),
                "completed": sum(1 for r in rs if r.completed),
                "rejected": sum(1 for r in rs if r.outcome == "rejected"),
                "expired": sum(1 for r in rs if r.outcome == "expired"),
                "latency_p50_s": _percentile(lats, 50),
                "latency_p99_s": _percentile(lats, 99),
            }
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "summary": {
                "completed": self.completed,
                "rejected": self.rejected,
                "expired": self.expired,
                "makespan_s": self.makespan_s,
                "throughput_images_per_s": self.throughput_images_per_s,
                "mean_fill_ratio": self.mean_fill_ratio,
                "latency": self.latency_percentiles(),
                "key_groups": len(self.key_groups),
                "isolation_ok": self.isolation_ok(),
            },
            "results": [r.to_dict() for r in self.results],
            "batches": [b.to_dict() for b in self.batches],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServeReport":
        return cls(
            results=tuple(
                RequestResult.from_dict(r) for r in data["results"]
            ),
            batches=tuple(
                BatchRecord.from_dict(b) for b in data["batches"]
            ),
            config=dict(data["config"]),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServeReport":
        return cls.from_dict(json.loads(text))
