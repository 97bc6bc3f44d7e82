"""Inference requests as the scheduler sees them.

A request stands for one image awaiting classification.  The serving
loop sees only its timing, trace ID and key group; how long a batch runs
comes from the executor's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class InferenceRequest:
    """One single-image inference request.

    ``arrival_s`` and ``deadline_s`` are absolute virtual seconds on the
    serving loop's clock.  ``deadline_s=None`` means the request never
    expires.
    """

    request_id: int
    arrival_s: float = 0.0
    deadline_s: float | None = None
    #: End-to-end trace ID carried through scheduling, batching and every
    #: pipeline stage; ``None`` means no caller-assigned trace (the
    #: schedulers then derive a stable ID from ``request_id``).
    trace_id: str | None = field(default=None, compare=False)
    #: The tenant key group this request's ciphertexts live under (see
    #: :mod:`repro.serve.tenants`).  Requests only share a slot batch
    #: with requests of the *same* key group — lanes of one ciphertext
    #: stream all decrypt under one key.  ``None`` is the legacy
    #: single-key universe: all ``None`` requests batch together.
    key_group: str | None = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s < self.arrival_s:
            raise ValueError("deadline_s must be >= arrival_s")

    def expired(self, now_s: float) -> bool:
        return self.deadline_s is not None and now_s > self.deadline_s

    @property
    def trace_ref(self) -> str:
        """The effective trace ID: assigned, or derived from the ID.

        Deriving (rather than mutating the frozen request) keeps every
        emitter — admission, batch, stage, response — agreeing on one ID
        without the traffic generators having to know about tracing.
        """
        if self.trace_id is not None:
            return self.trace_id
        return f"req-{self.request_id:06d}"
