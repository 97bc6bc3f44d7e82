"""Benchmark-side spans, recorded only around public calls into ``repro``.

No library code is patched.  Layers are wrapped per instance (so
``HeCnn.forward_encrypted`` stays the entry point), HE ops through an
:class:`~repro.fhe.ops.Evaluator` subclass, and ring kernels through a
delegating backend registered with :func:`repro.fhe.kernels.register_backend`
and selected with :func:`repro.fhe.kernels.using_backend`.  Spans stay in
memory until the run ends, then are aggregated and written as Chrome-trace
JSON.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.fhe import kernels
from repro.fhe.kernels import KernelBackend
from repro.fhe.ops import Evaluator

#: Public Evaluator methods the benchmark networks execute; each gets a span.
HE_OPS = (
    "rotate_fold", "rotate", "rescale", "multiply_plain",
    "multiply_values_rescale", "add", "add_plain", "encode_cached",
    "square_relinearize_rescale", "square", "relinearize",
)

#: Kernel backend methods, grouped into the ``kernels.<group>_ms`` metrics.
KERNEL_GROUPS = {
    "forward": "ntt", "forward_lazy": "ntt", "inverse": "ntt",
    "negacyclic_multiply": "ntt", "apply_galois": "galois",
    "modmul": "elementwise", "modmul_const": "elementwise",
    "modadd": "elementwise", "modsub": "elementwise", "modneg": "elementwise",
}


class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "cat", "start", "end", "parent", "request")

    def __init__(self, name: str, cat: str, parent: int | None,
                 request: int | None) -> None:
        self.name = name
        self.cat = cat
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``request`` tags every span opened after it
    is set (the workload's request, pass or replay index)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, cat: str, fn: Callable, *args, **kwargs) -> Any:
        span = Span(name, cat, self._stack[-1] if self._stack else None,
                    self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, cat: str, fn: Callable) -> Callable:
        def spanned(*args, **kwargs):
            return self.call(name, cat, fn, *args, **kwargs)

        return spanned


def direct_call(name: str, cat: str, fn: Callable, *args, **kwargs) -> Any:
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, children)]


@dataclass
class Totals:
    count: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def totals(spans: list[Span], cat: str) -> dict[str, Totals]:
    """Per-name call count, inclusive and self seconds within one category."""
    out: dict[str, Totals] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.cat != cat:
            continue
        t = out.setdefault(span.name, Totals())
        t.count += 1
        t.inclusive_s += span.duration
        t.self_s += own
    return out


def chrome_trace(spans: list[Span], keep_requests: int) -> dict[str, Any]:
    """Chrome-trace JSON of the spans outside any request and of the first
    ``keep_requests`` requests (a full traced run holds ~10^5 spans)."""
    origin = spans[0].start if spans else 0.0
    events = [
        {
            "name": span.name, "cat": span.cat, "ph": "X", "pid": 1,
            "tid": 1, "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"span": i, "parent": span.parent,
                     "request": span.request},
        }
        for i, span in enumerate(spans)
        if span.request is None or span.request < keep_requests
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- HE ops ---------------------------------------------------------------------


class TracedEvaluator(Evaluator):
    """An Evaluator whose public HE-op methods record a span, then delegate."""

    def __init__(self, context, tracer: Tracer, recorder=None) -> None:
        super().__init__(context, recorder)
        self.tracer = tracer


def _spanned_op(name: str) -> Callable:
    method = getattr(Evaluator, name)

    def op(self, *args, **kwargs):
        return self.tracer.call(name, "op", method, self, *args, **kwargs)

    op.__name__ = name
    return op


for _name in HE_OPS:
    setattr(TracedEvaluator, _name, _spanned_op(_name))


def wrap_layers(model, tracer: Tracer) -> None:
    """Record a span around each layer instance's ``forward``."""
    for layer in model.layers:
        layer.forward = tracer.wrap(layer.name, "layer", layer.forward)


# -- ring kernels ---------------------------------------------------------------


class TracedBackend(KernelBackend):
    """Delegates every kernel to ``inner`` inside a span; bit-identical."""

    name = "bench-traced"

    def __init__(self, inner: KernelBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def context(self, n, primes):
        return self.inner.context(n, primes)

    def plan_keys(self):
        return self.inner.plan_keys()

    def clear_plans(self):
        self.inner.clear_plans()


def _spanned_kernel(name: str) -> Callable:
    def kernel(self, *args):
        # ``forward_lazy`` is optional; callers fall back to ``forward``.
        fn = getattr(self.inner, name, self.inner.forward)
        return self.tracer.call(name, "kernel", fn, *args)

    kernel.__name__ = name
    return kernel


for _name in KERNEL_GROUPS:
    setattr(TracedBackend, _name, _spanned_kernel(_name))


@contextmanager
def traced_kernels(tracer: Tracer) -> Iterator[None]:
    """Route every ring kernel through a :class:`TracedBackend` wrapping the
    currently active backend."""
    backend = TracedBackend(kernels.active_backend(), tracer)
    kernels.register_backend(backend, replace=True)
    with kernels.using_backend(backend.name):
        yield
