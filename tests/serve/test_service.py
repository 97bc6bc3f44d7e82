"""Threaded service: real batching, backpressure, deadlines, shutdown.

The executor is a stub that records what it was asked to run — the
scheduling behavior under test is the service's, not the model's.  One
test at the end drives a real (tiny) CKKS inference through the service
via the context cache to prove the plumbing end to end.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.caching import LruCache
from repro.serve import (
    BackpressureError,
    InferenceService,
    ServiceClosed,
)


class RecordingExecutor:
    """Echoes payloads; remembers every dispatched (lanes, mode) pair."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.calls: list[tuple[int, str]] = []
        self._lock = threading.Lock()

    def __call__(self, requests, mode):
        with self._lock:
            self.calls.append((len(requests), mode))
        if self.delay_s:
            time.sleep(self.delay_s)
        return [req.payload for req in requests]


def test_full_batch_dispatches_immediately():
    ex = RecordingExecutor()
    with InferenceService(
        ex, capacity=4, batch_window_s=30.0, queue_capacity=16
    ) as svc:
        futures = [svc.submit(i) for i in range(4)]
        # A full batch must not wait for the 30 s window.
        results = [f.result(timeout=5.0) for f in futures]
    assert results == [0, 1, 2, 3]
    assert ex.calls == [(4, "batched")]


def test_window_flushes_partial_batch():
    ex = RecordingExecutor()
    with InferenceService(
        ex, capacity=64, batch_window_s=0.05, queue_capacity=16
    ) as svc:
        futures = [svc.submit(i) for i in range(3)]
        results = [f.result(timeout=5.0) for f in futures]
    assert results == [0, 1, 2]
    assert ex.calls == [(3, "batched")]


def test_degrades_below_cost_crossover(cost_model):
    ex = RecordingExecutor()
    crossover = cost_model.crossover_lanes()
    assert crossover > 2  # MNIST/ACU9EG sits near 50
    with InferenceService(
        ex, capacity=256, batch_window_s=0.05, queue_capacity=16,
        cost_model=cost_model,
    ) as svc:
        futures = [svc.submit(i) for i in range(2)]
        [f.result(timeout=5.0) for f in futures]
    assert ex.calls == [(2, "lola")]


def test_backpressure_rejects_when_queue_full():
    ex = RecordingExecutor(delay_s=0.2)
    svc = InferenceService(
        ex, capacity=2, batch_window_s=0.0, queue_capacity=2
    )
    try:
        accepted, rejected = [], 0
        for i in range(40):
            try:
                accepted.append(svc.submit(i))
            except BackpressureError:
                rejected += 1
        assert rejected > 0
        for f in accepted:
            f.result(timeout=10.0)
        report = svc.report()
        assert report.rejected == rejected
    finally:
        svc.close()


def test_deadline_expires_queued_request():
    ex = RecordingExecutor()
    with InferenceService(
        ex, capacity=64, batch_window_s=0.3, queue_capacity=16
    ) as svc:
        doomed = svc.submit("x", deadline_s=0.01)
        with pytest.raises(TimeoutError):
            doomed.result(timeout=5.0)
        report_outcomes = {
            r.outcome for r in svc.report().results
        }
    assert report_outcomes == {"expired"}
    assert ex.calls == []  # nothing reached the executor


def test_close_drains_queue():
    ex = RecordingExecutor()
    svc = InferenceService(
        ex, capacity=64, batch_window_s=60.0, queue_capacity=16
    )
    futures = [svc.submit(i) for i in range(5)]
    svc.close()  # window still open: close must flush the partial batch
    assert [f.result(timeout=1.0) for f in futures] == [0, 1, 2, 3, 4]
    with pytest.raises(ServiceClosed):
        svc.submit(99)


def test_executor_failure_propagates_to_futures():
    def boom(requests, mode):
        raise RuntimeError("kernel fault")

    with InferenceService(
        boom, capacity=2, batch_window_s=0.0, queue_capacity=4
    ) as svc:
        f = svc.submit("x")
        with pytest.raises(RuntimeError, match="kernel fault"):
            f.result(timeout=5.0)


def test_report_round_trips(cost_model):
    from repro.serve import ServeReport

    ex = RecordingExecutor()
    with InferenceService(
        ex, capacity=4, batch_window_s=0.02, queue_capacity=16
    ) as svc:
        futures = [svc.submit(i) for i in range(6)]
        [f.result(timeout=5.0) for f in futures]
        report = svc.report()
    clone = ServeReport.from_json(report.to_json())
    assert clone == report


def test_real_ckks_execution_through_service():
    """End to end: cached tiny context + model, real encrypted batches."""
    import numpy as np

    from repro.fhe import CkksContext, tiny_test_params
    from repro.hecnn import tiny_mnist_model

    contexts = LruCache(8, name="context", flight=True)

    def provision():
        params = tiny_test_params(poly_degree=512, level=7)
        model = tiny_mnist_model(seed=0, params=params)
        context = CkksContext(params, seed=1)
        model.provision_keys(context)
        return context, model

    key = ("tiny", 512, 7)

    def execute(requests, mode):
        context, model = contexts.get_or_create(key, provision)
        return [
            model.infer(context, req.payload) for req in requests
        ]

    rng = np.random.default_rng(5)
    images = [rng.uniform(0, 1, (1, 8, 8)) for _ in range(2)]
    with InferenceService(
        execute, capacity=2, batch_window_s=5.0, queue_capacity=4
    ) as svc:
        futures = [svc.submit(img) for img in images]
        logits = [f.result(timeout=120.0) for f in futures]

    _, model = contexts.get_or_create(key, provision)
    assert contexts.stats().misses == 1  # provisioned exactly once
    for img, enc in zip(images, logits):
        plain = model.infer_plain(img)
        assert np.argmax(enc) == np.argmax(plain)
