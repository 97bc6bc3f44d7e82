"""Design / context cache semantics: identity, reuse, DSE skipping."""

from __future__ import annotations

from repro import obs
from repro.caching import LruCache
from repro.hecnn import cryptonets_mnist_batched, fxhenn_mnist_model
from repro.serve import DesignCache, DesignKey


def test_design_key_identity(dev9):
    trace = fxhenn_mnist_model().trace()
    a = DesignKey.of(trace, dev9)
    b = DesignKey.of(trace, dev9)
    assert a == b and hash(a) == hash(b)
    c = DesignKey.of(trace, dev9, dsp_limit=600)
    assert a != c
    assert a.as_dict()["network"] == trace.name


def test_design_key_ignores_batch_lanes(dev9):
    """Partial batches share the full batch's design (same trace cost)."""
    full = DesignKey.of(cryptonets_mnist_batched(), dev9)
    partial = DesignKey.of(cryptonets_mnist_batched(lanes=100), dev9)
    assert full == partial


def test_design_cache_skips_repeat_dse(dev9):
    trace = fxhenn_mnist_model().trace()
    cache = DesignCache()
    with obs.observed():
        obs.reset()
        first = cache.get(trace, dev9)
        scanned_cold = obs.get_registry().counter(
            "dse_points_scanned"
        ).value
        second = cache.get(trace, dev9)
        scanned_warm = obs.get_registry().counter(
            "dse_points_scanned"
        ).value
    assert scanned_cold > 0
    assert scanned_warm == scanned_cold  # no second scan
    assert second is first
    stats = cache.stats()
    assert stats.misses == 1 and stats.hits == 1
    assert len(cache) == 1


def test_design_cache_distinguishes_limits(dev9):
    trace = fxhenn_mnist_model().trace()
    cache = DesignCache()
    unlimited = cache.get(trace, dev9)
    tight = cache.get(trace, dev9, dsp_limit=600)
    assert tight is not unlimited
    assert tight.solution.dsp_usage <= 600
    assert len(cache) == 2


def test_context_cache_builds_once():
    cache = LruCache(2, name="context", flight=True)
    built = []

    def factory():
        built.append(1)
        return object()

    first = cache.get_or_create(("tiny", 512, 0), factory)
    second = cache.get_or_create(("tiny", 512, 0), factory)
    assert second is first
    assert len(built) == 1
    assert cache.stats().hits == 1
    cache.clear()
    assert len(cache) == 0
