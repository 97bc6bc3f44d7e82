"""Percentile, self-time and request-check maths of the benchmark."""

import numpy as np
import pytest

from spans import Tracer, self_times, totals
from workloads import check_request, percentile, timed_loop


@pytest.mark.parametrize("p", [0, 25, 50, 90, 95, 99, 100])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_percentile_matches_numpy(n, p):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    spans = tracer.spans

    def middle():
        tracer.call("leaf", "c", lambda: None)
        tracer.call("leaf", "c", lambda: None)

    tracer.call("root", "a", lambda: tracer.call("mid", "b", middle))
    # Pin exact timestamps: root [0, 10], mid [1, 9], leaves [2, 3], [4, 6].
    for span, (start, end) in zip(spans, [(0, 10), (1, 9), (2, 3), (4, 6)]):
        span.start, span.end = start, end
    assert [s.parent for s in spans] == [None, 0, 1, 1]
    assert self_times(spans) == [2, 5, 1, 2]
    leaves = totals(spans, "c")["leaf"]
    assert (leaves.count, leaves.inclusive_s, leaves.self_s) == (2, 3, 3)


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tracer.call("boom", "x", boom)
    tracer.call("after", "x", lambda: None)
    assert tracer.spans[1].parent is None
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_timed_loop_runs_at_least_once():
    assert timed_loop(0.0, lambda i: float(i)) == [0.0]


def _flipped_near_tie(margin: float, err: float):
    """Plaintext logits with a top-2 ``margin`` and a decryption that moves
    the two leaders toward each other by ``err`` each, flipping them."""
    plain = np.array([0.2, 1.0, 1.0 + margin])
    got = plain + np.array([0.0, err, -err])
    assert int(np.argmax(got)) != int(np.argmax(plain))
    return got, plain


@pytest.mark.parametrize("margin, err", [
    (0.0088, 0.061),  # MNIST synthetic image 8
    (0.0037, 0.0033),  # Tiny image 149 at seed 0
])
def test_near_tie_flip_is_not_a_failure(margin, err):
    ok, measured = check_request(*_flipped_near_tie(margin, err))
    assert ok and measured == pytest.approx(err)


def test_a_flip_needs_a_margin_within_twice_the_error():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        plain = rng.normal(size=10)
        got = plain + rng.normal(scale=rng.uniform(0.01, 1.0), size=10)
        if int(np.argmax(got)) != int(np.argmax(plain)):
            second, first = np.sort(plain)[-2:]
            assert first - second <= 2 * check_request(got, plain)[1]


@pytest.mark.parametrize("bad", [0.6, np.nan, np.inf])
def test_error_above_tolerance_or_not_finite_fails(bad):
    plain = np.array([0.1, 2.0, 0.3])
    got = plain.copy()
    got[0] += bad
    assert not check_request(got, plain)[0]
    assert check_request(plain + 0.4, plain)[0]
