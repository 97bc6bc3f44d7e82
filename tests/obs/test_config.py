"""Observability master switch: scoping and concurrent flips."""

from __future__ import annotations

import threading

from repro import obs


def test_switch_defaults_off_and_scopes_restore():
    assert not obs.enabled()
    with obs.observed():
        assert obs.enabled()
        with obs.observed(False):
            assert not obs.enabled()
        assert obs.enabled()
    assert not obs.enabled()


def test_set_enabled_returns_new_state():
    assert obs.set_enabled(True) is True
    assert obs.enabled()
    assert obs.disable() is False
    assert obs.enable() is True
    obs.disable()


def test_observed_restores_on_exception():
    try:
        with obs.observed():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert not obs.enabled()


def test_concurrent_switch_flips_never_tear():
    """Hammer the flag from many threads; it must end in a clean state."""
    stop = threading.Event()
    errors = []

    def flipper():
        try:
            while not stop.is_set():
                with obs.observed():
                    assert isinstance(obs.enabled(), bool)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=flipper) for _ in range(4)]
    for t in threads:
        t.start()
    for _ in range(200):
        obs.enabled()
    stop.set()
    for t in threads:
        t.join()
    assert not errors

