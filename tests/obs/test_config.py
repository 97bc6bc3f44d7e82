"""Master switch and fast-path config: scoping and concurrent flips."""

from __future__ import annotations

import threading

from repro import obs
from repro.fhe import fastpath


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


def test_fastpath_concurrent_configure_never_tears():
    """Concurrent ``configure`` calls always leave a whole config object.

    (Overlapping ``overridden`` scopes from different threads restore in
    exit order by design; this exercises the locked swap itself.)
    """
    baseline = fastpath.get_config()
    errors = []

    def toggler(flag: str):
        try:
            for i in range(200):
                cfg = fastpath.configure(**{flag: bool(i % 2)})
                assert isinstance(getattr(cfg, flag), bool)
                # Reads see a whole config object, never a torn one.
                assert isinstance(fastpath.get_config().plaintext_cache, bool)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=toggler, args=(flag,))
        for flag in ("plaintext_cache", "hoisted_rotations")
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    fastpath.configure(
        plaintext_cache=baseline.plaintext_cache,
        hoisted_rotations=baseline.hoisted_rotations,
    )
    assert fastpath.get_config() == baseline


def test_fastpath_overridden_scope_restores():
    baseline = fastpath.get_config()
    with fastpath.overridden(hoisted_rotations=False) as cfg:
        assert cfg.hoisted_rotations is False
        assert fastpath.get_config() is cfg
    assert fastpath.get_config() == baseline
    with fastpath.overridden(plaintext_cache=False, hoisted_rotations=False) as cfg:
        assert not (cfg.plaintext_cache or cfg.hoisted_rotations)
    assert fastpath.get_config() == baseline
