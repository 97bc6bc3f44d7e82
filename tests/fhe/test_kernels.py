"""Property tests: every registered kernel backend is bit-identical.

The kernel registry's hard contract is that swapping backends changes
wall-clock time, never bits.  These tests pin every registered backend to
the per-prime reference transforms, exercise the registry's selection
precedence, and hammer mid-flight backend swaps from a second thread to
show in-flight work is never torn.  No tolerances anywhere.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import kernels, ntt
from repro.fhe.modmath import generate_ntt_primes, is_prime, shoup_precompute

_U64 = np.uint64

N = 64
PRIMES = tuple(generate_ntt_primes(24, 3, N))
REFERENCE = kernels.get_backend("reference")


def _rows(seed: int, batch: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            np.stack(
                [
                    rng.integers(0, q, N, dtype=np.int64).astype(_U64)
                    for q in PRIMES
                ]
            )
            for _ in range(batch)
        ]
    )


def _backends() -> list[str]:
    return kernels.available_backends()


# -- bit-identity against the reference backend ------------------------------------


@pytest.mark.parametrize("name", _backends())
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_forward_bit_identical_to_reference(name, seed):
    rows = _rows(seed)
    backend = kernels.get_backend(name)
    got = backend.forward(N, PRIMES, rows)
    expected = REFERENCE.forward(N, PRIMES, rows)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", _backends())
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_inverse_bit_identical_to_reference(name, seed):
    rows = _rows(seed)
    backend = kernels.get_backend(name)
    got = backend.inverse(N, PRIMES, rows)
    expected = REFERENCE.inverse(N, PRIMES, rows)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", _backends())
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_roundtrip_is_identity(name, seed):
    rows = _rows(seed)
    backend = kernels.get_backend(name)
    back = backend.inverse(N, PRIMES, backend.forward(N, PRIMES, rows))
    assert np.array_equal(back, rows)


@pytest.mark.parametrize("name", _backends())
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_negacyclic_multiply_matches_reference(name, seed):
    a = _rows(seed, batch=1)[0]
    b = _rows(seed ^ 0xA5A5, batch=1)[0]
    backend = kernels.get_backend(name)
    got = backend.negacyclic_multiply(N, PRIMES, a, b)
    expected = REFERENCE.negacyclic_multiply(N, PRIMES, a, b)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", _backends())
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    step=st.integers(min_value=1, max_value=N // 2 - 1),
)
@settings(max_examples=10, deadline=None)
def test_apply_galois_matches_reference(name, seed, step):
    g = pow(5, step, 2 * N)
    ntt_rows = REFERENCE.forward(N, PRIMES, _rows(seed, batch=1)[0])
    backend = kernels.get_backend(name)
    got = backend.apply_galois(N, PRIMES, ntt_rows, g)
    expected = REFERENCE.apply_galois(N, PRIMES, ntt_rows, g)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", _backends())
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_modular_elementwise_kernels(name, seed):
    a = _rows(seed, batch=1)[0]
    b = _rows(seed ^ 0x5A5A, batch=1)[0]
    backend = kernels.get_backend(name)
    qs = np.array(PRIMES, dtype=_U64).reshape(-1, 1)
    # Every pairing of the extreme residues 0 and q - 1.
    a[:, :4] = np.array([0, 0, 1, 1], dtype=_U64) * (qs - 1)
    b[:, :4] = np.array([0, 1, 0, 1], dtype=_U64) * (qs - 1)
    assert np.array_equal(backend.modadd(N, PRIMES, a, b), (a + b) % qs)
    assert np.array_equal(
        backend.modsub(N, PRIMES, a, b), (a + qs - b) % qs
    )
    assert np.array_equal(backend.modneg(N, PRIMES, a), (qs - a) % qs)
    expected_mul = (
        a.astype(object) * b.astype(object) % qs.astype(object)
    ).astype(_U64)
    assert np.array_equal(backend.modmul(N, PRIMES, a, b), expected_mul)


@pytest.mark.parametrize("name", _backends())
def test_modmul_const_matches_modmul(name):
    rng = np.random.default_rng(7)
    a = _rows(11, batch=1)[0]
    qs = np.array(PRIMES, dtype=_U64).reshape(-1, 1)
    consts = np.stack(
        [rng.integers(0, q, N, dtype=np.int64).astype(_U64) for q in PRIMES]
    )
    backend = kernels.get_backend(name)
    got = backend.modmul_const(
        N, PRIMES, a, consts, shoup_precompute(consts, qs)
    )
    assert np.array_equal(got, backend.modmul(N, PRIMES, a, consts))


# -- montgomery at the networks' shapes ---------------------------------------------

#: ``(N, prime bits, primes)`` of the stacks the networks transform: Tiny at
#: N=512 (7 primes, here 30-bit ones, the widest the matrix NTT takes, where
#: the network uses 28-bit ones) and MNIST at N=2048 (7 primes plus P).
NETWORK_SHAPES = [
    (n, bits, level)
    for n, bits, top in ((512, 30, 7), (2048, 28, 8))
    for level in (1, 2, top)
]
NETWORK_ROWS = (1, 2, 5, 25)


def _stack(n, bits, level, rows, seed):
    primes = tuple(generate_ntt_primes(bits, level, n))
    qs = np.array(primes, dtype=_U64).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    return primes, rng.integers(0, 2**62, (rows, level, n)).astype(_U64) % qs


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("rows", NETWORK_ROWS)
@pytest.mark.parametrize("n,bits,level", NETWORK_SHAPES)
def test_montgomery_matches_reference_at_network_shapes(
    n, bits, level, rows, direction
):
    primes, stack = _stack(n, bits, level, rows, seed=n + 10 * level + rows)
    got = getattr(kernels.get_backend("montgomery"), direction)(n, primes, stack)
    assert np.array_equal(got, getattr(REFERENCE, direction)(n, primes, stack))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("rows", [2, 5])
def test_montgomery_matches_reference_on_worst_case_residues(rows, direction):
    """Every residue ``q - 1`` drives every limb product to its bound."""
    primes, stack = _stack(2048, 28, 8, rows, seed=0)
    stack[...] = np.array(primes, dtype=_U64).reshape(-1, 1) - 1
    got = getattr(kernels.get_backend("montgomery"), direction)(2048, primes, stack)
    assert np.array_equal(got, getattr(REFERENCE, direction)(2048, primes, stack))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("rows", [1, 3])
def test_montgomery_exact_at_its_bound(rows, direction):
    """N=16384 (128 x 128 products) with 30-bit primes and every residue
    ``q - 1``: each product sums 128 limb products of their largest size."""
    n = 16384
    primes, stack = _stack(n, 30, 2, rows, seed=0)
    stack[...] = np.array(primes, dtype=_U64).reshape(-1, 1) - 1
    backend = kernels.MontgomeryBackend()
    got = getattr(backend, direction)(n, primes, stack)
    assert np.array_equal(got, getattr(REFERENCE, direction)(n, primes, stack))


def _wide_ntt_prime(n: int) -> int:
    """The smallest 31-bit prime ``q = 1 (mod 2n)``, wider than the ring
    code's primes."""
    return next(q for q in range(2**30 + 1, 2**31, 2 * n) if is_prime(q))


@pytest.mark.parametrize("n,wide", [(32768, False), (64, True)])
def test_montgomery_rejects_a_plan_past_its_bound(monkeypatch, n, wide):
    """A ring past 128 x 128 or a prime of more than 30 bits raises before
    any table is built."""

    def build(plan, inverse):
        raise AssertionError("built a table past the bound")

    monkeypatch.setattr(kernels.MontgomeryPlan, "_build", build)
    primes = (_wide_ntt_prime(n),) if wide else tuple(generate_ntt_primes(30, 1, n))
    backend = kernels.MontgomeryBackend()
    with pytest.raises(ValueError, match="exact up to"):
        backend.forward(n, primes, np.zeros((1, n), dtype=_U64))
    with pytest.raises(ValueError, match="exact up to"):
        kernels.MontgomeryPlan(n, primes)
    assert backend.plan_keys() == []


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("rows", [2, 25])
def test_montgomery_matches_reference_one_prime_at_a_time(rows, direction):
    """N=8192 with 8 primes: one row of the stack exceeds ``CHUNK_ELEMS``,
    so the plan runs it one prime at a time, four rows per chunk."""
    n = 8192
    primes, stack = _stack(n, 28, 8, rows, seed=rows)
    backend = kernels.MontgomeryBackend()
    got = getattr(backend, direction)(n, primes, stack)
    plan = backend.plan(n, primes)
    assert plan.runs == [(i, i + 1, i) for i in range(8)]
    assert [run[4] for run in plan._direction(direction == "inverse")] == [4] * 8
    assert np.array_equal(got, getattr(REFERENCE, direction)(n, primes, stack))


@pytest.fixture
def declared(monkeypatch):
    """A private registry of declared chains, so a test's declarations
    leave no trace in other tests."""
    monkeypatch.setattr(ntt, "_CHAINS", {})
    return ntt.declare_chain


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_declared_chain_plans_are_views_of_one_stack(declared, direction):
    """A prefix, a single prime, ``P`` and ``(q_1 .. q_l, P)`` of a declared
    chain match the reference from runs viewing the chain's one stack: no
    plan but the chain's owns a table."""
    n, rows, inverse = 2048, 3, direction == "inverse"
    chain, stack = _stack(n, 28, 5, rows, seed=7)
    declared(n, chain)
    backend = kernels.MontgomeryBackend()
    runs = {chain[:3]: 1, chain[2:3]: 1, chain[-1:]: 1, chain[:3] + chain[-1:]: 2}
    for primes in runs:
        values = stack[:, [chain.index(q) for q in primes]]
        got = getattr(backend, direction)(n, primes, values)
        assert np.array_equal(got, getattr(REFERENCE, direction)(n, primes, values))
    owner = backend.plan(n, chain)
    owned = {id(limb) for pair in owner.tables(inverse) for limb in pair}
    for primes, count in runs.items():
        plan = backend.plan(n, primes)
        assert plan.stack is owner and len(plan.runs) == count
        assert all(
            id(limb.base) in owned
            for run in plan._direction(inverse) for pair in run[2] for limb in pair
        )
    assert sorted(backend.plan_keys()) == sorted((n, p) for p in [chain, *runs])


def test_clear_caches_drops_declared_stacks():
    """``clear_caches`` drops every plan and declared chain; a context built
    afterwards declares its chain again and encrypts bit-identically."""
    from repro.fhe import CkksContext, clear_caches, registry_info, tiny_test_params

    params = tiny_test_params(poly_degree=512, level=3)
    values = np.linspace(-1, 1, params.slot_count)
    with kernels.using_backend("montgomery"):
        ctx = CkksContext(params, seed=5)
        first = ctx.encrypt_values(values)
        chain = ctx.chain_primes + (ctx.special_prime,)
        assert (512, chain) in registry_info()["chains"]
        clear_caches()
        assert kernels.plans_info() == {}
        assert registry_info()["chains"] == []
        again = CkksContext(params, seed=5).encrypt_values(values)
        assert kernels.plans_info()["montgomery"]
    for a, b in zip(first.components, again.components):
        assert np.array_equal(a.residues, b.residues)


def test_first_transforms_build_each_plan_table_once(monkeypatch, declared):
    """Threads making the first forward and inverse on a declared chain's
    plan and on its prefix's plan at once each get the reference's bits,
    from tables built once per direction."""
    n, chain = 2048, tuple(generate_ntt_primes(28, 4, 2048))
    declared(n, chain)
    builds = {"forward": 0, "inverse": 0}
    build = kernels.MontgomeryPlan._build

    def slow(plan, inverse):
        builds["inverse" if inverse else "forward"] += 1
        time.sleep(0.05)  # widen the window for a second builder
        return build(plan, inverse)

    monkeypatch.setattr(kernels.MontgomeryPlan, "_build", slow)
    backend = kernels.MontgomeryBackend()
    stacks = [_stack(n, 28, 4, rows, seed=rows)[1] for rows in (1, 3)]
    jobs = [
        (d, primes, s[:, :len(primes)])
        for d in builds for s in stacks for primes in (chain, chain[:2])
    ]
    barrier = threading.Barrier(len(jobs))
    matched: list[bool] = []

    def worker(direction, primes, stack):
        barrier.wait(timeout=30)
        got = getattr(backend, direction)(n, primes, stack)
        expected = getattr(REFERENCE, direction)(n, primes, stack)
        matched.append(np.array_equal(got, expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert matched == [True] * len(jobs)
    assert builds == {"forward": 1, "inverse": 1}
    assert backend.plan(n, chain[:2]).stack is backend.plan(n, chain)


# -- registry selection ------------------------------------------------------------


@pytest.fixture
def no_env_backend(monkeypatch):
    """Run with the built-in default, whatever the CI leg's env selects."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)


def test_default_backend_is_registered(no_env_backend):
    assert kernels.available_backends() == ["montgomery", "reference"]
    assert kernels.DEFAULT_BACKEND in kernels.available_backends()
    assert kernels.active_backend().name == kernels.DEFAULT_BACKEND


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "reference")
    assert kernels.active_backend().name == "reference"


def test_explicit_selection_beats_env(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "reference")
    kernels.set_backend("montgomery")
    try:
        assert kernels.active_backend().name == "montgomery"
    finally:
        kernels.set_backend(None)
    assert kernels.active_backend().name == "reference"


def test_using_backend_restores_previous(no_env_backend):
    with kernels.using_backend("reference"):
        assert kernels.active_backend().name == "reference"
        with kernels.using_backend("montgomery"):
            assert kernels.active_backend().name == "montgomery"
        assert kernels.active_backend().name == "reference"
    assert kernels.active_backend().name == kernels.DEFAULT_BACKEND


def test_unknown_backend_raises_with_catalog():
    with pytest.raises(KeyError, match="montgomery"):
        kernels.get_backend("no-such-backend")
    with pytest.raises(KeyError):
        kernels.set_backend("no-such-backend")


def test_register_rejects_duplicates_and_abstract():
    backend = kernels.MontgomeryBackend()
    with pytest.raises(ValueError, match="already registered"):
        kernels.register_backend(backend)
    abstract = kernels.KernelBackend()
    with pytest.raises(ValueError, match="concrete name"):
        kernels.register_backend(abstract)


def test_plans_info_and_clear_plans():
    backend = kernels.get_backend("montgomery")
    backend.forward(N, PRIMES, _rows(1, batch=1))
    assert (N, PRIMES) in backend.plan_keys()
    assert "montgomery" in kernels.plans_info()
    kernels.clear_plans()
    assert backend.plan_keys() == []


# -- mid-swap concurrency ----------------------------------------------------------


def test_concurrent_backend_swaps_never_tear_results(no_env_backend):
    """Worker threads run forward/inverse round trips while the main thread
    flips the active backend; every result must stay bit-identical."""
    rows = _rows(42)
    expected = REFERENCE.forward(N, PRIMES, rows)
    stop = threading.Event()
    failures: list[str] = []

    def worker():
        while not stop.is_set():
            backend = kernels.active_backend()
            got = backend.forward(N, PRIMES, rows)
            if not np.array_equal(got, expected):
                failures.append(backend.name)
                return
            back = backend.inverse(N, PRIMES, got)
            if not np.array_equal(back, rows):
                failures.append(f"{backend.name}:roundtrip")
                return

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        names = kernels.available_backends()
        for i in range(60):
            kernels.set_backend(names[i % len(names)])
    finally:
        kernels.set_backend(None)
        stop.set()
        for t in threads:
            t.join(timeout=30)
    assert not failures
    assert kernels.active_backend().name == kernels.DEFAULT_BACKEND

