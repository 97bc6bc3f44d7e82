"""End-to-end network tests: encrypted inference == plaintext reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.fhe import (
    CkksContext,
    CkksParameters,
    Evaluator,
    GaloisKeys,
    OperationRecorder,
    clear_caches,
    fxhenn_mnist_params,
    get_batched_ntt_context,
    kernels,
    registry_info,
    tiny_test_params,
)
from repro.hecnn import fxhenn_mnist_model, synthetic_mnist_image, tiny_mnist_model


def test_tiny_end_to_end(tiny_model, tiny_ctx, tiny_image):
    plain = tiny_model.infer_plain(tiny_image)
    enc = tiny_model.infer(tiny_ctx, tiny_image)
    assert enc.shape == plain.shape
    assert np.allclose(enc, plain, atol=2e-2)


def test_tiny_argmax_agrees(tiny_model, tiny_ctx):
    rng = np.random.default_rng(77)
    for i in range(3):
        img = rng.uniform(0, 1, (1, 8, 8))
        plain = tiny_model.infer_plain(img)
        enc = tiny_model.infer(tiny_ctx, img)
        assert int(np.argmax(enc)) == int(np.argmax(plain))


def test_recorded_ops_match_trace(tiny_model, tiny_ctx, tiny_image):
    """The analytic trace predicts the executed operations exactly."""
    rec = OperationRecorder()
    tiny_model.infer(tiny_ctx, tiny_image, recorder=rec)
    trace = tiny_model.trace()
    for layer_trace in trace.layers:
        assert rec.by_phase[layer_trace.name] == layer_trace.op_counts, (
            layer_trace.name
        )
    assert rec.total == trace.hop_count


def test_plaintext_count_is_the_encoded_plaintexts(
    tiny_model, tiny_ctx, tiny_image, encoded_plaintexts
):
    """Each layer's plaintext count is what its forward pass encodes; the
    unmerged Fc2 encodes one bias per chunk."""
    encoded = encoded_plaintexts(tiny_model, tiny_ctx, tiny_image)
    counts = [lt.plaintext_count for lt in tiny_model.trace().layers]
    assert counts == [len(pairs) for pairs in encoded]
    assert tiny_model.trace().layer("Fc2").plaintext_count == 4 + 4


def test_entry_levels_account_for_masks(tiny_model):
    levels = tiny_model.layer_entry_levels()
    assert levels[0] == tiny_model.base_level
    diffs = [a - b for a, b in zip(levels, levels[1:])]
    consumed = [layer.levels_consumed for layer in tiny_model.layers[:-1]]
    assert diffs == consumed


def test_network_requires_conv_first(tiny_model):
    from repro.hecnn import HeCnn

    with pytest.raises(ValueError):
        HeCnn(
            name="bad",
            poly_degree=512,
            base_level=7,
            input_packing=tiny_model.input_packing,
            layers=tiny_model.layers[1:],
            plain_reference=tiny_model.plain_reference,
        )


def test_network_rejects_insufficient_level(tiny_model):
    from repro.hecnn import HeCnn

    with pytest.raises(ValueError, match="base_level"):
        HeCnn(
            name="bad",
            poly_degree=512,
            base_level=3,
            input_packing=tiny_model.input_packing,
            layers=tiny_model.layers,
            plain_reference=tiny_model.plain_reference,
        )


def test_context_mismatch_rejected(tiny_model):
    from repro.fhe import tiny_test_params

    other = CkksContext(tiny_test_params(poly_degree=256, level=7), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        tiny_model.encrypt_input(other, np.zeros((1, 8, 8)))


def test_provision_keys_covers_forward(tiny_params, tiny_model, tiny_image):
    """A fresh context provisioned by the network runs without KeyErrors."""
    ctx = CkksContext(tiny_params, seed=123)
    tiny_model.provision_keys(ctx)
    tiny_model.infer(ctx, tiny_image)  # must not raise


def _fetch_log(monkeypatch) -> set[tuple[int, int]]:
    """Record every ``(step, level)`` passed to ``GaloisKeys.get``, misses
    included."""
    fetched: set[tuple[int, int]] = set()
    real = GaloisKeys.get

    def get(self, step, level):
        fetched.add((step, level))
        return real(self, step, level)

    monkeypatch.setattr(GaloisKeys, "get", get)
    return fetched


def _rows(direction: str) -> int:
    """The always-live NTT row counter of one direction."""
    return obs.get_registry().counter(
        "ntt_transform_rows", direction=direction
    ).value


def _forward_ntt_rows(model, ctx, image) -> int:
    """NTT rows transformed by one forward pass (the always-live counter)."""
    cts = model.encrypt_input(ctx, image)
    before = _rows("forward") + _rows("inverse")
    model.forward_encrypted(Evaluator(ctx), cts)
    return _rows("forward") + _rows("inverse") - before


def test_tiny_provisions_exactly_the_fetched_keys(
    tiny_params, tiny_model, tiny_image, monkeypatch
):
    """The forward pass fetches every provisioned Galois key and no other.

    The fold groups come from the steps alone, not from the keys a context
    holds (a missing key raises), so the NTT work also equals a run on a
    context holding every fetched step at every level.
    """
    ctx = CkksContext(tiny_params, seed=123)
    tiny_model.provision_keys(ctx)
    fetched = _fetch_log(monkeypatch)
    rows = _forward_ntt_rows(tiny_model, ctx, tiny_image)
    assert fetched == set(ctx.galois_keys.keys) == set(tiny_model.rotation_keys())

    every = CkksContext(tiny_params, seed=123)
    every.ensure_relin_keys()
    every.ensure_galois_keys(sorted({step for step, _ in fetched}))
    assert _forward_ntt_rows(tiny_model, every, tiny_image) == rows


def test_mnist_n2048_provisions_exactly_the_fetched_keys(monkeypatch):
    """The same on FxHENN-MNIST at N=2048, where Fc1's hoisted folds fetch
    composite keys at one level only."""
    params = tiny_test_params(poly_degree=2048, level=7)
    model = fxhenn_mnist_model(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    model.provision_keys(ctx)
    fetched = _fetch_log(monkeypatch)
    image = synthetic_mnist_image(seed=2)
    model.forward_encrypted(Evaluator(ctx), model.encrypt_input(ctx, image))
    assert fetched == set(ctx.galois_keys.keys) == set(model.rotation_keys())


#: The benchmark's MNIST parameters (``repro infer --fast``).
MNIST_N2048 = CkksParameters(
    poly_degree=2048, prime_bits=28, level=7, scale_bits=26
)


#: The two benchmark networks: builder, parameters and one input.
NETWORKS = {
    "mnist-n2048": (fxhenn_mnist_model, MNIST_N2048,
                    lambda: synthetic_mnist_image(seed=2)),
    "tiny-n512": (tiny_mnist_model, tiny_test_params(poly_degree=512, level=7),
                  lambda: np.random.default_rng(4).uniform(0, 1, (1, 8, 8))),
}


@pytest.mark.parametrize("build,params,image,rows", [
    pytest.param(*NETWORKS["mnist-n2048"], 689, id="mnist-n2048"),
    pytest.param(*NETWORKS["tiny-n512"], 375, id="tiny-n512"),
])
def test_request_ntt_rows(build, params, image, rows):
    """Forward plus inverse NTT rows of one warm request: encrypt, forward
    pass, decrypt.  A transform added anywhere, or a hoisted fold group
    split into smaller ones, moves this count."""
    model = build(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    model.provision_keys(ctx)
    model.infer(ctx, image())  # fills the plaintext cache
    before = _rows("forward") + _rows("inverse")
    model.infer(ctx, image())
    assert _rows("forward") + _rows("inverse") - before == rows


def _held_bytes(obj, owners: dict, seen: set) -> None:
    """Collect into ``owners`` the base arrays that ``obj`` holds."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        owners[id(obj)] = obj
        return
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif not isinstance(obj, (list, tuple)):
        obj = [getattr(obj, name) for name in getattr(obj, "__slots__", ())
               if hasattr(obj, name)] + list(getattr(obj, "__dict__", {}).values())
    for item in obj:
        _held_bytes(item, owners, seen)


def _held(objs) -> int:
    """Bytes of the base arrays ``objs`` hold, each counted once."""
    owners: dict = {}
    for obj in objs:
        _held_bytes(obj, owners, set())
    return sum(a.nbytes for a in owners.values())


@pytest.mark.parametrize("network,plan_bytes,context_bytes,limb_set", [
    pytest.param("mnist-n2048", 2_490_368, 1_360_592, 114_688, id="mnist-n2048"),
    pytest.param("tiny-n512", 622_592, 340_640, 28_672, id="tiny-n512"),
])
def test_request_plan_bytes(network, plan_bytes, context_bytes, limb_set):
    """Table bytes the montgomery plans and the batched NTT contexts hold
    after set-up and one request, each base array once.  Every plan is a
    view of the declared chain's stack, so each (prime, direction) limb set
    (``limb_set`` bytes) is held once.  A plan that keeps tables per batch
    height or per prime tuple, or a fused op that adds a direction, moves
    these counts."""
    build, params, image = NETWORKS[network]
    clear_caches()
    with kernels.using_backend("montgomery") as backend:
        model = build(seed=0, params=params)
        ctx = CkksContext(params, seed=1)
        model.provision_keys(ctx)
        model.infer(ctx, image())
        plans = [backend.plan(*key) for key in backend.plan_keys()]
    chain = ctx.chain_primes + (ctx.special_prime,)
    assert {plan.stack.primes for plan in plans} == {chain}
    assert _held(plans) == plan_bytes
    used = {
        (q, inverse)
        for plan in plans for inverse in plan._views for q in plan.primes
    }
    assert _held(plan.stack._tables for plan in plans) == limb_set * len(used)
    contexts = [
        get_batched_ntt_context(*key) for key in registry_info()["batched"]
    ]
    assert _held(contexts) == context_bytes


@pytest.mark.parametrize("network,key_bytes,cache_bytes", [
    pytest.param("mnist-n2048", 14_450_688, 7_888_896, id="mnist-n2048"),
    pytest.param("tiny-n512", 2_105_344, 200_704, id="tiny-n512"),
])
def test_request_key_and_cache_bytes(network, key_bytes, cache_bytes):
    """Bytes the key-switching keys and the cached plaintexts hold after
    set-up and one request: every residue at rest is a 32-bit word, half
    the 64-bit word the arithmetic runs in."""
    build, params, image = NETWORKS[network]
    model = build(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    model.provision_keys(ctx)
    model.infer(ctx, image())
    keys = [*ctx.relin_keys.values(), *ctx.galois_keys.keys.values()]
    cached = [pt.poly for pt in ctx.plaintext_cache._data.values()]
    assert {key.stacked_ba.dtype for key in keys} == {np.dtype(np.uint32)}
    assert {poly.residues.dtype for poly in cached} == {np.dtype(np.uint32)}
    assert _held(keys) == key_bytes
    assert _held(cached) == cache_bytes


def test_mnist_n2048_provisioning_forward_rows():
    """46 keys at 4 extended levels: the secret is transformed once per
    extended level, not once per key."""
    model = fxhenn_mnist_model(seed=0, params=MNIST_N2048)
    ctx = CkksContext(MNIST_N2048, seed=1)
    before = _rows("forward")
    model.provision_keys(ctx)
    assert _rows("forward") - before == 1121
    assert len(ctx.galois_keys.keys) + len(ctx.relin_keys) == 46


@pytest.mark.slow
def test_full_mnist_end_to_end():
    """Full-size FxHENN-MNIST (N=8192, L=7) encrypted inference.

    Uses the paper's exact ring/level parameters; runtime is minutes in
    pure Python, hence the slow marker.
    """
    params = fxhenn_mnist_params()
    model = fxhenn_mnist_model(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    model.provision_keys(ctx)
    img = synthetic_mnist_image(seed=4)
    plain = model.infer_plain(img)
    enc = model.infer(ctx, img)
    assert np.allclose(enc, plain, atol=5e-2)
    assert int(np.argmax(enc)) == int(np.argmax(plain))
