"""Tests for parameter presets and the security table."""

from __future__ import annotations

import pytest

from repro.fhe.params import (
    CkksParameters,
    build_prime_chain,
    fxhenn_cifar10_params,
    fxhenn_mnist_params,
    max_coeff_modulus_bits,
    security_bits,
    tiny_test_params,
)


def test_mnist_preset_matches_paper():
    """Paper Sec. VII-A: N=8192, 30-bit q_i, L=7 -> Q=210 bits, 128-bit.

    The paper's claim counts Q only.  With the 30-bit key-switching prime
    P, log QP = 240 exceeds the 218-bit budget, so the preset meets no
    standard level.
    """
    p = fxhenn_mnist_params()
    assert p.poly_degree == 8192
    assert p.prime_bits == 30
    assert p.level == 7
    assert p.coeff_modulus_bits == 210
    assert security_bits(8192, 210) == 128
    assert p.coeff_modulus_bits + p.special_prime_bits == 240
    assert p.security_level() == 0
    assert p.security_summary() == {
        "log_q": 210, "log_qp": 240, "security_level": None,
    }
    assert p.is_functional


def test_cifar10_preset_matches_paper():
    """Paper Sec. VII-A: N=16384, 36-bit q_i, L=7 -> Q=252 bits, 192-bit.

    With P counted, log QP = 288 is still within the 305-bit budget."""
    p = fxhenn_cifar10_params()
    assert p.poly_degree == 16384
    assert p.prime_bits == 36
    assert p.level == 7
    assert p.coeff_modulus_bits == 252
    assert p.security_level() == 192
    assert p.security_summary() == {
        "log_q": 252, "log_qp": 288, "security_level": 192,
    }
    assert not p.is_functional


def test_functional_variant_narrows_words():
    p = fxhenn_cifar10_params().functional_variant()
    assert p.is_functional
    assert p.poly_degree == 16384
    assert p.level == 7


def test_build_prime_chain_properties():
    params = tiny_test_params(poly_degree=256, level=3)
    chain, special = build_prime_chain(params)
    assert len(chain) == 3
    assert special not in chain
    for q in chain + (special,):
        assert (q - 1) % (2 * 256) == 0


def test_build_prime_chain_rejects_model_only_params():
    with pytest.raises(ValueError):
        build_prime_chain(fxhenn_cifar10_params())


def test_security_table_thresholds():
    assert security_bits(8192, 218) == 128
    assert security_bits(8192, 219) == 0
    assert security_bits(8192, 152) == 192
    assert security_bits(8192, 118) == 256
    assert max_coeff_modulus_bits(16384, 192) == 305


def test_security_table_unknown_degree():
    with pytest.raises(ValueError):
        security_bits(123, 100)
    with pytest.raises(ValueError):
        max_coeff_modulus_bits(8192, 100)


def test_parameter_validation():
    with pytest.raises(ValueError):
        CkksParameters(poly_degree=100, prime_bits=30, level=3)
    with pytest.raises(ValueError):
        CkksParameters(poly_degree=1024, prime_bits=30, level=0)


def test_slot_count_and_scale():
    p = CkksParameters(poly_degree=1024, prime_bits=28, level=2)
    assert p.slot_count == 512
    assert p.scale == 2.0**28
    assert p.scale_bits == 28  # defaults to prime_bits
