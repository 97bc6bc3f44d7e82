"""Tests pinning the module models to the paper's Table I measurements."""

from __future__ import annotations

import pytest

from repro.core.design_point import OpParallelism, module_dsp
from repro.fpga import (
    acu9eg,
    dsp_const,
    lat_basic_cycles,
    lat_ntt_cycles,
    layer_latency_cycles,
    module_bram_blocks,
    pipeline_interval_cycles,
    standalone_latency_seconds,
)
from repro.optypes import HeOp

N, L = 8192, 7
DEV = acu9eg()

# Paper Table I rows: op -> nc -> (dsp %, bram %, latency ms).
TABLE1 = {
    (HeOp.CC_ADD, 2): (0.00, 10.53, 0.25),
    (HeOp.PC_MULT, 2): (3.97, 10.53, 0.25),
    (HeOp.CC_MULT, 2): (3.97, 15.79, 0.25),
    (HeOp.RESCALE, 2): (4.44, 10.53, 1.19),
    (HeOp.RESCALE, 4): (7.30, 10.53, 0.68),
    (HeOp.RESCALE, 8): (13.01, 21.05, 0.34),
    (HeOp.KEY_SWITCH, 2): (10.08, 35.09, 3.17),
    (HeOp.KEY_SWITCH, 4): (19.01, 35.09, 1.60),
    (HeOp.KEY_SWITCH, 8): (28.61, 70.18, 0.81),
}


@pytest.mark.parametrize("key,expected", sorted(TABLE1.items(), key=str))
def test_table1_dsp_and_bram(key, expected):
    op, nc = key
    dsp_pct, bram_pct, _ = expected
    assert dsp_const(op, nc) / DEV.dsp_slices * 100 == pytest.approx(
        dsp_pct, abs=0.05
    )
    assert module_bram_blocks(op, nc) / DEV.bram_blocks * 100 == pytest.approx(
        bram_pct, abs=0.05
    )


@pytest.mark.parametrize("key,expected", sorted(TABLE1.items(), key=str))
def test_table1_latency_within_10pct(key, expected):
    op, nc = key
    lat_ms = expected[2]
    modeled = standalone_latency_seconds(op, N, L, nc, DEV.clock_hz) * 1e3
    assert modeled == pytest.approx(lat_ms, rel=0.25)


def test_lat_ntt_eq4():
    """Eq. 4: LAT_NTT = log2(N) * N / (2 nc)."""
    assert lat_ntt_cycles(8192, 2) == 13 * 8192 // 4
    assert lat_ntt_cycles(8192, 8) == lat_ntt_cycles(8192, 2) // 4
    with pytest.raises(ValueError):
        lat_ntt_cycles(8192, 0)


def test_lat_basic_eq5():
    assert lat_basic_cycles(8192, 4) == 2048
    with pytest.raises(ValueError):
        lat_basic_cycles(8192, 0)


def test_pipeline_interval_eq3():
    """PI = ceil(L / P_intra) * LAT_b; Fig. 4: P_intra=4 halves the interval
    of P_intra=2 at L=4, while 3 underuses the copies."""
    base = lat_ntt_cycles(N, 2)
    assert pipeline_interval_cycles(N, 4, 2, 2) == 2 * base
    assert pipeline_interval_cycles(N, 4, 4, 2) == base
    assert pipeline_interval_cycles(N, 4, 3, 2) == 2 * base  # ceil(4/3)=2
    with pytest.raises(ValueError):
        pipeline_interval_cycles(N, 4, 0, 2)


def test_pipeline_interval_elementwise_bound():
    """If elementwise lanes are pinned low, LAT_b switches to them (Eq. 6)."""
    slow = pipeline_interval_cycles(N, 4, 1, 8, elementwise_lanes=1)
    fast = pipeline_interval_cycles(N, 4, 1, 8)
    assert slow > fast  # N/1 = 8192 > LAT_NTT(nc=8) = 6656


def test_layer_latency_eqs_1_2():
    """KS units cost L pipeline intervals; NKS units cost one."""
    pi = pipeline_interval_cycles(N, L, 1, 2)
    nks_only = layer_latency_cycles(10, 0, L, N, 1, 1, 2)
    ks_only = layer_latency_cycles(0, 10, L, N, 1, 1, 2)
    assert nks_only == 10 * pi
    assert ks_only == 10 * L * pi
    # Inter-parallelism divides throughput.
    assert layer_latency_cycles(10, 0, L, N, 1, 2, 2) == 5 * pi


def test_dsp_eq7_scaling():
    """DSP_op = P_inter * P_intra * Const_op^DSP."""
    single = module_dsp(HeOp.KEY_SWITCH, 2, OpParallelism())
    quad = module_dsp(HeOp.KEY_SWITCH, 2, OpParallelism(p_intra=2, p_inter=2))
    assert single == dsp_const(HeOp.KEY_SWITCH, 2)
    assert quad == 4 * single


def test_dsp_keyswitch_interpolation():
    """Between measured points the table interpolates monotonically."""
    assert dsp_const(HeOp.KEY_SWITCH, 2) == 254
    assert dsp_const(HeOp.KEY_SWITCH, 8) == 721
    mid = dsp_const(HeOp.KEY_SWITCH, 6)
    assert 479 < mid < 721


def test_dual_port_bram_rule():
    """Table I: BRAM flat from nc=2 to nc=4, doubled at nc=8."""
    b2 = module_bram_blocks(HeOp.RESCALE, 2)
    b4 = module_bram_blocks(HeOp.RESCALE, 4)
    b8 = module_bram_blocks(HeOp.RESCALE, 8)
    assert b2 == b4
    assert b8 == 2 * b2


def test_pcadd_shares_ccadd_module():
    assert dsp_const(HeOp.PC_ADD, 2) == dsp_const(HeOp.CC_ADD, 2)
