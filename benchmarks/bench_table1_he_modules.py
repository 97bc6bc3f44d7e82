"""Table I: HE operation modules on ACU9EG — DSP, BRAM and latency vs nc_NTT.

Regenerates the paper's module-characterization table from our calibrated
models and reports the residual against every published cell.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.fpga import dsp_const, module_bram_blocks, standalone_latency_seconds
from repro.fpga.calibration import TABLE1_LEVEL, TABLE1_POLY_DEGREE
from repro.optypes import HeOp

PAPER_ROWS = [
    # (label, op, nc, dsp %, bram %, latency ms)
    ("OP1", HeOp.CC_ADD, 2, 0.00, 10.53, 0.25),
    ("OP2", HeOp.PC_MULT, 2, 3.97, 10.53, 0.25),
    ("OP3", HeOp.CC_MULT, 2, 3.97, 15.79, 0.25),
    ("OP4", HeOp.RESCALE, 2, 4.44, 10.53, 1.19),
    ("OP4", HeOp.RESCALE, 4, 7.30, 10.53, 0.68),
    ("OP4", HeOp.RESCALE, 8, 13.01, 21.05, 0.34),
    ("OP5", HeOp.KEY_SWITCH, 2, 10.08, 35.09, 3.17),
    ("OP5", HeOp.KEY_SWITCH, 4, 19.01, 35.09, 1.60),
    ("OP5", HeOp.KEY_SWITCH, 8, 28.61, 70.18, 0.81),
]


def _model_rows(dev9):
    rows = []
    for label, op, nc, p_dsp, p_bram, p_lat in PAPER_ROWS:
        dsp = dsp_const(op, nc) / dev9.dsp_slices * 100
        bram = module_bram_blocks(op, nc) / dev9.bram_blocks * 100
        lat = standalone_latency_seconds(
            op, TABLE1_POLY_DEGREE, TABLE1_LEVEL, nc, dev9.clock_hz
        ) * 1e3
        rows.append((label, op.value, nc, p_dsp, dsp, p_bram, bram, p_lat, lat))
    return rows


def test_table1_reproduction(benchmark, dev9, save_report):
    rows = benchmark(_model_rows, dev9)
    table = format_table(
        ["op", "module", "nc", "DSP% paper", "DSP% ours", "BRAM% paper",
         "BRAM% ours", "lat(ms) paper", "lat(ms) ours"],
        rows,
        title="Table I: HE operation modules on ACU9EG (N=8192, L=7)",
    )
    save_report("table1_he_modules", table)
    for label, opname, nc, p_dsp, dsp, p_bram, bram, p_lat, lat in rows:
        # Resources are table-calibrated: exact to the published percentage.
        assert dsp == pytest.approx(p_dsp, abs=0.05), (label, nc)
        assert bram == pytest.approx(p_bram, abs=0.05), (label, nc)
        # Latency comes from the cycle model: within 25% of measurement.
        assert lat == pytest.approx(p_lat, rel=0.25), (label, nc)


def test_table1_nc_scaling_shape(dev9):
    """The table's two structural observations: NTT latency halves with nc,
    and BRAM is flat until nc exceeds the dual-port limit."""
    rescale = {
        nc: standalone_latency_seconds(
            HeOp.RESCALE, TABLE1_POLY_DEGREE, TABLE1_LEVEL, nc, dev9.clock_hz
        )
        for nc in (2, 4, 8)
    }
    assert rescale[2] / rescale[4] == pytest.approx(2.0, rel=0.01)
    assert rescale[4] / rescale[8] == pytest.approx(2.0, rel=0.01)
    b = {nc: module_bram_blocks(HeOp.KEY_SWITCH, nc) for nc in (2, 4, 8)}
    assert b[2] == b[4] and b[8] == 2 * b[4]
