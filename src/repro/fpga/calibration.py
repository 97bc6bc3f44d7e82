"""Calibration constants tying the analytic model to the paper's Table I.

The paper's DSE consumes measured per-module constants
(``Const_op^DSP``, ``Const^Bn``, ``Const^Bb``); we recover them from the
published Table I measurements on the ACU9EG (N=8192, 30-bit words, L=7):

======== ============ ======== =========== ============
Module   nc_NTT       DSP (%)  BRAM (%)    Latency (ms)
======== ============ ======== =========== ============
CCadd    —            0.00     10.53       0.25
PCmult   —            3.97     10.53       0.25
CCmult   —            3.97     15.79       0.25
Rescale  2 / 4 / 8    4.44 / 7.30 / 13.01   10.53 / 10.53 / 21.05   1.19 / 0.68 / 0.34
KeySwitch 2 / 4 / 8   10.08 / 19.01 / 28.61 35.09 / 35.09 / 70.18   3.17 / 1.60 / 0.81
======== ============ ======== =========== ============

Fits (ACU9EG: 2,520 DSP, 912 BRAM blocks):

* **DSP.** Rescale DSP = 40 + 36*nc (exact: 112/184/328).  KeySwitch is
  table-interpolated (254/479/721 — not affine in nc because the extended-
  basis multiplier arrays scale differently).  PCmult = CCmult = 100,
  CCadd = 0.
* **BRAM.** Dual-port rule: block count is flat until nc exceeds 4 read
  ports per buffer and then doubles — factor ``max(1, nc/4)``.  Base
  blocks: CCadd/PCmult/Rescale 96, CCmult 144, KeySwitch 320.
* **Latency.** At 150 MHz with ``LAT_NTT = log2(N) * N / (2 nc)`` (Eq. 4):
  Rescale = ``L`` NTT-passes (1.24 ms modeled vs 1.19 measured, +4%);
  KeySwitch = ``2L + 4`` passes (3.20 vs 3.17, +1%); elementwise modules
  stream ``L*N`` coefficients through ``p = 2`` lanes plus a fixed
  pipeline overhead (0.25 ms).
"""

from __future__ import annotations

import numpy as np

from ..optypes import HeOp
from .arrays import Ints, maximum, per_distinct

#: The reference configuration Table I was measured at.
TABLE1_POLY_DEGREE = 8192
TABLE1_LEVEL = 7
TABLE1_WORD_BITS = 30
TABLE1_DEVICE = "ACU9EG"

#: DSP usage of one module instance at P_intra = P_inter = 1
#: (``Const_op^DSP`` of Eq. 7).  NTT-bearing ops depend on nc_NTT.
DSP_CONST_ELEMENTWISE: dict[HeOp, int] = {
    HeOp.CC_ADD: 0,
    HeOp.PC_ADD: 0,
    HeOp.PC_MULT: 100,
    HeOp.CC_MULT: 100,
}

DSP_RESCALE_BASE = 40
DSP_RESCALE_PER_CORE = 36

#: Measured KeySwitch DSP per nc_NTT (table-interpolated between points).
DSP_KEYSWITCH_TABLE: dict[int, int] = {2: 254, 4: 479, 8: 721}

#: Base BRAM blocks of one module instance at nc_NTT <= 4 (before the
#: dual-port doubling factor).
BRAM_CONST: dict[HeOp, int] = {
    HeOp.CC_ADD: 96,
    HeOp.PC_ADD: 96,
    HeOp.PC_MULT: 96,
    HeOp.CC_MULT: 144,
    HeOp.RESCALE: 96,
    HeOp.KEY_SWITCH: 320,
}

#: NTT passes per single-module operation (latency model of Table I).
RESCALE_NTT_PASSES_PER_LEVEL = 1  # Rescale: L passes in total
KEYSWITCH_NTT_PASSES = "2L+4"  # documented; see keyswitch_ntt_passes()

#: Elementwise modules: lanes and fixed pipeline overhead (cycles).
ELEMENTWISE_LANES = 2
ELEMENTWISE_OVERHEAD_CYCLES = 8828

#: Layer-level buffer constants (Eq. 9), in polynomial-buffer units.
#: Calibrated against the paper's Table II per-layer BRAM on LoLa-MNIST.
#: The KeySwitch datapath holds ~6 NTT-partitioned working polynomials per
#: parallel lane (input row, lifted row, two accumulator rows, two key
#: rows) — this is what throttles KeySwitch parallelism on BRAM-poor
#: devices at N = 2**14 (paper Fig. 10(c) discussion).
BUFFER_BN_CONST = {"NKS": 2, "KS": 6}
BUFFER_BN_KS_EXTRA = 2      # the "+Const" term of Bn_KS in Eq. 9
BUFFER_BB_CONST = {"NKS": 2, "KS": 4}
#: Resident ciphertexts double-buffered at the layer boundary.
RESIDENT_CTS = {"NKS": 2, "KS": 3}
#: KeySwitch working-set polys per extended-basis prime: key staging for the
#: burst-mode DRAM key stream plus double-buffered lifted decomposition rows
#: (Sec. VI-A: "The KeySwitch requires additional buffers to store
#: intermediate data").
KS_KEY_STAGING_POLYS = 4


def keyswitch_ntt_passes(level: int) -> int:
    """NTT passes of one monolithic KeySwitch: decompose (INTT), lift into
    the extended basis, and divide out the special prime — ``2L + 4``
    passes, matching Table I within 1% across all nc_NTT."""
    return 2 * level + 4


def rescale_ntt_passes(level: int) -> int:
    """NTT passes of one Rescale: one INTT/NTT pipeline visit per RNS row."""
    return RESCALE_NTT_PASSES_PER_LEVEL * level


def dsp_keyswitch(nc_ntt: Ints) -> Ints:
    """KeySwitch DSP for an nc_NTT value, interpolating the measured table.

    An array of nc_NTT values is looked up one distinct value at a time.
    """
    if isinstance(nc_ntt, np.ndarray):
        return per_distinct(dsp_keyswitch, nc_ntt, np.int64)
    if nc_ntt in DSP_KEYSWITCH_TABLE:
        return DSP_KEYSWITCH_TABLE[nc_ntt]
    points = sorted(DSP_KEYSWITCH_TABLE)
    if nc_ntt < points[0]:
        lo, hi = points[0], points[1]
    elif nc_ntt > points[-1]:
        lo, hi = points[-2], points[-1]
    else:
        lo = max(p for p in points if p < nc_ntt)
        hi = min(p for p in points if p > nc_ntt)
    frac = (nc_ntt - lo) / (hi - lo)
    return round(
        DSP_KEYSWITCH_TABLE[lo]
        + frac * (DSP_KEYSWITCH_TABLE[hi] - DSP_KEYSWITCH_TABLE[lo])
    )


def dual_port_factor(nc_ntt: Ints) -> Ints:
    """BRAM bank-duplication factor: a dual-port BRAM serves two NTT cores,
    so up to 4 cores share the baseline banking; beyond that the data must
    be partitioned into proportionally more blocks (Table I discussion)."""
    return maximum(1, nc_ntt // 4)
