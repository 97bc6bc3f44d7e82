"""On-chip buffer model: Bn/Bb buffers, reuse, and off-chip penalties.

Implements the paper's Sec. VI-A buffer management:

* buffers come in two types — **Bn** (NTT-partitioned) and **Bb** (all other
  basic ops) — sized in *polynomial-buffer units* of
  ``ceil(N * word_bits / 36 Kbit)`` BRAM36K blocks;
* intra-layer reuse: adjacent HE operations share input/output buffers, so
  per-layer usage follows Eq. 8-9 with small constants rather than one
  buffer per operation;
* inter-layer reuse: layers execute sequentially, so the network's BRAM
  demand is the *maximum* over layers, not the sum;
* off-chip spill: when the layer's working set cannot be held on chip, the
  non-burst DRAM accesses of the NTT slow the layer down dramatically
  (Table III); :func:`offchip_slowdown` models the measured penalties.
"""

from __future__ import annotations

import math

from .device import BRAM_BLOCK_BITS
from . import calibration as cal


def poly_buffer_blocks(poly_degree: int, word_bits: int) -> int:
    """BRAM36K blocks holding one RNS polynomial row (one ``Bb`` unit)."""
    return math.ceil(poly_degree * word_bits / BRAM_BLOCK_BITS)


def bn_buffer_blocks(poly_degree: int, word_bits: int, nc_ntt: int) -> int:
    """Blocks of one NTT-partitioned polynomial buffer (one ``Bn`` unit).

    The dual-port banking rule doubles the block count beyond 4 NTT cores
    (Table I discussion).
    """
    return poly_buffer_blocks(poly_degree, word_bits) * cal.dual_port_factor(nc_ntt)


def buffer_tile_words(poly_degree: int, nc_ntt: int) -> int:
    """Words per buffer tile after partitioning for ``2 * nc`` port groups.

    Drives the URAM conversion ratio of Sec. VI-A.
    """
    banks = max(1, nc_ntt // 2)
    return poly_degree // banks


def layer_buffer_demand(
    kind: str,
    level: int,
    poly_degree: int,
    word_bits: int,
    p_intra: int,
    p_inter: int,
    nc_ntt: int,
) -> tuple[int, int]:
    """Per-layer buffer demand split into (mandatory, cacheable) blocks.

    **Mandatory** blocks are the module working buffers of Eq. 8-9 — the
    design is infeasible without them::

        Bn_NKS = (Const_NKS^Bn * P_intra * P_inter) * Bn
        Bn_KS  = ((Const_KS^Bn * P_intra + Const') * P_inter) * Bn
        Bb_lr  = (Const_lr^Bb * P_inter) * Bb

    **Cacheable** blocks hold the layer-boundary ciphertexts (``2 * L``
    polynomial rows each, double-buffered) and, for KS layers, key staging
    and decomposition intermediates.  When they do not fit, the coldest
    data spills to off-chip DRAM at the Table III penalty — see
    :func:`offchip_slowdown`.
    """
    if kind not in ("NKS", "KS"):
        raise ValueError("kind must be 'NKS' or 'KS'")
    bn_unit = bn_buffer_blocks(poly_degree, word_bits, nc_ntt)
    bb_unit = poly_buffer_blocks(poly_degree, word_bits)

    bn_count = cal.BUFFER_BN_CONST[kind] * p_intra
    if kind == "KS":
        bn_count += cal.BUFFER_BN_KS_EXTRA
    bn_count *= p_inter
    bb_count = cal.BUFFER_BB_CONST[kind] * p_inter
    mandatory = bn_count * bn_unit + bb_count * bb_unit

    residency_polys = 2 * level * cal.RESIDENT_CTS[kind]
    if kind == "KS":
        residency_polys += cal.KS_KEY_STAGING_POLYS * (level + 1) * p_inter
    cacheable = residency_polys * bb_unit
    return mandatory, cacheable


#: Shape of the cold-data spill curve: the buffer manager keeps the hot
#: working set on chip, so the first blocks of on-chip capacity absorb a
#: disproportionate share of accesses.  The slowdown is
#: ``penalty ** ((1 - f_on) ** COLD_SPILL_EXPONENT)`` — an exponential
#: decay anchored at the paper's two published operating points:
#: Table III gives the f_on = 0 endpoint (15.9x NKS / 139.6x KS), and
#: Fig. 7's baseline Fc1 (~26% of its FxHENN allocation, 6.63x slower)
#: pins the decay rate at ~2.7.
COLD_SPILL_EXPONENT = 2.7


def offchip_slowdown(on_chip_fraction: float, kind: str) -> float:
    """Latency multiplier when part of the working set spills to DRAM.

    Endpoints calibrated from Table III (LoLa-MNIST on ACU9EG): with zero
    on-chip buffering, the Cnv1 (NKS) layer slows down 15.9x (0.334 s vs
    0.021 s) and the Fc1 (KS) layer 139.6x (22.612 s vs 0.162 s) — the KS
    penalty is larger because every KeySwitch re-streams decomposition
    intermediates *and* key material through non-burst accesses.  Between
    the endpoints the curve decays exponentially with the on-chip fraction
    (see :data:`COLD_SPILL_EXPONENT`).
    """
    if not 0.0 <= on_chip_fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    penalty = {"NKS": 15.9, "KS": 139.6}[kind]
    exponent = (1.0 - on_chip_fraction) ** COLD_SPILL_EXPONENT
    return penalty**exponent
