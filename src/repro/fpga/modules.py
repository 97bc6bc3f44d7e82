"""Parameterized HE operation module models (paper Sec. V-B, Eqs. 3-7).

Latency is modeled in clock cycles; resource usage in DSP slices and
BRAM36K blocks.  Two granularities are exposed:

* **standalone module model** — the cost of one HE operation executed on a
  single module instance, reproducing Table I;
* **pipeline model** — the pipeline interval ``PI`` (Eq. 3) and per-layer
  latency (Eqs. 1-2) used by the design space exploration, where NKS work
  units occupy one interval each and KeySwitch units occupy ``L`` intervals
  (Fig. 3).
"""

from __future__ import annotations

import math

from ..optypes import HeOp, module_for
from . import calibration as cal


def lat_ntt_cycles(poly_degree: int, nc_ntt: int) -> int:
    """Eq. 4: ``LAT_NTT = log2(N) * N / (2 * nc_NTT)`` cycles."""
    if nc_ntt < 1:
        raise ValueError("nc_ntt must be >= 1")
    return math.ceil(math.log2(poly_degree) * poly_degree / (2 * nc_ntt))


def lat_basic_cycles(poly_degree: int, lanes: int) -> int:
    """Eq. 5: ``LAT_basic = N / p`` cycles for elementwise basic modules."""
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    return math.ceil(poly_degree / lanes)


def pipeline_interval_cycles(
    poly_degree: int, level: int, p_intra: int, nc_ntt: int,
    elementwise_lanes: int | None = None,
) -> int:
    """Eq. 3: ``PI = ceil(L / P_intra) * LAT_b``.

    ``LAT_b`` (Eq. 6) is the slowest basic module; the paper balances the
    elementwise modules' internal parallelism against the NTT (Sec. V-B,
    "in order for each basic module to have a similar latency"), so the NTT
    dominates unless the caller pins ``elementwise_lanes`` low.
    """
    if p_intra < 1:
        raise ValueError("p_intra must be >= 1")
    lat_ntt = lat_ntt_cycles(poly_degree, nc_ntt)
    if elementwise_lanes is None:
        lat_b = lat_ntt
    else:
        lat_b = max(lat_ntt, lat_basic_cycles(poly_degree, elementwise_lanes))
    return math.ceil(level / p_intra) * lat_b


def dsp_const(op: HeOp, nc_ntt: int) -> int:
    """``Const_op^DSP`` — DSP slices of one unparallelized module."""
    op = module_for(op)
    if op == HeOp.RESCALE:
        return cal.DSP_RESCALE_BASE + cal.DSP_RESCALE_PER_CORE * nc_ntt
    if op == HeOp.KEY_SWITCH:
        return cal.dsp_keyswitch(nc_ntt)
    return cal.DSP_CONST_ELEMENTWISE[op]


def module_bram_blocks(op: HeOp, nc_ntt: int) -> int:
    """Standalone BRAM of one unparallelized module (Table I model): the
    base blocks, scaled by the dual-port partitioning factor for NTT-bearing
    modules."""
    op = module_for(op)
    base = cal.BRAM_CONST[op]
    if op.uses_ntt:
        base *= cal.dual_port_factor(nc_ntt)
    return base


def standalone_latency_cycles(
    op: HeOp, poly_degree: int, level: int, nc_ntt: int
) -> int:
    """Latency of one HE operation on a single module (Table I model).

    NTT-bearing ops are a sequence of NTT-pipeline passes over the RNS
    rows; elementwise ops stream ``L * N`` coefficients through
    ``ELEMENTWISE_LANES`` lanes plus a fixed pipeline fill overhead.
    """
    op = module_for(op)
    if op == HeOp.RESCALE:
        return cal.rescale_ntt_passes(level) * lat_ntt_cycles(poly_degree, nc_ntt)
    if op == HeOp.KEY_SWITCH:
        return cal.keyswitch_ntt_passes(level) * lat_ntt_cycles(poly_degree, nc_ntt)
    stream = level * lat_basic_cycles(poly_degree, cal.ELEMENTWISE_LANES)
    return stream + cal.ELEMENTWISE_OVERHEAD_CYCLES


def standalone_latency_seconds(
    op: HeOp, poly_degree: int, level: int, nc_ntt: int, clock_hz: float
) -> float:
    return standalone_latency_cycles(op, poly_degree, level, nc_ntt) / clock_hz


def layer_latency_cycles(
    nks_units: int,
    ks_units: int,
    level: int,
    poly_degree: int,
    p_intra: int,
    p_inter: int,
    nc_ntt: int,
) -> int:
    """Eqs. 1-2: pipelined layer latency.

    ``LAT_NKS = N_in * PI / P_inter`` for the elementwise work units and
    ``LAT_KS = N_in * L * PI / P_inter`` for KeySwitch units, which occupy
    ``L`` pipeline intervals each (Fig. 3).
    """
    pi = pipeline_interval_cycles(poly_degree, level, p_intra, nc_ntt)
    units = nks_units + ks_units * level
    return math.ceil(units * pi / p_inter)
