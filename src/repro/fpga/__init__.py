"""FPGA device specs and resource/latency models of the HE modules.

The analytic substrate of the FxHENN framework: Eqs. 3-7 module models
calibrated against the paper's Table I measurements, the Bn/Bb buffer model
of Sec. VI-A, off-chip spill penalties (Table III), and TDP-based energy
accounting (Table VII).
"""

from . import calibration
from .buffers import (
    bn_buffer_blocks,
    buffer_tile_words,
    offchip_slowdown,
    poly_buffer_blocks,
)
from .device import (
    BRAM_ADDRESSES,
    BRAM_BLOCK_BITS,
    KNOWN_DEVICES,
    URAM_ADDRESSES,
    URAM_BLOCK_BITS,
    FpgaDevice,
    acu9eg,
    acu15eg,
    alveo_u250,
    device_by_name,
    zcu104,
)
from .energy import (
    PlatformResult,
    cluster_energy_per_inference,
    energy_efficiency,
    speedup,
)
from .modules import (
    dsp_const,
    lat_basic_cycles,
    lat_ntt_cycles,
    layer_latency_cycles,
    module_bram_blocks,
    pipeline_interval_cycles,
    standalone_latency_cycles,
    standalone_latency_seconds,
)

__all__ = [
    "BRAM_ADDRESSES",
    "BRAM_BLOCK_BITS",
    "FpgaDevice",
    "KNOWN_DEVICES",
    "PlatformResult",
    "URAM_ADDRESSES",
    "URAM_BLOCK_BITS",
    "acu15eg",
    "acu9eg",
    "alveo_u250",
    "bn_buffer_blocks",
    "buffer_tile_words",
    "calibration",
    "cluster_energy_per_inference",
    "device_by_name",
    "dsp_const",
    "energy_efficiency",
    "lat_basic_cycles",
    "lat_ntt_cycles",
    "layer_latency_cycles",
    "module_bram_blocks",
    "offchip_slowdown",
    "pipeline_interval_cycles",
    "poly_buffer_blocks",
    "speedup",
    "zcu104",
    "standalone_latency_cycles",
    "standalone_latency_seconds",
]
