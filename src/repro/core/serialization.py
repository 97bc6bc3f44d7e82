"""JSON round-tripping of design points and accelerator designs.

The DSE result is the framework's product; persisting it lets a build farm
hand the design solution to the HLS toolchain (or a later session) without
re-running the exploration.
"""

from __future__ import annotations

import json
from typing import Any

from ..optypes import HeOp
from .design_point import DesignPoint, OpParallelism
from .framework import AcceleratorDesign


def design_point_to_dict(point: DesignPoint) -> dict[str, Any]:
    """A JSON-ready representation of a design point."""
    return {
        "nc_ntt": point.nc_ntt,
        "ops": {
            op.value: {"p_intra": par.p_intra, "p_inter": par.p_inter}
            for op, par in point.ops.items()
        },
    }


def design_point_from_dict(data: dict[str, Any]) -> DesignPoint:
    """Inverse of :func:`design_point_to_dict` (validates op names)."""
    ops = {}
    for name, par in data.get("ops", {}).items():
        try:
            op = HeOp(name)
        except ValueError:
            raise ValueError(f"unknown HE operation {name!r}") from None
        ops[op] = OpParallelism(int(par["p_intra"]), int(par["p_inter"]))
    return DesignPoint(nc_ntt=int(data["nc_ntt"]), ops=ops)


def design_to_dict(design: AcceleratorDesign) -> dict[str, Any]:
    """Full design record: decision variables, metrics, per-layer detail."""
    solution = design.solution
    return {
        "network": design.network.name,
        "device": design.device.name,
        "point": design_point_to_dict(solution.point),
        "metrics": {
            "latency_seconds": design.latency_seconds,
            "latency_cycles": solution.latency_cycles,
            "energy_joules": design.energy_joules,
            "dsp_usage": solution.dsp_usage,
            "bram_peak": solution.bram_peak,
            "bram_aggregate": solution.bram_aggregate,
            "bram_budget": solution.bram_budget,
        },
        "dse": {
            "evaluated": design.dse.evaluated,
            "feasible": design.dse.feasible,
            "dsp_pruned": design.dse.dsp_pruned,
            "improvements": design.dse.improvements,
        },
        "layers": [
            {
                "name": layer.name,
                "kind": layer.kind,
                "level": layer.level,
                "latency_cycles": layer.latency_cycles,
                "bram_blocks": layer.bram_blocks,
                "bram_mandatory": layer.bram_mandatory,
                "on_chip_fraction": layer.on_chip_fraction,
            }
            for layer in solution.layers
        ],
    }


def design_to_json(design: AcceleratorDesign, indent: int = 2) -> str:
    return json.dumps(design_to_dict(design), indent=indent, sort_keys=True)


def design_point_from_json(text: str) -> DesignPoint:
    """Load just the decision variables back from a saved design record."""
    data = json.loads(text)
    if "point" in data:
        data = data["point"]
    return design_point_from_dict(data)
