"""The DSE's array pricing equals the scalar model at every grid point.

``_price`` calls each model step once over the whole scan grid; the
scalar calls behind :meth:`DesignSolution.evaluate` are the same
functions on ints.  These tests compare the two on every point of the
default space, infeasible points included, and pin the off-chip slowdown
of an array to the scalar float ``**`` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DesignSolution, DesignSpace, OpParallelism
from repro.core.design_point import (
    buffer_op,
    layer_buffers,
    module_dsp,
    pipeline_cycles,
)
from repro.core.dse import _price
from repro.fpga import (
    acu9eg,
    acu15eg,
    bn_buffer_blocks,
    dsp_const,
    lat_ntt_cycles,
    layer_latency_cycles,
    offchip_slowdown,
    pipeline_interval_cycles,
    zcu104,
)
from repro.fpga.buffers import layer_buffer_demand
from repro.optypes import MODULE_OPS, HeOp

DEVICES = {"acu9eg": acu9eg(), "acu15eg": acu15eg(), "zcu104": zcu104()}
CASES = [
    pytest.param(net, dev, id=f"{net}-{dev}")
    for net in ("mnist", "cifar10", "tiny")
    for dev in DEVICES
]


@pytest.fixture(scope="session")
def traces(mnist_trace, cifar_trace, tiny_trace):
    return {"mnist": mnist_trace, "cifar10": cifar_trace, "tiny": tiny_trace}


@pytest.mark.parametrize("network,device,bram_limit", [
    *(pytest.param(*case.values, None, id=case.id) for case in CASES),
    *(
        pytest.param(net, "acu9eg", 300, id=f"{net}-acu9eg-bram300")
        for net in ("mnist", "cifar10", "tiny")
    ),
])
def test_priced_grid_equals_the_scalar_model(
    traces, network, device, bram_limit
):
    trace, dev, space = traces[network], DEVICES[device], DesignSpace()
    priced = _price(trace, dev, space, bram_limit)
    got = list(zip(*(
        values.ravel().tolist()
        for values in (
            priced.latency, priced.dsp, priced.bram_peak,
            priced.mandatory_peak,
        )
    )))
    expected = []
    for point in space.points():
        solution = DesignSolution.evaluate(
            point, trace, dev, bram_limit=bram_limit
        )
        expected.append((
            solution.latency_cycles, point.dsp_usage(),
            solution.bram_peak, solution.bram_mandatory_peak,
        ))
    assert len(got) == space.size()
    assert got == expected


@pytest.mark.parametrize("bram_limit", [None, 300])
@pytest.mark.parametrize("network,device", CASES)
def test_slowdown_of_an_array_is_the_scalar_float_power(
    traces, network, device, bram_limit
):
    """Every on-chip fraction the grid produces, each layer priced alone:
    the array call returns the scalar call's float, bit for bit."""
    trace, dev, space = traces[network], DEVICES[device], DesignSpace()
    budget = _price(trace, dev, space, bram_limit).bram_budget
    spilled = 0
    for lt in trace.layers:
        _, _, on_chip = layer_buffers(
            lt, space.parallelism_grid(buffer_op(lt)), space.nc_ntt_grid(),
            trace.poly_degree, trace.prime_bits, budget,
        )
        fractions = np.ravel(on_chip)
        scalar = np.array(
            [offchip_slowdown(f, lt.kind) for f in fractions.tolist()]
        )
        array = offchip_slowdown(fractions, lt.kind)
        assert array.dtype == np.float64
        assert (array.view(np.uint64) == scalar.view(np.uint64)).all()
        spilled += int((fractions < 1.0).sum())
    if bram_limit is not None:
        assert spilled  # the tight budget reaches the spill curve


def test_scalar_calls_return_python_numbers(mnist_trace):
    """The scalar callers (``evaluate_layer``, the simulator, the baseline
    and the benches) get Python ints and floats, not numpy scalars."""
    fc1 = mnist_trace.layer("Fc1")
    par = OpParallelism(2, 3)
    ints = [
        lat_ntt_cycles(8192, 4),
        pipeline_interval_cycles(8192, 5, 2, 4),
        pipeline_interval_cycles(8192, 5, 2, 4, elementwise_lanes=1),
        layer_latency_cycles(10, 3, 5, 8192, 2, 3, 4),
        bn_buffer_blocks(8192, 30, 8),
        *layer_buffer_demand("KS", 5, 8192, 30, 2, 3, 8),
        *(dsp_const(op, 6) for op in MODULE_OPS),
        *(module_dsp(op, 8, par) for op in MODULE_OPS),
        *(pipeline_cycles(fc1, op, par, 4, 8192)
          for op in (HeOp.RESCALE, HeOp.KEY_SWITCH)),
    ]
    assert all(type(value) is int for value in ints), ints
    mandatory, blocks, on_chip = layer_buffers(fc1, par, 8, 8192, 30, 400)
    assert (type(mandatory), type(blocks), type(on_chip)) == (int, int, float)
    assert type(offchip_slowdown(on_chip, "KS")) is float
    assert layer_buffers(fc1, par, 8, 8192, 30, None)[2] == 1.0


def test_array_steps_broadcast_over_settings():
    """Each step on arrays equals the step on each setting's ints."""
    nc = np.array([2, 4, 6, 8]).reshape(-1, 1)
    intra = np.array([1, 2, 3, 7])
    inter = np.array([1, 4, 2, 3])
    par = OpParallelism(intra, inter)
    steps = [
        lambda c, a, e: lat_ntt_cycles(16384, c),
        lambda c, a, e: pipeline_interval_cycles(8192, 6, a, c),
        lambda c, a, e: layer_latency_cycles(25, 7, 6, 8192, a, e, c),
        lambda c, a, e: bn_buffer_blocks(16384, 36, c),
        lambda c, a, e: dsp_const(HeOp.KEY_SWITCH, c),
        lambda c, a, e: layer_buffer_demand("KS", 6, 8192, 30, a, e, c)[0],
        lambda c, a, e: layer_buffer_demand("KS", 6, 8192, 30, a, e, c)[1],
    ]
    for step in steps:
        grid = np.broadcast_to(step(nc, intra, inter), (4, 4))
        for i, c in enumerate(nc.ravel().tolist()):
            for j, (a, e) in enumerate(zip(intra.tolist(), inter.tolist())):
                assert grid[i, j] == step(c, a, e)
    for op in MODULE_OPS:
        grid = np.broadcast_to(module_dsp(op, nc, par), (4, 4))
        for i, c in enumerate(nc.ravel().tolist()):
            for j, (a, e) in enumerate(zip(intra.tolist(), inter.tolist())):
                assert grid[i, j] == module_dsp(op, c, OpParallelism(a, e))


def test_array_validation_rejects_any_bad_element():
    with pytest.raises(ValueError):
        lat_ntt_cycles(8192, np.array([2, 0, 4]))
    with pytest.raises(ValueError):
        lat_ntt_cycles(6000, 2)
    with pytest.raises(ValueError):
        pipeline_interval_cycles(8192, 5, np.array([1, 0]), 2)
    with pytest.raises(ValueError):
        OpParallelism(np.array([1, 2]), np.array([1, 0]))
    with pytest.raises(ValueError):
        offchip_slowdown(np.array([0.5, 1.5]), "KS")
    with pytest.raises(ValueError):
        offchip_slowdown(np.array([np.nan]), "NKS")
