"""The four benchmark workloads, measured from outside through public calls.

A workload draws its inputs from the seed, sets itself up from cold, and
repeats one unit of work -- an encrypted request, a DSE pass over the four
paper designs, or a replay of the three serving loops -- checking every
output.  :func:`run` alternates ``setups`` cold set-ups (their median is
``setup_s``) with timed windows that together last ``seconds``.  With
``traced=True`` the same run also records spans (see :mod:`spans`) and
returns the per-layer metrics they yield.
"""

from __future__ import annotations

import gc
import math
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

from repro.cluster import ClusterService, Fleet, FleetPlanner
from repro.core import FxHennFramework
from repro.fhe import (
    CkksContext,
    CkksParameters,
    Evaluator,
    OperationRecorder,
    clear_caches,
    tiny_test_params,
)
from repro.fpga import acu9eg, acu15eg
from repro.hecnn import (
    cryptonets_mnist_batched,
    fxhenn_cifar10_model,
    fxhenn_mnist_model,
    max_batch_lanes,
    synthetic_mnist_image,
    tiny_mnist_model,
)
from repro.obs import REGISTRY
from repro.serve import (
    AutoscalerConfig,
    FleetAutoscaler,
    SchedulerConfig,
    ServingCostModel,
    SlotBatchScheduler,
    diurnal_arrivals,
    flash_crowd_arrivals,
    merge_arrivals,
)
from repro.sim import AcceleratorSimulator

from spans import (
    KERNEL_GROUPS,
    TracedEvaluator,
    Tracer,
    direct_call,
    totals,
    traced_kernels,
    wrap_layers,
)

#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Timed units per run at least, so that the median is one of three.
MIN_UNITS = 3
#: The ``BENCH_fhe`` tolerance on any decrypted logit.
MAX_ERROR = 0.5


@dataclass
class Result:
    """What one workload run measured and checked."""

    setup_s: list[float]
    #: Duration of each timed unit of work.
    samples_s: list[float]
    attempted: int
    failed: int
    checks: dict[str, bool]
    #: Deterministic results for a given seed (model outputs, counts).
    outputs: dict[str, float]
    #: Measured per-layer metrics.
    layers: dict[str, float]
    tracer: Tracer | None


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def timed_loop(seconds: float, unit: Callable[[int], float],
               min_units: int = 1) -> list[float]:
    """Call ``unit(i)`` until ``seconds`` have elapsed and it ran at least
    ``min_units`` times; return what each call returned.

    Garbage is collected before every call, so each unit starts from the
    same collector state and pays only for the collections its own
    allocations trigger.
    """
    out: list[float] = []
    start = perf_counter()
    while len(out) < min_units or perf_counter() - start < seconds:
        gc.collect()
        out.append(unit(len(out)))
    return out


class Workload:
    """Cold set-up, then repeated timed units of work; see :func:`run`."""

    def __init__(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.tracer = Tracer() if traced else None
        self.call = self.tracer.call if traced else direct_call
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def release(self) -> None:
        """Drop the previous set-up, so two never coexist (untimed)."""

    def set_up(self, rep: int) -> None:
        """Build, from cold, everything the units need (timed)."""
        raise NotImplementedError

    def settle(self) -> None:
        """Check what the set-up produced and ready the units (untimed)."""

    def unit(self, i: int) -> float:
        """Run and check unit ``i``; return the duration of its timed part."""
        raise NotImplementedError

    def finish(self, units: int) -> tuple[dict, dict]:
        """Fill :attr:`checks`; return ``(outputs, per-layer metrics)``."""
        raise NotImplementedError


def run(name: str, seed: int, seconds: float, traced: bool = False,
        setups: int = SETUPS, min_units: int = MIN_UNITS) -> Result:
    """Run workload ``name``: each of ``setups`` rounds sets up from cold,
    then times units for ``seconds / setups``.  Spreading the timed units
    over the whole run keeps one noisy spell on a shared machine from
    setting the run's median."""
    workload = WORKLOADS[name](seed, traced)
    setup_s: list[float] = []
    samples: list[float] = []
    for rep in range(setups):
        workload.release()
        gc.collect()
        start = perf_counter()
        workload.set_up(rep)
        setup_s.append(perf_counter() - start)
        workload.settle()
        first = len(samples)
        samples += timed_loop(
            seconds / setups, lambda i: workload.unit(first + i),
            -(-min_units // setups),
        )
    outputs, layers = workload.finish(len(samples))
    return Result(setup_s, samples, workload.attempted, workload.failed,
                  workload.checks, outputs, layers, workload.tracer)


# -- encrypted inference --------------------------------------------------------


def check_request(got: np.ndarray, plain: np.ndarray) -> tuple[bool, float]:
    """``(ok, max |error|)`` of one decrypted request against the plaintext.

    A request fails when its error is above :data:`MAX_ERROR` or not finite.
    Its argmax is not compared on its own: near-ties flip with encryption
    randomness.  An argmax flip whose plaintext top-2 margin exceeds twice
    the max error cannot happen (each logit moves by at most the error), so
    the error bound is the whole check.
    """
    err = float(np.max(np.abs(got - plain)))
    return err <= MAX_ERROR, err


def _decrypt(model, ctx, outputs):
    layout = model.layers[-1].output_layout
    return layout.extract([ctx.decrypt_values(ct) for ct in outputs])


def _request(model, ctx, evaluator, image, call, recorder=None):
    """One client round trip: encrypt, evaluate, decrypt and extract."""
    cts = call("encrypt", "hecnn", model.encrypt_input, ctx, image)
    out = call("forward", "hecnn", model.forward_encrypted, evaluator, cts,
               recorder)
    return call("decrypt", "hecnn", _decrypt, model, ctx, out)


def _ntt_rows() -> int:
    return sum(
        REGISTRY.counter("ntt_transform_rows", direction=d).value
        for d in ("forward", "inverse")
    )


class FheWorkload(Workload):
    """Closed loop, one client: encrypt, forward pass, decrypt per request.

    A set-up builds the model (weights fixed at seed 0), a context, the
    keys and one warm-up request, after dropping the NTT tables and kernel
    plans so that it starts cold.
    """

    params: CkksParameters
    build_model: Callable

    def __init__(self, seed: int, traced: bool) -> None:
        super().__init__(seed, traced)
        # Warm-up images come from their own stream, so that they (and the
        # precision they yield) do not depend on how many timed requests
        # fitted into the previous window.
        self.warm_rng, self.rng = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2)
        )
        self.recorder = OperationRecorder() if traced else None
        self.keygen_s: list[float] = []
        self.warm_errors: list[float] = []
        self.ntt_rows = self.cache_hits = self.cache_lookups = 0
        self.release()

    @staticmethod
    def draw_image(rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def release(self) -> None:
        self.model = self.ctx = self.evaluator = self.warm = None

    def set_up(self, rep: int) -> None:
        clear_caches()
        image = self.draw_image(self.warm_rng)
        self.model = self.build_model(seed=0, params=self.params)
        self.ctx = CkksContext(self.params, seed=1000 * self.seed + rep)
        start = perf_counter()
        self.model.provision_keys(self.ctx)
        self.keygen_s.append(perf_counter() - start)
        got = _request(self.model, self.ctx, Evaluator(self.ctx), image,
                       direct_call)
        self.warm = image, got

    def settle(self) -> None:
        image, got = self.warm
        ok, err = check_request(got, self.model.infer_plain(image))
        self.attempted += 1
        self.failed += not ok
        self.warm_errors.append(err)
        if self.tracer:
            self.evaluator = TracedEvaluator(self.ctx, self.tracer,
                                             self.recorder)
            wrap_layers(self.model, self.tracer)
        else:
            self.evaluator = Evaluator(self.ctx)

    def unit(self, i: int) -> float:
        image = self.draw_image(self.rng)
        plain = self.model.infer_plain(image)
        cache, rows = self.ctx.plaintext_cache.stats(), _ntt_rows()
        with traced_kernels(self.tracer) if self.tracer else nullcontext():
            if self.tracer:
                self.tracer.request = i
            start = perf_counter()
            got = self.call("request", "request", _request, self.model,
                            self.ctx, self.evaluator, image, self.call,
                            self.recorder)
            elapsed = perf_counter() - start
        after = self.ctx.plaintext_cache.stats()
        self.ntt_rows += _ntt_rows() - rows
        self.cache_hits += after.hits - cache.hits
        self.cache_lookups += (after.hits + after.misses
                               - cache.hits - cache.misses)
        self.attempted += 1
        self.failed += not check_request(got, plain)[0]
        return elapsed

    def finish(self, units: int) -> tuple[dict, dict]:
        self.checks["requests within tolerance"] = self.failed == 0
        outputs = {
            "hecnn.precision_bits": -math.log2(max(self.warm_errors)),
            "fhe.galois_keys": len(self.ctx.galois_keys.keys),
            "kernels.ntt_rows": self.ntt_rows / units,
            "caching.plaintext_hit_ratio": self.cache_hits / self.cache_lookups,
        }
        layers = {"fhe.keygen_s": median(self.keygen_s)}
        if self.tracer:
            layers.update(self._span_metrics(units))
            self.checks["op counts equal NetworkTrace"] = self._ops_match(units)
            self.checks["layers cover >= 95% of forward"] = (
                layers["hecnn.coverage"] >= 0.95
            )
        return outputs, layers

    def _span_metrics(self, requests: int) -> dict[str, float]:
        """Per-request times (ms) and counts from the timed requests' spans.

        Layer times are each layer span's full duration: the layers
        partition the forward pass, so their sum over the forward span is
        the coverage.  Op times are self times, net of nested ops and
        kernels.
        """
        ms = 1e3 / requests
        spans = self.tracer.spans
        hecnn, layers = totals(spans, "hecnn"), totals(spans, "layer")
        ops, kernel = totals(spans, "op"), totals(spans, "kernel")
        out = {
            "hecnn.encrypt_ms": hecnn["encrypt"].inclusive_s * ms,
            "hecnn.decrypt_ms": hecnn["decrypt"].inclusive_s * ms,
            "hecnn.coverage": sum(t.inclusive_s for t in layers.values())
            / hecnn["forward"].inclusive_s,
            "kernels.calls": sum(t.count for t in kernel.values()) / requests,
        }
        for name, t in layers.items():
            out[f"hecnn.layer_ms.{name}"] = t.inclusive_s * ms
            out[f"hecnn.hops.{name}"] = (
                sum(self.recorder.by_phase[name].values()) / requests
            )
        for name, t in ops.items():
            out[f"fhe.op_count.{name}"] = t.count / requests
            out[f"fhe.op_self_ms.{name}"] = t.self_s * ms
        for group in set(KERNEL_GROUPS.values()):
            out[f"kernels.{group}_ms"] = ms * sum(
                t.inclusive_s for name, t in kernel.items()
                if KERNEL_GROUPS[name] == group
            )
        return out

    def _ops_match(self, requests: int) -> bool:
        """Executed HE ops per layer equal the analytic trace's."""
        for lt in self.model.trace().layers:
            expected = {op: n * requests for op, n in lt.op_counts.items() if n}
            executed = self.recorder.by_phase[lt.name]
            if {op: n for op, n in executed.items() if n} != expected:
                return False
        return True


class MnistN2048(FheWorkload):
    """FxHENN-MNIST at N=2048, L=7 (the ``repro infer --fast`` params)."""

    params = CkksParameters(
        poly_degree=2048, prime_bits=28, level=7, scale_bits=26
    )
    build_model = staticmethod(fxhenn_mnist_model)

    @staticmethod
    def draw_image(rng: np.random.Generator) -> np.ndarray:
        return synthetic_mnist_image(seed=int(rng.integers(2**31)))


class TinyN512(FheWorkload):
    """Tiny-MNIST at N=512, L=7 (``repro infer --network tiny``)."""

    params = tiny_test_params(poly_degree=512, level=7)
    build_model = staticmethod(tiny_mnist_model)

    @staticmethod
    def draw_image(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0, 1, (1, 8, 8))


# -- design space exploration ---------------------------------------------------

#: ``design name -> (network, device)`` of the paper's four accelerators.
DESIGNS = {
    "mnist-acu9eg": ("mnist", "acu9eg"),
    "mnist-acu15eg": ("mnist", "acu15eg"),
    "cifar10-acu9eg": ("cifar10", "acu9eg"),
    "cifar10-acu15eg": ("cifar10", "acu15eg"),
}
#: The paper's MNIST design on ACU9EG: (cycles, points evaluated, feasible).
PINNED_MNIST_ACU9EG = (23558927, 2352, 312)
MAX_SIM_ERROR = 0.25


def _generate(trace, device):
    return FxHennFramework().generate(trace, device)


class DsePaper(Workload):
    """Cold DSE of the paper's four designs, one pass per unit.

    The networks and devices are fixed, so the seed changes nothing here.
    A set-up builds both network traces.
    """

    def __init__(self, seed: int, traced: bool) -> None:
        super().__init__(seed, traced)
        self.release()
        self.designs: dict = {}
        self.first: dict[str, tuple[int, int, int]] = {}

    def release(self) -> None:
        self.traces = self.devices = None

    def set_up(self, rep: int) -> None:
        self.traces = {
            "mnist": fxhenn_mnist_model().trace(),
            "cifar10": fxhenn_cifar10_model().trace(),
        }
        self.devices = {"acu9eg": acu9eg(), "acu15eg": acu15eg()}

    def unit(self, i: int) -> float:
        if self.tracer:
            self.tracer.request = i
        start = perf_counter()
        for name, (net, dev) in DESIGNS.items():
            self.designs[name] = self.call(
                name, "design", _generate, self.traces[net], self.devices[dev]
            )
        elapsed = perf_counter() - start
        for name, d in self.designs.items():
            got = (d.solution.latency_cycles, d.dse.evaluated, d.dse.feasible)
            self.attempted += 1
            self.failed += self.first.setdefault(name, got) != got
        return elapsed

    def finish(self, units: int) -> tuple[dict, dict]:
        rel_error = {
            name: AcceleratorSimulator(d.device).simulate(
                d.network, d.solution
            ).relative_error
            for name, d in self.designs.items()
        }
        self.checks.update({
            "passes identical": self.failed == 0,
            "mnist-acu9eg pinned": (
                self.first["mnist-acu9eg"] == PINNED_MNIST_ACU9EG
            ),
            "simulator within 25% of model": all(
                abs(e) < MAX_SIM_ERROR for e in rel_error.values()
            ),
        })
        outputs = {}
        for name, (cycles, evaluated, feasible) in self.first.items():
            outputs[f"fpga.latency_cycles.{name}"] = cycles
            outputs[f"core.points_evaluated.{name}"] = evaluated
            outputs[f"core.points_feasible.{name}"] = feasible
            outputs[f"sim.abs_rel_error.{name}"] = abs(rel_error[name])
        for layer in self.designs["mnist-acu9eg"].solution.layers:
            outputs[f"fpga.layer_cycles.{layer.name}"] = layer.latency_cycles
        layers = {}
        if self.tracer:
            for name, t in totals(self.tracer.spans, "design").items():
                layers[f"core.dse_ms.{name}"] = t.inclusive_s * 1e3 / units
        return outputs, layers


# -- serving replay -------------------------------------------------------------

POLY_DEGREE = 8192
#: Span names of the three serving loops' ``run()`` calls.
LOOPS = {
    "autoscale": "serve.autoscale_run",
    "static": "cluster.static_run",
    "scheduler": "serve.scheduler_run",
}


def flashcrowd_stream(seed: int):
    """The ``BENCH_autoscale`` stream: a 600 s diurnal curve plus a 10x
    surge (11763 requests at seed 1), untagged."""
    return merge_arrivals(
        diurnal_arrivals(600.0, 4.0, 12.0, period_s=600.0, seed=seed),
        flash_crowd_arrivals(600.0, 6.0, 240.0, 60.0, surge_multiplier=10.0,
                             seed=seed + 1),
    )


def _serve_report(report):
    return getattr(report, "serve", report)


def _same_replay(a, b) -> bool:
    if _serve_report(a).results != _serve_report(b).results:
        return False
    if hasattr(a, "decisions"):
        return (a.decisions, a.timeline, a.node_seconds) == (
            b.decisions, b.timeline, b.node_seconds
        )
    return True


class ServeFlashcrowd(Workload):
    """Replays of one flash-crowd stream through the autoscaler, the static
    one-node cluster and the single-node scheduler, one replay per unit.

    A set-up plans the static fleet and builds the three loops from cold,
    then serves the stream once to warm them.
    """

    def __init__(self, seed: int, traced: bool) -> None:
        super().__init__(seed, traced)
        self.requests = flashcrowd_stream(seed)
        self.config = SchedulerConfig(max_lanes=256)
        self.plan_s: list[float] = []
        self.reference = None
        self.lost = self.diverged = 0
        self.release()

    def release(self) -> None:
        self.loops = self.warm = None

    def set_up(self, rep: int) -> None:
        device = acu15eg()
        planner = FleetPlanner()
        start = perf_counter()
        static_plan = planner.plan(
            cryptonets_mnist_batched(POLY_DEGREE), Fleet.homogeneous(device, 1)
        )
        self.plan_s.append(perf_counter() - start)
        self.loops = {
            "autoscale": FleetAutoscaler(
                device, poly_degree=POLY_DEGREE,
                policy=AutoscalerConfig(min_nodes=1, max_nodes=3,
                                        cooldown_s=30.0),
                config=self.config, planner=planner,
            ),
            "static": ClusterService(
                static_plan, batch_capacity=max_batch_lanes(POLY_DEGREE),
                config=self.config,
            ),
            "scheduler": SlotBatchScheduler(
                ServingCostModel.cryptonets_mnist(
                    device, POLY_DEGREE, designs=planner.designs
                ),
                self.config,
            ),
        }
        self.warm = {
            name: loop.run(self.requests) for name, loop in self.loops.items()
        }

    def settle(self) -> None:
        if self.reference is None:
            self.reference = self.warm
        for name, report in self.warm.items():
            self._tally(report, self.reference[name])

    def _tally(self, report, reference) -> None:
        serve = _serve_report(report)
        offered = len(self.requests)
        self.attempted += offered
        self.failed += serve.rejected + serve.expired
        if serve.completed + serve.rejected + serve.expired != offered:
            self.lost += 1
            self.failed += offered
        if not _same_replay(report, reference):
            self.diverged += 1
            self.failed += offered

    def unit(self, i: int) -> float:
        if self.tracer:
            self.tracer.request = i
        start = perf_counter()
        reports = {
            name: self.call(LOOPS[name], "serve", loop.run, self.requests)
            for name, loop in self.loops.items()
        }
        elapsed = perf_counter() - start
        for name, report in reports.items():
            self._tally(report, self.reference[name])
        return elapsed

    def finish(self, units: int) -> tuple[dict, dict]:
        self.checks.update({
            "completed + rejected + expired = offered": self.lost == 0,
            "replays identical": self.diverged == 0,
        })
        auto = self.reference["autoscale"]
        waits = [r.start_s - r.arrival_s for r in auto.serve.results
                 if r.completed]
        resizes = Counter(d.action for d in auto.resizes)
        outputs = {
            "serve.sim_p99_s": auto.serve.latency_percentiles()["p99"],
            "serve.sim_node_seconds": auto.node_seconds,
            "serve.queue_wait_p50_s": percentile(waits, 50),
            "serve.queue_wait_p99_s": percentile(waits, 99),
            "serve.batches": len(auto.serve.batches),
            "serve.mean_fill_ratio": auto.serve.mean_fill_ratio,
            "serve.scale_ups": resizes["scale_up"],
            "serve.scale_downs": resizes["scale_down"],
            "serve.peak_nodes": auto.peak_nodes,
            "cluster.static1_p99_s": (
                self.reference["static"].latency_percentiles()["p99"]
            ),
            "serve.single_node_p99_s": (
                self.reference["scheduler"].latency_percentiles()["p99"]
            ),
        }
        layers = {"cluster.plan_ms": 1e3 * median(self.plan_s)}
        if self.tracer:
            for span, t in totals(self.tracer.spans, "serve").items():
                layers[f"{span}_ms"] = t.inclusive_s * 1e3 / units
        return outputs, layers


WORKLOADS = {
    "mnist-n2048": MnistN2048,
    "tiny-n512": TinyN512,
    "dse-paper": DsePaper,
    "serve-flashcrowd": ServeFlashcrowd,
}
