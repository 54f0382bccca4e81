"""The per-layer ledger: which package calls are traced, and what they add up to.

:func:`install` wraps the public entry points of every layer on a
:class:`~bench_trace.Tracer`; :func:`ledger` turns the recorded spans and
counts into the ``per_layer`` metrics named in ``BENCHMARK.json``.  Every
metric exists on every workload: a layer a workload does not reach reads 0.

:data:`PER_LAYER` is the single list of metric names, units and directions;
``BENCHMARK.json`` mirrors it (the self-tests check that they agree).  The
end-to-end metric each layer metric should move is tabled in README.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from bench_trace import Tracer

#: Kernels whose calls, busy seconds and elements are ledgered.
KERNELS = (
    "segment_sum",
    "lindley_departures",
    "fork_join_max",
    "systematic_sample_positions",
    "fifo_departures_grouped",
    "multi_server_departures",
    "last_access_fold",
)


def _counting(**fields):
    """A hook adding ``read(result)`` to the count of each given name."""

    def hook(tracer, args, kwargs, result, seconds):
        for name, read in fields.items():
            tracer.count(name, float(read(result)))

    return hook


def _resolve_hook(tracer, args, kwargs, report, seconds):
    # The bootstrap runs one cold resolve inside its own span; only the
    # re-solves the controller runs per bin are ledgered as re-solves.
    if tracer.parent == "control.bootstrap":
        return
    tracer.count("control.resolve.calls")
    tracer.count("control.resolve.s", seconds)
    tracer.count("control.resolve.iterations", report.iterations)
    if report.warm:
        tracer.count("control.resolve.warm")
        tracer.count("control.resolve.fallbacks", int(report.fallback))
        tracer.count("control.resolve.frozen_sum", report.fraction_frozen)


def _replay_hook(tracer, args, kwargs, result, seconds):
    arm = "lru" if result.policy == "lru" else "functional"
    tracer.count(f"cluster.replay.{arm}.s", seconds)
    tracer.count(f"cluster.replay.{arm}.reads", result.reads)
    tracer.count(f"cluster.replay.{arm}.hits", result.hits)
    tracer.count("cluster.replay.requests", result.reads)
    tracer.count("cluster.replay.chunks_from_storage", result.chunks_from_storage)
    tracer.count("cluster.replay.degraded_reads", result.degraded_reads)
    tracer.count("cluster.replay.failed_reads", result.failed_reads)
    tracer.count("cluster.replay.repair_jobs", result.repair_jobs)
    if arm == "lru":
        tracer.count("policies.lru.promotions", result.promotions)
        tracer.count("policies.lru.evictions_mb", result.evictions_mb)


def _session_hook(tracer, args, kwargs, result, seconds):
    for stage in ("build_model", "optimize", "simulate"):
        tracer.count(f"api.stage.{stage}.s", result.timings.get(stage, 0.0))


def _elements_hook(name):
    def hook(tracer, args, kwargs, result, seconds):
        tracer.count(f"kernels.{name}.elements", np.size(args[0]))

    return hook


def install(tracer: Tracer) -> Tracer:
    """Wrap every ledgered package entry point on ``tracer``."""
    method, function = tracer.patch_method, tracer.patch_function
    # api and workloads
    method("repro.api.session:Session.run", "api.run", _session_hook)
    method("repro.api.session:Session.build_workload", "workloads.model")
    method("repro.workloads.zoo:_ZooWorkload.model", "workloads.model")
    method(
        "repro.workloads.zoo:PopularityDriftWorkload.sample",
        "workloads.sample",
        _counting(**{"workloads.sample.requests": lambda r: r.num_requests}),
    )
    # core
    method(
        "repro.core.algorithm:CacheOptimizer.optimize",
        "core.algorithm1",
        _counting(
            **{
                "core.algorithm1.outer_iterations": lambda r: r.outer_iterations,
                "core.algorithm1.inner_solves": lambda r: r.inner_solves,
                "core.algorithm1.converged": lambda r: r.converged,
            }
        ),
    )
    prob_pi = _counting(
        **{
            "core.prob_pi.iterations": lambda r: r.iterations,
            "core.prob_pi.unconverged": lambda r: not r.converged,
        }
    )
    function("repro.core.prob_pi:solve_projected_gradient", "core.prob_pi", prob_pi)
    function("repro.core.prob_pi:solve_fista", "core.prob_pi", prob_pi)
    method("repro.core.vectorized:VectorizedSystem.project", "core.project")
    method(
        "repro.core.vectorized:VectorizedSystem.objective_and_gradient",
        "core.objective_and_gradient",
    )
    method("repro.core.vectorized:VectorizedSystem.optimal_z", "core.optimal_z")
    function("repro.core.algorithm:build_placement", "core.build_placement")
    # control
    method("repro.control.controller:OnlineController.observe", "control.observe")
    method("repro.control.resolve:OnlineResolver.bootstrap", "control.bootstrap")
    method("repro.control.resolve:OnlineResolver.resolve", "control.resolve", _resolve_hook)
    method(
        "repro.control.resolve:ActiveSetProjection.__call__", "control.active_set_project"
    )
    method(
        "repro.control.estimator:StreamingRateEstimator.observe",
        "control.estimator.observe",
        _counting(**{"control.estimator.drift_events": lambda r: r is not None}),
    )
    method(
        "repro.control.controller:SwapPlanner.plan",
        "control.planner",
        _counting(
            **{
                "control.planner.added_chunks": lambda r: r.added_chunks,
                "control.planner.dropped_chunks": lambda r: r.dropped_chunks,
                "control.planner.deferred_chunks": lambda r: r.deferred_chunks,
            }
        ),
    )
    # simulation and kernels
    function(
        "repro.simulation.batch:run_batch_simulation",
        "simulation.batch",
        _counting(**{"simulation.batch.requests": lambda r: r.requests_completed}),
    )
    for kernel in KERNELS:
        function(f"repro.kernels.queueing:{kernel}", f"kernels.{kernel}", _elements_hook(kernel))
    # cluster, policies and faults
    method("repro.cluster.replay:ClusterReplay.run", "cluster.replay", _replay_hook)
    method("repro.cluster.replay:ReplayTrace.from_rates", "cluster.trace_build")
    method("repro.policies.base:ChunkCachingPolicy.observe", "policies.observe")
    method("repro.policies.lru:LRUPolicy.observe", "policies.observe")
    function("repro.faults.base:compile_fault_schedule", "faults.compile")
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: (name, unit, better) of every per-layer metric, in ledger order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("api.stage.build_model.s", "s", "lower"),
    ("api.stage.optimize.s", "s", "lower"),
    ("api.stage.simulate.s", "s", "lower"),
    ("workloads.model.s", "s", "lower"),
    ("workloads.sample.s", "s", "lower"),
    ("workloads.sample.requests", "count", "higher"),
    ("core.algorithm1.s", "s", "lower"),
    ("core.algorithm1.self_s", "s", "lower"),
    ("core.algorithm1.outer_iterations", "count", "lower"),
    ("core.algorithm1.inner_solves", "count", "lower"),
    ("core.algorithm1.converged", "count", "higher"),
    ("core.prob_pi.calls", "count", "lower"),
    ("core.prob_pi.s", "s", "lower"),
    ("core.prob_pi.iterations", "count", "lower"),
    ("core.prob_pi.unconverged", "count", "lower"),
    ("core.project.calls", "count", "lower"),
    ("core.project.s", "s", "lower"),
    ("core.project.us_per_call", "us", "lower"),
    ("core.objective_and_gradient.calls", "count", "lower"),
    ("core.objective_and_gradient.s", "s", "lower"),
    ("core.optimal_z.calls", "count", "lower"),
    ("core.optimal_z.s", "s", "lower"),
    ("core.build_placement.s", "s", "lower"),
    ("control.bootstrap.s", "s", "lower"),
    ("control.resolve.calls", "count", "lower"),
    ("control.resolve.s", "s", "lower"),
    ("control.resolve.iterations", "count", "lower"),
    ("control.resolve.fallbacks", "count", "lower"),
    ("control.resolve.fallback_ratio", "ratio", "lower"),
    ("control.resolve.fraction_frozen", "ratio", "higher"),
    ("control.active_set_project.calls", "count", "lower"),
    ("control.active_set_project.s", "s", "lower"),
    ("control.estimator.observe.calls", "count", "lower"),
    ("control.estimator.observe.s", "s", "lower"),
    ("control.estimator.drift_events", "count", "lower"),
    ("control.planner.s", "s", "lower"),
    ("control.planner.added_chunks", "count", "lower"),
    ("control.planner.dropped_chunks", "count", "lower"),
    ("control.planner.deferred_chunks", "count", "lower"),
    ("simulation.batch.s", "s", "lower"),
    ("simulation.batch.requests", "count", "higher"),
]
for _kernel in KERNELS:
    PER_LAYER += [
        (f"kernels.{_kernel}.calls", "count", "lower"),
        (f"kernels.{_kernel}.s", "s", "lower"),
        (f"kernels.{_kernel}.elements", "count", "higher"),
    ]
PER_LAYER += [
    ("cluster.replay.functional.s", "s", "lower"),
    ("cluster.replay.functional.hit_ratio", "ratio", "higher"),
    ("cluster.replay.lru.s", "s", "lower"),
    ("cluster.replay.lru.hit_ratio", "ratio", "higher"),
    ("cluster.replay.requests", "count", "higher"),
    ("cluster.replay.chunks_from_storage", "count", "lower"),
    ("cluster.replay.degraded_reads", "count", "lower"),
    ("cluster.replay.failed_reads", "count", "lower"),
    ("cluster.replay.repair_jobs", "count", "lower"),
    ("cluster.trace_build.s", "s", "lower"),
    ("policies.observe.calls", "count", "lower"),
    ("policies.observe.s", "s", "lower"),
    ("policies.lru.promotions", "count", "lower"),
    ("policies.lru.evictions_mb", "MB", "lower"),
    ("faults.compile.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

def ledger(tracer: Tracer, overhead_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run."""
    calls, busy, counts = tracer.calls, tracer.busy_s, tracer.counts
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, value in counts.items():
        if name in values:
            values[name] = float(value)
    for span in (
        "workloads.model",
        "workloads.sample",
        "core.algorithm1",
        "core.prob_pi",
        "core.project",
        "core.objective_and_gradient",
        "core.optimal_z",
        "core.build_placement",
        "control.bootstrap",
        "control.active_set_project",
        "control.estimator.observe",
        "control.planner",
        "simulation.batch",
        "cluster.trace_build",
        "policies.observe",
        "faults.compile",
    ) + tuple(f"kernels.{kernel}" for kernel in KERNELS):
        if f"{span}.s" in values:
            values[f"{span}.s"] = busy.get(span, 0.0)
        if f"{span}.calls" in values:
            values[f"{span}.calls"] = float(calls.get(span, 0))
    values["core.algorithm1.self_s"] = tracer.self_s.get("core.algorithm1", 0.0)
    values["core.project.us_per_call"] = 1e6 * _ratio(
        busy.get("core.project", 0.0), calls.get("core.project", 0)
    )
    warm = counts.get("control.resolve.warm", 0.0)
    values["control.resolve.fallback_ratio"] = _ratio(
        counts.get("control.resolve.fallbacks", 0.0), warm
    )
    values["control.resolve.fraction_frozen"] = _ratio(
        counts.get("control.resolve.frozen_sum", 0.0), warm
    )
    for arm in ("functional", "lru"):
        values[f"cluster.replay.{arm}.hit_ratio"] = _ratio(
            counts.get(f"cluster.replay.{arm}.hits", 0.0),
            counts.get(f"cluster.replay.{arm}.reads", 0.0),
        )
    values["trace.overhead_s"] = overhead_s
    return values
