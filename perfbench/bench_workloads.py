"""The three benchmark workloads: inputs, timed part and output checks.

Each workload is sized from ``--seconds`` at a nominal rate measured on a
2-CPU x86 box, so one seed and one ``--seconds`` value give every commit the
same inputs and the same amount of work (a faster commit finishes sooner
rather than doing more).  ``setup`` builds the inputs from the seed,
``measure`` runs the timed part, ``check`` verifies the outputs outside the
timed part, and ``report`` turns the outputs into metrics.

Every workload reports the same three end-to-end metrics (see README.md for
what each means on each workload):

* ``setup_s`` -- measured by the runner around ``setup``;
* ``op_p50_s`` -- median time of one timed operation, rescaled to the
  nominal host speed by :class:`bench_clock.NominalClock`;
* ``latency_bound`` -- the Lemma-1 latency bound of the placement(s) the
  workload produces or serves (model time units).

``report`` also returns workload-specific detail (placement time, bin
decision times, throughputs, replay latencies, tails with their sample
counts) that the runner prints and records but does not gate.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from bench_clock import NominalClock
from repro.api import Scenario, Session
from repro.api.registry import CONTROLLERS, ENGINES
from repro.cluster.cluster import ClusterConfig
from repro.cluster.devices import chunk_size_for_object
from repro.cluster.replay import ClusterReplay, ReplayTrace
from repro.core.vectorized import VectorizedSystem
from repro.exceptions import ModelError
from repro.policies.functional import StaticFunctionalPolicy
from repro.simulation.simulator import SimulationConfig


class StabilityRefused(RuntimeError):
    """An instance sits outside the queueing-stability envelope (rho >= 1)."""


@dataclass
class Report:
    """Metrics and counts of one measured run."""

    metrics: Dict[str, float]
    detail: Dict[str, Any]
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def sub_seed(seed: int, index: int) -> int:
    """A deterministic 31-bit seed for item ``index`` of run ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def tail(samples: List[float]) -> Dict[str, Any]:
    """The highest percentile with at least ten samples beyond it."""
    count = len(samples)
    if count <= 10:
        return {"percentile": None, "value": None, "samples": count}
    percentile = 100.0 * (count - 10) / count
    return {
        "percentile": percentile,
        "value": float(np.percentile(samples, percentile)),
        "samples": count,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def rho_max_start(model) -> float:
    """Peak node utilisation of Algorithm 1's no-cache starting point."""
    system = VectorizedSystem(model)
    pi = system.project(
        system.initial_pi(), np.zeros(system.num_files), system.k_values.copy()
    )
    return float(np.max(system.node_rates(pi) / system.mu))


def rho_max_placement(model, placement) -> float:
    """Peak node utilisation under a placement's scheduling probabilities."""
    probabilities = placement.scheduling_probabilities()
    rates = model.node_arrival_rates(
        [probabilities[spec.file_id] for spec in model.files]
    )
    return max(rate / model.service(node).rate for node, rate in rates.items())


def refuse_unstable(label: str, rho: float) -> None:
    if not rho < 1.0:
        raise StabilityRefused(
            f"{label}: peak node utilisation {rho:.4f} >= 1; the solver would "
            f"minimise a clamp penalty, not a latency"
        )


def _failure(label: str) -> str:
    """Report the exception being handled: traceback to stderr, one line back."""
    traceback.print_exc(file=sys.stderr)
    return f"{label}: {sys.exc_info()[1]!r}"


# ----------------------------------------------------------------------
# offline_solve
# ----------------------------------------------------------------------


class OfflineSolve:
    """Algorithm 1 end to end through ``Session.run`` on seeded instances."""

    name = "offline_solve"
    #: Instances solved per second of ``--seconds`` (about 0.6 s each).
    INSTANCES_PER_SECOND = 2.0
    FULL = {"num_files": 250, "cache_capacity": 125, "rate_scale": 4.0}
    TOY = {"num_files": 24, "cache_capacity": 12, "rate_scale": 20.0}

    def __init__(self, seconds: float, toy: bool = False):
        self.size = self.TOY if toy else self.FULL
        self.count = max(3, round(seconds * self.INSTANCES_PER_SECOND))

    def setup(self, seed: int) -> Dict[str, Any]:
        session = Session(cache=None)
        scenarios, models, rho_start = [], [], []
        for index in range(self.count):
            scenario = Scenario(
                workload="paper_default",
                code=(7, 4),
                policy="optimal",
                engine="batch",
                seed=sub_seed(seed, index),
                **self.size,
            )
            model = session.build_model(scenario)
            rho = rho_max_start(model)
            refuse_unstable(f"{self.name} instance {index} (start)", rho)
            scenarios.append(scenario)
            models.append(model)
            rho_start.append(rho)
        return {
            "session": session,
            "scenarios": scenarios,
            "models": models,
            "rho_start": rho_start,
        }

    def measure(self, state: Dict[str, Any], clock: NominalClock) -> Dict[str, Any]:
        session = state["session"]
        results, seconds, nominal, errors = [], [], [], []
        for index, scenario in enumerate(state["scenarios"]):
            try:
                result, raw_s, nominal_s = clock.time(session.run, scenario)
            except Exception:  # a raised solve is a failed op, not a crash
                errors.append(_failure(f"instance {index}"))
                results.append(None)
                continue
            results.append(result)
            seconds.append(raw_s)
            nominal.append(nominal_s)
        return {"results": results, "seconds": seconds, "nominal": nominal, "errors": errors}

    def check(self, state, out) -> List[str]:
        errors = []
        rho_final = []
        for index, (model, result) in enumerate(zip(state["models"], out["results"])):
            if result is None:
                continue
            label = f"instance {index}"
            if getattr(result, "from_cache", False):
                errors.append(f"{label}: served from the result cache")
                continue
            try:
                result.placement.validate_against(model)
            except ModelError as error:
                errors.append(f"{label}: invalid placement: {error}")
            if not result.optimization.converged:
                continue  # counted as a failed op
            if not result.simulated_mean_latency <= result.objective:
                errors.append(
                    f"{label}: simulated mean {result.simulated_mean_latency} "
                    f"exceeds the bound {result.objective}"
                )
            rho = rho_max_placement(model, result.placement)
            rho_final.append(rho)
            if not rho < 1.0:
                errors.append(f"{label}: final peak utilisation {rho:.4f} >= 1")
        out["rho_final"] = rho_final
        return errors

    def report(self, state, out) -> Report:
        done = [r for r in out["results"] if r is not None]
        times = out["seconds"]
        failed = len(out["errors"]) + sum(
            not r.optimization.converged for r in done
        )
        objectives = [r.objective for r in done]
        metrics = {
            "op_p50_s": _median(out["nominal"]),
            "latency_bound": _median(objectives),
        }
        detail = {
            "placement_s": _median(times),
            "placement_tail_s": tail(times),
            "placement_nominal_tail_s": tail(out["nominal"]),
            "latency_bound": metrics["latency_bound"],
            "sim_latency_mean": statistics.median(
                r.simulated_mean_latency for r in done
            ) if done else math.nan,
            "instances": len(out["results"]),
            "outer_iterations": [r.optimization.outer_iterations for r in done],
            "rho_start_max": max(state["rho_start"]),
            "rho_final_max": max(out.get("rho_final") or [math.nan]),
        }
        return Report(metrics, detail, attempted=len(out["results"]), failed=failed)


# ----------------------------------------------------------------------
# online_drift
# ----------------------------------------------------------------------


class OnlineDrift:
    """The ``online`` controller fed a drifting stream chunk by chunk."""

    name = "online_drift"
    #: Stream seconds fed per second of ``--seconds``.
    STREAM_PER_SECOND = 50_000.0
    #: The cluster layout (chunk placement) is the paper's default seed for
    #: every run; ``--seed`` draws the request stream.  The bootstrap is then
    #: the same cold solve on every seed, while the bins follow the stream.
    LAYOUT_SEED = 2016
    #: The drift workload's time axis stretched 100x (window 2000 s ->
    #: 200 000 s, shift 4000 s -> 400 000 s) at unchanged per-second rates,
    #: so each estimator window holds ~7000 requests instead of ~70.
    CHUNK_S = 25_000.0
    SHIFT_EVERY_S = 400_000.0
    FULL = {"num_files": 200, "cache_capacity": 200}
    TOY = {"num_files": 24, "cache_capacity": 24}
    CONTROLLER_PARAMS = {"window": 200_000.0, "rate_floor": 1e-5}
    #: Cold bootstraps timed per second of ``--seconds`` (at least two), each
    #: on a fresh controller; the stream is then fed to the last one.
    BOOTSTRAPS_PER_SECOND = 0.25

    def __init__(self, seconds: float, toy: bool = False):
        self.size = self.TOY if toy else self.FULL
        self.bootstraps = max(2, round(seconds * self.BOOTSTRAPS_PER_SECOND))
        # At least two and a half popularity shifts, so bins always open.
        self.horizon = max(2.5 * self.SHIFT_EVERY_S, seconds * self.STREAM_PER_SECOND)

    def setup(self, seed: int) -> Dict[str, Any]:
        scenario = Scenario(
            workload="drift",
            rate_scale=0.5,
            workload_params={"shift_every": self.SHIFT_EVERY_S},
            controller="online",
            controller_params=self.CONTROLLER_PARAMS,
            seed=self.LAYOUT_SEED,
            **self.size,
        )
        workload = Session(cache=None).build_workload(scenario)
        model = workload.model()
        rho = rho_max_start(model)
        refuse_unstable(f"{self.name} (start)", rho)
        controllers = [
            CONTROLLERS.get("online").build(model, **self.CONTROLLER_PARAMS)
            for _ in range(self.bootstraps)
        ]
        rng = np.random.default_rng(sub_seed(seed, 1))
        stream = workload.sample(rng, horizon=self.horizon)
        edges = np.arange(self.CHUNK_S, self.horizon + self.CHUNK_S, self.CHUNK_S)
        stops = np.searchsorted(stream.times, edges, side="right")
        starts = np.concatenate([[0], stops[:-1]])
        chunks = [
            (stream.times[a:b], stream.object_positions[a:b])
            for a, b in zip(starts, stops)
            if b > a
        ]
        return {
            "model": model,
            "controllers": controllers,
            "chunks": chunks,
            "requests": stream.num_requests,
            "rho_start": rho,
        }

    def measure(self, state: Dict[str, Any], clock: NominalClock) -> Dict[str, Any]:
        bootstrap_s, bootstrap_nominal = [], []
        for controller in state["controllers"]:
            _, raw_s, nominal_s = clock.time(controller.bootstrap)
            bootstrap_s.append(raw_s)
            bootstrap_nominal.append(nominal_s)
        controller = state["controllers"][-1]
        decisions, nominal, ingest_s, ingest_requests, errors = [], [], 0.0, 0, []
        for index, (times, positions) in enumerate(state["chunks"]):
            try:
                record, elapsed, nominal_s = clock.time(controller.observe, times, positions)
            except Exception:  # a raised re-solve is a failed op
                errors.append(_failure(f"chunk {index}"))
                continue
            if record is None:
                ingest_s += elapsed
                ingest_requests += times.size
            else:
                decisions.append(elapsed)
                nominal.append(nominal_s)
        return {
            "bootstrap_s": bootstrap_s,
            "bootstrap_nominal_s": bootstrap_nominal,
            "decisions": decisions,
            "nominal": nominal,
            "ingest_s": ingest_s,
            "ingest_requests": ingest_requests,
            "records": controller.records,
            "errors": errors,
        }

    def check(self, state, out) -> List[str]:
        errors = []
        model = state["model"]
        k = np.asarray([spec.k for spec in model.files])
        for record in out["records"]:
            for label, allocation in (
                ("desired", record.report.cached_chunks),
                ("applied", record.churn.applied),
            ):
                allocation = np.asarray(allocation, dtype=float)
                if not np.array_equal(allocation, np.round(allocation)):
                    errors.append(f"bin {record.index}: {label} allocation is not integral")
                if np.any(allocation < 0) or np.any(allocation > k):
                    errors.append(f"bin {record.index}: {label} allocation outside [0, k]")
                if allocation.sum() > model.cache_capacity:
                    errors.append(f"bin {record.index}: {label} allocation exceeds capacity")
            if not math.isfinite(record.report.objective):
                errors.append(f"bin {record.index}: objective {record.report.objective}")
        if len({c.records[0].report.objective for c in state["controllers"]}) != 1:
            errors.append("the repeated cold bootstraps disagree")
        if len(out["records"]) < 2:
            errors.append("the stream opened no bin after the bootstrap")
        last = out["records"][-1]
        system = state["controllers"][-1].resolver.system
        if last.report.pinned_pi is not None:
            rho = float(np.max(system.node_rates(last.report.pinned_pi) / system.mu))
            out["rho_final"] = rho
            if not rho < 1.0:
                errors.append(f"final peak utilisation {rho:.4f} >= 1")
        return errors

    def report(self, state, out) -> Report:
        decisions = out["decisions"]
        bins = out["records"][1:]
        bound = statistics.fmean(r.report.objective for r in bins) if bins else math.nan
        metrics = {"op_p50_s": _median(out["bootstrap_nominal_s"]), "latency_bound": bound}
        detail = {
            "bootstrap_s": _median(out["bootstrap_s"]),
            "bootstrap_samples_s": out["bootstrap_s"],
            "bootstrap_nominal_samples_s": out["bootstrap_nominal_s"],
            "bin_decision_mean_s": statistics.fmean(decisions) if decisions else math.nan,
            "bin_decision_p50_s": statistics.median(decisions) if decisions else math.nan,
            "bin_decision_tail_s": tail(decisions),
            "bin_decision_nominal_tail_s": tail(out["nominal"]),
            "tracked_bound": bound,
            "ingest_rps": out["ingest_requests"] / out["ingest_s"] if out["ingest_s"] else None,
            "bins": len(bins),
            "fallbacks": sum(r.report.fallback for r in bins),
            "stream_requests": state["requests"],
            "rho_start_max": state["rho_start"],
            "rho_final_max": out.get("rho_final", math.nan),
        }
        attempted = len(state["controllers"]) + len(state["chunks"])
        return Report(metrics, detail, attempted=attempted, failed=len(out["errors"]))


# ----------------------------------------------------------------------
# cluster_replay
# ----------------------------------------------------------------------


class ClusterReplayWorkload:
    """A frozen Algorithm-1 placement served by the batch engine and the
    emulated cluster (functional vs. LRU) under the 1 % OSD-crash schedule."""

    name = "cluster_replay"
    #: Serve rounds per second of ``--seconds`` (about 2 s each).
    ROUNDS_PER_SECOND = 0.5
    FULL = {"num_files": 1000, "cache_capacity": 500, "trace_s": 30_000.0,
            "sim_horizon": 500_000.0, "check_prefix": 30_000}
    TOY = {"num_files": 30, "cache_capacity": 15, "trace_s": 3_000.0,
           "sim_horizon": 20_000.0, "check_prefix": 2_000}
    RATE_RPS = 4.0
    OBJECT_MB = 64
    FAULTS = {
        "faults": "osd_crash",
        "fault_params": {"crash_rate": 1.0 / 6000.0, "downtime_ms": 60_000.0},
    }

    def __init__(self, seconds: float, toy: bool = False):
        self.size = self.TOY if toy else self.FULL
        self.rounds = max(2, round(seconds * self.ROUNDS_PER_SECOND))

    def setup(self, seed: int) -> Dict[str, Any]:
        size = self.size
        scenario = Scenario(
            workload="paper_default",
            num_files=size["num_files"],
            cache_capacity=size["cache_capacity"],
            code=(7, 4),
            seed=sub_seed(seed, 0),
            simulate=False,
        )
        session = Session(cache=None)
        model = session.build_model(scenario)
        rho_start = rho_max_start(model)
        refuse_unstable(f"{self.name} (start)", rho_start)
        result = session.run(scenario)
        placement = result.placement
        rho_final = rho_max_placement(model, placement)
        refuse_unstable(f"{self.name} (placement)", rho_final)
        n, k = scenario.code
        config = ClusterConfig(
            num_osds=12,
            n=n,
            k=k,
            object_size_mb=self.OBJECT_MB,
            cache_capacity_mb=model.cache_capacity * chunk_size_for_object(self.OBJECT_MB, k),
            seed=scenario.seed,
        )
        raw = {spec.file_id: spec.arrival_rate for spec in model.files}
        scale = self.RATE_RPS / sum(raw.values())
        trace = ReplayTrace.from_rates(
            {fid: rate * scale for fid, rate in raw.items()},
            size["trace_s"],
            seed=sub_seed(seed, 1),
        )
        allocation = placement.cached_chunks()

        def functional(capacity, chunks_per_file):
            return StaticFunctionalPolicy(capacity, chunks_per_file, allocation=allocation)

        file_ids = [spec.file_id for spec in model.files]
        return {
            "model": model,
            "result": result,
            "placement": placement,
            "trace": trace,
            "replays": {
                "functional": ClusterReplay(config, file_ids, policy=functional),
                "lru": ClusterReplay(config, file_ids, policy="lru"),
            },
            "replay_seed": sub_seed(seed, 2),
            "sim_config": SimulationConfig(
                horizon=size["sim_horizon"],
                seed=sub_seed(seed, 3),
                warmup=0.05 * size["sim_horizon"],
            ),
            "rho_start": rho_start,
            "rho_final": rho_final,
        }

    def _serve(self, state: Dict[str, Any], clock: NominalClock) -> Dict[str, Any]:
        """One round: the batch simulation and both replays of the trace."""
        simulation, sim_s, sim_nominal_s = clock.time(
            ENGINES.get("batch").simulate,
            state["model"], state["placement"], state["sim_config"],
        )

        def replay_both():
            return {
                arm: replay.run(
                    state["trace"], engine="epoch", seed=state["replay_seed"], **self.FAULTS
                )
                for arm, replay in state["replays"].items()
            }

        replays, replay_s, replay_nominal_s = clock.time(replay_both)
        return {
            "simulation": simulation,
            "sim_s": sim_s,
            "replays": replays,
            "replay_s": replay_s,
            "nominal_s": sim_nominal_s + replay_nominal_s,
        }

    def measure(self, state: Dict[str, Any], clock: NominalClock) -> Dict[str, Any]:
        return {"rounds": [self._serve(state, clock) for _ in range(self.rounds)], "errors": []}

    def check(self, state, out) -> List[str]:
        errors = []
        if getattr(state["result"], "from_cache", False):
            errors.append("the placement was served from the result cache")
        first = out["rounds"][0]
        for index, later in enumerate(out["rounds"][1:], start=1):
            if later["simulation"].mean_latency() != first["simulation"].mean_latency():
                errors.append(f"round {index}: batch simulation is not deterministic")
            for arm, replay in later["replays"].items():
                if _counters(replay) != _counters(first["replays"][arm]):
                    errors.append(f"round {index}: {arm} replay is not deterministic")
        # Epoch engine == per-request reference engine on a trace prefix.
        trace = state["trace"]
        prefix = min(self.size["check_prefix"], trace.num_requests)
        head = ReplayTrace(
            times_ms=trace.times_ms[:prefix],
            object_positions=trace.object_positions[:prefix],
            object_ids=trace.object_ids,
        )
        for arm, replay in state["replays"].items():
            epoch = replay.run(head, engine="epoch", seed=state["replay_seed"], **self.FAULTS)
            request = replay.run(head, engine="request", seed=state["replay_seed"], **self.FAULTS)
            if _counters(epoch) != _counters(request):
                errors.append(
                    f"{arm}: epoch and request engines disagree on counters "
                    f"({_counters(epoch)} vs {_counters(request)})"
                )
            elif not np.array_equal(epoch.served_mask, request.served_mask) or not np.allclose(
                epoch.latencies_ms, request.latencies_ms, rtol=1e-9, atol=1e-9
            ):
                errors.append(f"{arm}: epoch and request engine latencies differ beyond 1e-9")
        functional = first["replays"]["functional"]
        if not math.isfinite(functional.mean_latency_ms()):
            errors.append("functional replay served no read")
        return errors

    def report(self, state, out) -> Report:
        rounds = out["rounds"]
        trace_requests = state["trace"].num_requests
        round_s = [r["sim_s"] + r["replay_s"] for r in rounds]
        first = rounds[0]
        functional = first["replays"]["functional"]
        lru = first["replays"]["lru"]
        metrics = {
            "op_p50_s": _median(r["nominal_s"] for r in rounds),
            "latency_bound": float(state["placement"].objective),
        }
        detail = {
            "round_s": _median(round_s),
            "round_tail_s": tail(round_s),
            "sim_rps": statistics.median(
                r["simulation"].requests_completed / r["sim_s"] for r in rounds
            ),
            "replay_rps": statistics.median(2 * trace_requests / r["replay_s"] for r in rounds),
            "replay_mean_ms": functional.mean_latency_ms(),
            "replay_p99_ms": functional.percentile_ms(99.0),
            "lru_mean_ms": lru.mean_latency_ms(),
            "hit_ratio": {"functional": functional.hit_ratio, "lru": lru.hit_ratio},
            "degraded_reads": functional.degraded_reads,
            "trace_requests": trace_requests,
            "rounds": len(rounds),
            "rho_start_max": state["rho_start"],
            "rho_final_max": state["rho_final"],
        }
        replays = [replay for r in rounds for replay in r["replays"].values()]
        return Report(
            metrics,
            detail,
            attempted=sum(replay.reads for replay in replays),
            failed=sum(replay.failed_reads for replay in replays),
        )


def _counters(replay) -> Tuple[int, ...]:
    return (
        replay.reads,
        replay.hits,
        replay.promotions,
        replay.evictions_mb,
        replay.chunks_from_cache,
        replay.chunks_from_storage,
        replay.degraded_reads,
        replay.failed_reads,
        replay.repair_jobs,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (OfflineSolve, OnlineDrift, ClusterReplayWorkload)
}
