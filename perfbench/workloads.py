"""The benchmark's four workloads, each driving one public entry point.

Every workload is a batch job driven by one caller (closed loop, one client,
serial backend, no cell workers).  ``setup(seed)`` builds all inputs from the
seed, request arrivals included; each returned :class:`Call` is then timed
repeatedly.  A call is split so that only the public-API work is timed:
``prepare`` builds fresh per-call state (a new framework, empty caches),
``execute`` drives the entry point, ``check`` digests the outputs and
counts operations.

Each likely optimisation does most of its work on one workload and almost
none on another; ``BENCHMARK.json`` records why each workload was chosen.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

from checks import Outcome, all_finite, digest

import repro
from repro.search.pareto import hypervolume
from repro.serving import bridge, metrics as serving_metrics
from repro.serving.families import OnOffBurstFamily, SteadyPoissonFamily, member_traffic_seed
from repro.serving.policies import Deployment, StaticPolicy, build_policy

#: Run outputs (span dumps, campaign checkpoints), inside the checkout.
SCRATCH = Path(__file__).resolve().parent / "out"

PLATFORM = "jetson-agx-xavier"
ACCURACY_GATE = 0.02

#: search: one evolutionary search per sub-seed, SEARCH_SUBSEEDS sub-seeds a
#: run, so one seed's trajectory does not set the run's throughput.
SEARCH_GENERATIONS = 10
SEARCH_POPULATION = 24
SEARCH_SUBSEEDS = 4
#: Fixed hypervolume reference (latency ms, energy mJ, -accuracy), worse
#: than every visformer/Xavier candidate.
HV_REFERENCE = (100.0, 1000.0, 0.0)

#: serve-*: front of a small search, replayed against bursty members.
SERVE_GENERATIONS = 6
SERVE_POPULATION = 16
SERVE_DEPLOYMENTS = 10
SERVE_MEMBERS = 10
#: Requests per replay: each member's first arrivals, so replays cost about
#: the same on every seed.
SERVE_REQUESTS = 400
#: Burst rate as a multiple of the deployments' median saturation capacity.
SERVE_OVERLOAD = 1.5

#: campaign: resnet20 over two boards, measured NSGA-II, three policies.
#: Small campaigns, many sub-seeds a run: the campaign wall depends on the
#: search trajectory, so averaging trajectories keeps runs comparable.
CAMPAIGN_PLATFORMS = ("jetson-agx-xavier", "mobile-big-little")
CAMPAIGN_GENERATIONS = 3
CAMPAIGN_POPULATION = 10
CAMPAIGN_MEMBERS = 1
CAMPAIGN_DURATION_MS = 400.0
CAMPAIGN_SUBSEEDS = 16


@dataclass
class Call:
    """One repeatable unit of timed work on a fixed input."""

    label: str
    nominal_ops: int
    prepare: Callable[[], Any]
    execute: Callable[[Any], Any]
    check: Callable[[Any], Outcome]


# -- search ---------------------------------------------------------------------------
def setup_search(seed: int) -> List[Call]:
    network = repro.visformer()
    platform = repro.get_platform(PLATFORM)
    reference = repro.MapAndConquer(network, platform, seed=0)
    gpu_only = reference.baseline("gpu")
    dla_only = reference.baseline("dla0")

    def prepare():
        return repro.MapAndConquer(network, platform, seed=0), repro.EvaluationCache()

    def make(sub_seed: int) -> Call:
        def execute(state):
            framework, cache = state
            result = framework.search(
                generations=SEARCH_GENERATIONS,
                population_size=SEARCH_POPULATION,
                seed=sub_seed,
                cache=cache,
            )
            energy = framework.select_energy_oriented(result.pareto, ACCURACY_GATE)
            latency = framework.select_latency_oriented(result.pareto, ACCURACY_GATE)
            return cache, result, energy, latency

        def check(output) -> Outcome:
            cache, result, energy, latency = output
            front = [(e.latency_ms, e.energy_mj, e.accuracy) for e in result.pareto]
            picks = [
                (pick.config.describe(), pick.latency_ms, pick.energy_mj, pick.accuracy)
                for pick in (energy, latency)
            ]
            bad = sum(
                not all_finite((e.latency_ms, e.energy_mj, e.accuracy)) for e in result.history
            )
            return Outcome(
                digest=digest(front + picks),
                attempted=cache.stats.misses,
                failed=bad,
                work=cache.stats.misses,
                counters={
                    "engine.EvaluationCache.hits": cache.stats.hits,
                    "engine.EvaluationCache.lookups": cache.stats.hits + cache.stats.misses,
                },
                modelled={
                    "energy_gain_vs_gpu_x": gpu_only.energy_mj / energy.energy_mj,
                    "latency_gain_vs_dla_x": dla_only.latency_ms / energy.latency_ms,
                    # Bound at import, before tracing patches the module, so
                    # the check's own hypervolume is not traced.
                    "front_hv": hypervolume(result.pareto, HV_REFERENCE),
                },
            )

        return Call(
            label=f"search@{sub_seed}",
            nominal_ops=SEARCH_GENERATIONS * SEARCH_POPULATION,
            prepare=prepare,
            execute=execute,
            check=check,
        )

    return [make(seed * SEARCH_SUBSEEDS + index) for index in range(SEARCH_SUBSEEDS)]


# -- serve-static / serve-adaptive ----------------------------------------------------
def serving_inputs(seed: int):
    """Deployments, platform and pre-generated bursty request streams."""
    network = repro.visformer()
    platform = repro.get_platform(PLATFORM)
    framework = repro.MapAndConquer(network, platform, seed=0)
    result = framework.search(
        generations=SERVE_GENERATIONS, population_size=SERVE_POPULATION, seed=seed
    )
    front = sorted(result.pareto, key=lambda e: (e.latency_ms, e.energy_mj))
    count = min(SERVE_DEPLOYMENTS, len(front))
    picks = [front[round(i * (len(front) - 1) / max(1, count - 1))] for i in range(count)]
    deployments = [Deployment.from_evaluated(e, name=f"d{i}") for i, e in enumerate(picks)]
    capacity = statistics.median(d.effective_capacity_rps() for d in deployments)
    family = OnOffBurstFamily(
        burst_rps=SERVE_OVERLOAD * capacity,
        idle_rps=0.1 * capacity,
        burst_ms=300.0,
        idle_ms=700.0,
    )
    mean_rps = (family.burst_rps * family.burst_ms + family.idle_rps * family.idle_ms) / (
        family.burst_ms + family.idle_ms
    )
    # Twice the expected window, cut to the first SERVE_REQUESTS arrivals, so
    # every replay serves the same number of requests whatever the jitter.
    window_ms = 2000.0 * SERVE_REQUESTS / mean_rps
    streams = []
    for index, member in enumerate(family.expand(seed, SERVE_MEMBERS)):
        traffic_seed = member_traffic_seed(seed, family.name, index)
        requests = member.generate(window_ms, seed=traffic_seed)[:SERVE_REQUESTS]
        streams.append((traffic_seed, requests))
    return platform, deployments, streams


def _replay_call(label, platform, policy, traffic_seed, requests) -> Call:
    def execute(_):
        result = bridge.simulate_deployment(
            None, platform, requests, policy=policy, seed=traffic_seed
        )
        return result, serving_metrics.compute_metrics(result)

    def check(output) -> Outcome:
        result, measured = output
        lost = len(requests) - len(result.records)
        values = (measured.p99_latency_ms, measured.energy_per_request_mj)
        return Outcome(
            digest=digest([measured]),
            attempted=len(requests),
            failed=lost if all_finite(values) else len(requests),
            work=len(requests),
            modelled={"sim_p99_ms": values[0], "sim_mj_per_req": values[1]},
        )

    return Call(label, len(requests), lambda: None, execute, check)


def setup_serve_static(seed: int) -> List[Call]:
    platform, deployments, streams = serving_inputs(seed)
    return [
        _replay_call(
            f"{deployment.name}/m{index}",
            platform,
            StaticPolicy(deployment),
            traffic_seed,
            requests,
        )
        for deployment in deployments
        for index, (traffic_seed, requests) in enumerate(streams)
    ]


def setup_serve_adaptive(seed: int) -> List[Call]:
    platform, deployments, streams = serving_inputs(seed)
    calls = []
    for position, deployment in enumerate(deployments):
        neighbour = deployments[(position + 1) % len(deployments)]
        for index, (traffic_seed, requests) in enumerate(streams):
            # Alternate the two load-driven policies over the grid; the
            # switcher hops between this deployment and its front neighbour.
            if (position + index) % 2 == 0:
                kind, pool = "switcher", (deployment, neighbour)
            else:
                kind, pool = "dvfs-governor", ()
            policy = build_policy(kind, deployment, platform, front=pool)
            calls.append(
                _replay_call(
                    f"{deployment.name}/m{index}/{kind}",
                    platform,
                    policy,
                    traffic_seed,
                    requests,
                )
            )
    return calls


# -- campaign -------------------------------------------------------------------------
def setup_campaign(seed: int) -> List[Call]:
    network = repro.resnet20()
    steady = SteadyPoissonFamily(rate_rps=40.0)
    families = [steady, OnOffBurstFamily()]
    measured = repro.MeasuredObjectives(
        family=steady, duration_ms=CAMPAIGN_DURATION_MS, members=CAMPAIGN_MEMBERS
    )
    cells = len(CAMPAIGN_PLATFORMS) * (1 + len(families))

    def prepare():
        SCRATCH.mkdir(exist_ok=True)
        checkpoint_dir = Path(tempfile.mkdtemp(prefix="campaign-", dir=SCRATCH))
        return checkpoint_dir, repro.EvaluationCache(), repro.ServingResultCache()

    def make(sub_seed: int) -> Call:
        def execute(state):
            checkpoint_dir, cache, serving_cache = state
            result = repro.run_serving_campaign(
                network,
                list(CAMPAIGN_PLATFORMS),
                families=families,
                members_per_family=CAMPAIGN_MEMBERS,
                duration_ms=CAMPAIGN_DURATION_MS,
                strategy="nsga2",
                cache=cache,
                generations=CAMPAIGN_GENERATIONS,
                population_size=CAMPAIGN_POPULATION,
                seed=sub_seed,
                checkpoint_dir=checkpoint_dir,
                policies=repro.POLICY_KINDS,
                measured_objectives=measured,
                serving_cache=serving_cache,
            )
            return state, result, repro.traffic_ranking_summary(result)

        def check(output) -> Outcome:
            (checkpoint_dir, cache, serving_cache), result, summary = output
            shutil.rmtree(checkpoint_dir)
            search_bad = sum(
                not all_finite((e.latency_ms, e.energy_mj, e.accuracy))
                for cell in result.campaign.cells
                for e in cell.front
            ) > 0
            renders = all(
                name in summary for name in CAMPAIGN_PLATFORMS + tuple(result.family_names)
            )
            degenerate = sum(cell.served_p99_per_joule <= 0.0 for cell in result.cells)
            produced = len(result.campaign.cells) + len(result.cells)
            best: Dict[str, float] = {}
            for cell in result.cells:
                key = f"served_p99_per_joule[{cell.family_name}]"
                best[key] = max(best.get(key, 0.0), cell.served_p99_per_joule)
            broken = search_bad or not renders or produced != cells
            return Outcome(
                digest=digest([summary.encode("utf-8")]),
                attempted=cells,
                failed=cells if broken else degenerate,
                work=produced,
                counters={
                    "engine.EvaluationCache.hits": cache.stats.hits,
                    "engine.EvaluationCache.lookups": cache.stats.hits + cache.stats.misses,
                },
                modelled=best,
            )

        return Call(f"campaign@{sub_seed}", cells, prepare, execute, check)

    return [make(seed * CAMPAIGN_SUBSEEDS + index) for index in range(CAMPAIGN_SUBSEEDS)]


WORKLOADS: Dict[str, Callable[[int], List[Call]]] = {
    "search": setup_search,
    "serve-static": setup_serve_static,
    "serve-adaptive": setup_serve_adaptive,
    "campaign": setup_campaign,
}
