"""Integration tests for the discrete-event traffic simulator.

Covers the acceptance criteria of the serving subsystem: reproducibility
(byte-identical JSONL traces under a fixed seed), queueing-theory sanity
(Little's law measured independently of per-request latencies), zero-load
consistency with :func:`repro.dynamics.inference.simulate_dynamic_inference`,
adaptive-switcher behaviour under bursts, the search-to-serving bridge, and
the simulator's one Lindley replay, under static, switcher and DVFS-governor
policies alike, against the event heap of arrivals and task completions kept
here as the reference.
"""

from __future__ import annotations

import heapq
import pickle
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.inference import simulate_dynamic_inference
from repro.errors import ConfigurationError
from repro.nn.multiexit import build_dynamic_network
from repro.search.objectives import measured_serving_objectives
from repro.serving import (
    POLICY_KINDS,
    AdaptiveSwitchPolicy,
    ConstantRate,
    Deployment,
    DvfsGovernorPolicy,
    FleetInstance,
    MultiTenantStream,
    OnOffBursts,
    PoissonArrivals,
    ReplayScenario,
    Request,
    ServingPolicy,
    ServingResult,
    ServingResultCache,
    StaticPolicy,
    SteadyPoissonFamily,
    TrafficSimulator,
    build_policy,
    compute_metrics,
    measured_serving_metrics,
    rank_under_traffic,
    read_trace_jsonl,
    simulate_deployment,
    simulate_fleet,
)
from repro.serving.simulator import RequestColumns
from repro.soc import mobile_big_little
from repro.soc.platform import jetson_agx_xavier
from repro.utils import as_rng


@pytest.fixture()
def single_stage():
    """A one-stage deployment: the classic single-queue scenario."""
    return Deployment(
        name="mm1",
        unit_names=("gpu",),
        service_ms=(10.0,),
        energy_mj=(25.0,),
        stage_accuracies=(0.9,),
        dvfs_scales=(1.0,),
    )


@pytest.fixture()
def cascade():
    return Deployment(
        name="cascade",
        unit_names=("gpu", "dla0", "dla1"),
        service_ms=(5.0, 20.0, 30.0),
        energy_mj=(40.0, 10.0, 12.0),
        stage_accuracies=(0.5, 0.7, 0.9),
        dvfs_scales=(1.0, 1.0, 1.0),
    )


@pytest.fixture()
def shared_unit():
    """Three stages, the first and last queueing on the same GPU."""
    return Deployment(
        name="shared",
        unit_names=("gpu", "dla0", "gpu"),
        service_ms=(5.0, 10.0, 5.0),
        energy_mj=(20.0, 8.0, 9.0),
        stage_accuracies=(0.4, 0.75, 0.95),
        dvfs_scales=(1.0, 1.0, 1.0),
    )


class TestDeterminism:
    def test_identical_seed_byte_identical_trace(self, platform, cascade, tmp_path):
        workload = PoissonArrivals(25.0)
        requests = workload.generate(10_000.0, seed=3)
        paths = []
        for run in range(2):
            simulator = TrafficSimulator(platform, StaticPolicy(cascade), seed=11)
            result = simulator.run(requests)
            path = tmp_path / f"trace-{run}.jsonl"
            result.write_trace(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(read_trace_jsonl(paths[0])) == len(requests)

    def test_different_seed_different_trace(self, platform, cascade):
        requests = PoissonArrivals(25.0).generate(10_000.0, seed=3)
        first = TrafficSimulator(platform, StaticPolicy(cascade), seed=1).run(requests)
        second = TrafficSimulator(platform, StaticPolicy(cascade), seed=2).run(requests)
        exits_first = [record.exit_stage for record in first.records]
        exits_second = [record.exit_stage for record in second.records]
        assert exits_first != exits_second


class TestQueueingSanity:
    def test_littles_law(self, platform, single_stage):
        """L = lambda * W, with L measured from the in-flight time-average."""
        requests = PoissonArrivals(70.0).generate(60_000.0, seed=5)  # rho = 0.7
        result = TrafficSimulator(platform, StaticPolicy(single_stage), seed=0).run(requests)
        metrics = compute_metrics(result)
        arrival_rate_per_ms = metrics.num_requests / metrics.duration_ms
        little_l = arrival_rate_per_ms * metrics.mean_latency_ms
        assert metrics.mean_in_flight == pytest.approx(little_l, rel=0.02)

    def test_md1_waiting_time(self, platform, single_stage):
        """Poisson arrivals + deterministic service: M/D/1 mean wait."""
        rate_rps = 60.0
        requests = PoissonArrivals(rate_rps).generate(120_000.0, seed=7)
        result = TrafficSimulator(platform, StaticPolicy(single_stage), seed=0).run(requests)
        metrics = compute_metrics(result)
        service_ms = single_stage.service_ms[0]
        rho = (len(requests) / 120_000.0) * service_ms  # offered load from the trace
        expected_wait = rho * service_ms / (2.0 * (1.0 - rho))
        assert metrics.mean_queueing_ms == pytest.approx(expected_wait, rel=0.15)

    def test_utilisation_matches_offered_load(self, platform, single_stage):
        requests = PoissonArrivals(50.0).generate(60_000.0, seed=1)
        result = TrafficSimulator(platform, StaticPolicy(single_stage), seed=0).run(requests)
        metrics = compute_metrics(result)
        observed_rho = (len(requests) / result.duration_ms) * single_stage.service_ms[0]
        assert metrics.utilisation["gpu"] == pytest.approx(observed_rho, rel=0.02)
        assert metrics.utilisation["dla0"] == 0.0

    def test_saturation_degrades_tail_not_throughput_cap(self, platform, single_stage):
        light = PoissonArrivals(40.0).generate(30_000.0, seed=2)
        heavy = PoissonArrivals(140.0).generate(30_000.0, seed=2)
        policy = StaticPolicy(single_stage)
        light_m = compute_metrics(TrafficSimulator(platform, policy, seed=0).run(light))
        heavy_m = compute_metrics(TrafficSimulator(platform, policy, seed=0).run(heavy))
        assert heavy_m.p99_latency_ms > 10 * light_m.p99_latency_ms
        # The bottleneck caps completed throughput at ~1/service.
        assert heavy_m.throughput_rps <= single_stage.capacity_rps() * 1.01


class TestZeroLoadConsistency:
    def test_matches_simulate_dynamic_inference(
        self, tiny_config_evaluator, tiny_mapping_config, platform
    ):
        """At zero contention the trace means reproduce the Table II analysis."""
        evaluated = tiny_config_evaluator.evaluate(tiny_mapping_config)
        dynamic_network = build_dynamic_network(
            tiny_config_evaluator.network,
            partition=tiny_mapping_config.partition,
            indicator=tiny_mapping_config.indicator,
            ranking=tiny_config_evaluator.ranking,
            reorder=tiny_config_evaluator.reorder_channels,
        )
        reference = simulate_dynamic_inference(dynamic_network, evaluated.profile)
        deployment = Deployment.from_evaluated(evaluated)
        # One request every 5x the worst-case latency: strictly no queueing.
        gap_ms = 5.0 * reference.worst_case_latency_ms
        count = 2000
        requests = ConstantRate(1000.0 / gap_ms).generate(count * gap_ms, seed=0)
        assert len(requests) == count
        result = TrafficSimulator(platform, StaticPolicy(deployment), seed=0).run(requests)
        metrics = compute_metrics(result)
        assert metrics.mean_queueing_ms == pytest.approx(0.0, abs=1e-9)
        assert metrics.mean_latency_ms == pytest.approx(
            reference.expected_latency_ms, rel=0.01
        )
        assert metrics.energy_per_request_mj == pytest.approx(
            reference.expected_energy_mj, rel=0.01
        )
        assert metrics.accuracy == pytest.approx(reference.accuracy, abs=0.01)

    def test_zero_load_latency_is_cumulative_max(self, platform, cascade):
        requests = ConstantRate(2.0).generate(5000.0, seed=0)
        result = TrafficSimulator(platform, StaticPolicy(cascade), seed=0).run(requests)
        for record in result.records:
            assert record.latency_ms == pytest.approx(
                cascade.cumulative_latency_ms(record.exit_stage)
            )
            assert record.energy_mj == pytest.approx(
                cascade.cumulative_energy_mj(record.exit_stage)
            )


class TestDeadlines:
    def test_deadline_miss_accounting(self, platform, single_stage):
        requests = PoissonArrivals(95.0).generate(30_000.0, seed=4)
        relaxed = TrafficSimulator(
            platform, StaticPolicy(single_stage), seed=0, deadline_ms=10_000.0
        ).run(requests)
        strict = TrafficSimulator(
            platform, StaticPolicy(single_stage), seed=0, deadline_ms=15.0
        ).run(requests)
        assert compute_metrics(relaxed).deadline_miss_rate == 0.0
        assert compute_metrics(strict).deadline_miss_rate > 0.2

    def test_per_request_deadline_overrides_default(self, platform, single_stage):
        requests = MultiTenantStream(
            [
                PoissonArrivals(40.0, tenant="strict", deadline_ms=10.5),
                PoissonArrivals(40.0, tenant="lax", deadline_ms=60_000.0),
            ]
        ).generate(20_000.0, seed=6)
        result = TrafficSimulator(platform, StaticPolicy(single_stage), seed=0).run(requests)
        strict = compute_metrics(result, tenant="strict")
        lax = compute_metrics(result, tenant="lax")
        assert strict.deadline_miss_rate > lax.deadline_miss_rate
        assert lax.deadline_miss_rate == 0.0


class TestAdaptiveServing:
    def test_switcher_improves_tail_over_frugal_static(self, platform):
        frugal = Deployment(
            name="frugal",
            unit_names=("dla0",),
            service_ms=(40.0,),
            energy_mj=(15.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        fast = Deployment(
            name="fast",
            unit_names=("gpu",),
            service_ms=(6.0,),
            energy_mj=(90.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        workload = OnOffBursts(burst_rps=60.0, idle_rps=4.0, burst_ms=2000.0, idle_ms=3000.0)
        requests = workload.generate(30_000.0, seed=2)
        adaptive = AdaptiveSwitchPolicy(frugal, fast, high_watermark=6, low_watermark=1)
        static_frugal = compute_metrics(
            TrafficSimulator(platform, StaticPolicy(frugal), seed=0).run(requests)
        )
        static_fast = compute_metrics(
            TrafficSimulator(platform, StaticPolicy(fast), seed=0).run(requests)
        )
        adaptive_m = compute_metrics(
            TrafficSimulator(platform, adaptive, seed=0).run(requests)
        )
        assert adaptive.switches >= 2
        # Far better tail than always-frugal; far cheaper than always-fast.
        assert adaptive_m.p99_latency_ms < 0.25 * static_frugal.p99_latency_ms
        assert adaptive_m.energy_per_request_mj < 0.75 * static_fast.energy_per_request_mj

    def test_simulation_seed_insensitive_to_policy_state(self, platform, cascade):
        """The same seed drives the same difficulty stream for any policy."""
        requests = PoissonArrivals(10.0).generate(10_000.0, seed=0)
        static = TrafficSimulator(platform, StaticPolicy(cascade), seed=9).run(requests)
        adaptive = TrafficSimulator(
            platform,
            AdaptiveSwitchPolicy(cascade, cascade, high_watermark=3, low_watermark=1),
            seed=9,
        ).run(requests)
        assert [r.exit_stage for r in static.records] == [
            r.exit_stage for r in adaptive.records
        ]


class TestBridge:
    def test_rank_under_traffic_prefers_higher_capacity(self, platform):
        spacious = Deployment(
            name="spacious",
            unit_names=("gpu",),
            service_ms=(8.0,),
            energy_mj=(50.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        cramped = Deployment(
            name="cramped",
            unit_names=("dla0",),
            service_ms=(35.0,),
            energy_mj=(12.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        rankings = rank_under_traffic(
            [cramped, spacious],
            ReplayScenario(platform, PoissonArrivals(40.0), duration_ms=20_000.0, seed=0),
            metric="p99_latency_ms",
        )
        assert rankings[0].deployment.name == "spacious"
        assert rankings[0].score("p99_latency_ms") <= rankings[1].score("p99_latency_ms")
        # Ranking by energy flips the order at this load.
        by_energy = rank_under_traffic(
            [cramped, spacious],
            ReplayScenario(platform, PoissonArrivals(10.0), duration_ms=20_000.0, seed=0),
            metric="energy_per_request_mj",
        )
        assert by_energy[0].deployment.name == "cramped"

    def test_cached_ranking_equals_fresh_and_replays_once(
        self, tiny_config_evaluator, tiny_space, platform
    ):
        front = [
            tiny_config_evaluator.evaluate(tiny_space.sample(seed=seed))
            for seed in range(4)
        ]
        scenario = dict(duration_ms=2000.0, seed=3)
        fresh = rank_under_traffic(
            front, ReplayScenario(platform, PoissonArrivals(30.0), **scenario)
        )
        cache = ServingResultCache()
        cached = rank_under_traffic(
            front, ReplayScenario(platform, PoissonArrivals(30.0), **scenario), cache=cache
        )
        assert [r.candidate for r in cached] == [r.candidate for r in fresh]
        assert [r.deployment.name for r in cached] == [
            r.deployment.name for r in fresh
        ]
        assert [r.metrics for r in cached] == [r.metrics for r in fresh]
        misses = cache.stats.misses
        again = rank_under_traffic(
            front, ReplayScenario(platform, PoissonArrivals(30.0), **scenario), cache=cache
        )
        assert cache.stats.misses == misses
        assert [r.metrics for r in again] == [r.metrics for r in fresh]

    def test_cache_filled_by_measured_search_keeps_ranking_labels(
        self, tiny_config_evaluator, tiny_space, platform
    ):
        front = [
            tiny_config_evaluator.evaluate(tiny_space.sample(seed=seed))
            for seed in range(3)
        ]
        cache = ServingResultCache()
        objectives = measured_serving_objectives(
            SteadyPoissonFamily(rate_rps=30.0),
            platform,
            duration_ms=800.0,
            members=2,
            cache=cache,
        )
        for item in front:
            objectives.values(item)  # stores under the search-time names
        assert not any(
            metrics.policy.startswith("static(pareto-") for _, metrics in cache.items()
        )
        replay = objectives.specs[-1].extractor
        scenario = dict(duration_ms=replay.duration_ms, seed=replay.traffic_seed)
        misses = cache.stats.misses
        ranked = rank_under_traffic(
            front, ReplayScenario(platform, replay.workload, **scenario), cache=cache
        )
        assert cache.stats.misses == misses  # every candidate was a hit
        for ranking in ranked:
            assert ranking.deployment.name.startswith("pareto-")
            assert ranking.metrics.policy == f"static({ranking.deployment.name})"
        fresh = rank_under_traffic(front, ReplayScenario(platform, replay.workload, **scenario))
        assert [r.metrics for r in ranked] == [r.metrics for r in fresh]

    def test_cached_ranking_needs_a_replay_budget(self, platform, cascade, monkeypatch):
        """Both cached entry points name ``duration_ms`` before simulating.

        The check lives once, in the cache key.  Regression:
        ``measured_serving_metrics`` with ``duration_ms=None`` and a cache used to
        fail there with a raw ``TypeError``.  Without a cache the stream
        simply replays until it drains.
        """
        import repro.serving.bridge as bridge_module

        requests = ConstantRate(10.0).generate(500.0, seed=0)
        drained = measured_serving_metrics(cascade, ReplayScenario(platform, requests))
        assert drained.num_requests == len(requests)

        def never(*args, **kwargs):
            raise AssertionError("simulated before validating the replay budget")

        monkeypatch.setattr(bridge_module, "simulate_deployment", never)
        cache = ServingResultCache()
        message = (
            "^a cached replay needs duration_ms: the replay budget is part of "
            "the serving-cache key$"
        )
        with pytest.raises(ConfigurationError, match=message):
            rank_under_traffic(
                [cascade], ReplayScenario(platform, requests, duration_ms=None), cache=cache
            )
        with pytest.raises(ConfigurationError, match=message):
            measured_serving_metrics(cascade, ReplayScenario(platform, requests), cache=cache)
        assert len(cache) == 0 and cache.stats.misses == 0

    def test_rank_rejects_unknown_metric(self, platform, cascade):
        with pytest.raises(ConfigurationError):
            rank_under_traffic(
                [cascade],
                ReplayScenario(platform, PoissonArrivals(10.0), duration_ms=1000.0),
                metric="nope",
            )

    def test_rank_rejects_misspelled_metric(self, platform, cascade):
        """Regression: a typo used to silently rank descending (bigger wins)."""
        with pytest.raises(ConfigurationError, match="p99_latencyms"):
            rank_under_traffic(
                [cascade],
                ReplayScenario(platform, PoissonArrivals(10.0), duration_ms=1000.0),
                metric="p99_latencyms",
            )

    def test_rank_rejects_directionless_fields(self, platform, cascade):
        """Fields without a declared direction (policy, utilisation) cannot rank."""
        for metric in ("policy", "utilisation", "num_requests"):
            with pytest.raises(ConfigurationError):
                rank_under_traffic(
                    [cascade],
                    ReplayScenario(platform, PoissonArrivals(10.0), duration_ms=1000.0),
                    metric=metric,
                )

    def test_score_rejects_misspelled_metric(self, platform, cascade):
        rankings = rank_under_traffic(
            [cascade], ReplayScenario(platform, PoissonArrivals(10.0), duration_ms=1000.0, seed=0)
        )
        with pytest.raises(ConfigurationError):
            rankings[0].score("p99_latencyms")
        with pytest.raises(ConfigurationError):
            rankings[0].score("summary_row")

    def test_every_declared_direction_is_rankable(self):
        from repro.serving.metrics import metric_direction

        assert metric_direction("p99_latency_ms") == "asc"
        assert metric_direction("throughput_rps") == "desc"
        assert metric_direction("accuracy") == "desc"
        assert metric_direction("energy_per_request_mj") == "asc"

    def test_simulate_deployment_from_evaluated(
        self, tiny_config_evaluator, tiny_mapping_config, platform
    ):
        evaluated = tiny_config_evaluator.evaluate(tiny_mapping_config)
        result = simulate_deployment(
            evaluated,
            platform,
            PoissonArrivals(20.0),
            duration_ms=5000.0,
            seed=0,
        )
        assert result.num_requests > 50
        assert compute_metrics(result).throughput_rps > 0

    def test_framework_facade_roundtrip(self, tiny_network, platform):
        from repro.core.framework import MapAndConquer
        from repro.core.report import serving_summary, serving_table

        framework = MapAndConquer(tiny_network, platform, seed=0)
        result = framework.search(generations=3, population_size=8, seed=0)
        rankings = framework.rank_under_traffic(
            result.pareto[:3], PoissonArrivals(15.0), duration_ms=5000.0, seed=0
        )
        assert len(rankings) == min(3, len(result.pareto))
        scores = [ranking.score("p99_latency_ms") for ranking in rankings]
        assert scores == sorted(scores)
        table = serving_table([ranking.metrics for ranking in rankings])
        assert "p99_ms" in table
        summary = serving_summary(rankings[0].metrics)
        assert "latency p50/p95/p99" in summary


# -- the event-heap reference ---------------------------------------------------------
# An event heap of arrivals and task completions, popped in time order with
# arrivals first at equal times, that asks the policy at every arrival.  It is
# the simulator's earlier general-purpose loop, kept verbatim, and it builds
# its store with the simulator's earlier tuple code, also kept verbatim, from
# the loop's Python values.


@dataclass
class _Task:
    """One stage of one in-flight request, queued on a compute unit."""

    state: "_RequestState"
    service_ms: float


@dataclass
class _RequestState:
    """Mutable bookkeeping of one admitted request."""

    index: int
    deployment_name: str
    exit_stage: int
    correct: bool
    energy_mj: float
    critical_service_ms: float
    remaining_tasks: int
    completion_ms: float = 0.0


def _request_columns(
    ordered: Sequence[Request],
    default_deadline_ms: Optional[float],
    *,
    arrival_ms: Sequence[float],
    completion_ms: Sequence[float],
    service_ms: Sequence[float],
    exit_stage: Sequence[int],
    deployment: Sequence[str],
    correct: Sequence[bool],
    energy_mj: Sequence[float],
) -> RequestColumns:
    """The boxed request store of one replay, rows in request-index order."""
    latency_ms = [done - arrival for done, arrival in zip(completion_ms, arrival_ms)]
    deadline_ms = [
        default_deadline_ms if request.deadline_ms is None else request.deadline_ms
        for request in ordered
    ]
    return RequestColumns(
        index=tuple(range(len(ordered))),
        tenant=tuple([request.tenant for request in ordered]),
        arrival_ms=tuple(arrival_ms),
        completion_ms=tuple(completion_ms),
        latency_ms=tuple(latency_ms),
        service_ms=tuple(service_ms),
        queueing_ms=tuple(
            [latency - service for latency, service in zip(latency_ms, service_ms)]
        ),
        exit_stage=tuple(exit_stage),
        num_stages=tuple([stage + 1 for stage in exit_stage]),
        deployment=tuple(deployment),
        correct=tuple(correct),
        energy_mj=tuple(energy_mj),
        deadline_ms=tuple(deadline_ms),
        deadline_missed=tuple(
            [
                deadline is not None and latency > deadline
                for latency, deadline in zip(latency_ms, deadline_ms)
            ]
        ),
    )


def _replay_events(self, ordered: Sequence[Request], difficulties: Sequence[float]):
    """Any policy, replayed through an event heap (the reference loop).

    Returns ``(columns, busy_ms, in-flight area, peak in flight,
    makespan)``; the makespan is the time of the last event.
    """
    unit_names = self.platform.unit_names
    # Policies hand back the same few Deployment objects for the whole
    # run; validate each distinct one once instead of per arrival.  Keyed
    # by id with the object kept referenced, so a freed id can't alias.
    validated_deployments: Dict[int, object] = {}
    queues: Dict[str, deque] = {name: deque() for name in unit_names}
    busy: Dict[str, bool] = {name: False for name in unit_names}
    busy_ms: Dict[str, float] = {name: 0.0 for name in unit_names}

    # Event heap entries: (time_ms, sequence, kind, payload).  Arrivals are
    # pre-seeded with the lowest sequence numbers so simultaneous
    # arrival/completion ties resolve deterministically (arrival first).
    events: list = []
    for seq, request in enumerate(ordered):
        heapq.heappush(events, (request.arrival_ms, seq, "arrival", seq))
    next_seq = len(ordered)

    in_flight = 0
    peak_in_flight = 0
    in_flight_area = 0.0
    last_event_ms = 0.0
    finished: list = []

    def start_task(unit: str, task: _Task, now: float) -> None:
        nonlocal next_seq
        busy[unit] = True
        busy_ms[unit] += task.service_ms
        heapq.heappush(events, (now + task.service_ms, next_seq, "done", (unit, task)))
        next_seq += 1

    while events:
        now, _, kind, payload = heapq.heappop(events)
        in_flight_area += in_flight * (now - last_event_ms)
        last_event_ms = now

        if kind == "arrival":
            request_index = payload
            deployment = self.policy.select(in_flight, now)
            if id(deployment) not in validated_deployments:
                self._check_deployment_units(deployment)
                validated_deployments[id(deployment)] = deployment
            difficulty = difficulties[request_index]
            exit_stage = deployment.exit_stage(difficulty)
            state = _RequestState(
                index=request_index,
                deployment_name=deployment.name,
                exit_stage=exit_stage,
                correct=bool(difficulty <= deployment.stage_accuracies[exit_stage]),
                energy_mj=deployment.cumulative_energy_mj(exit_stage),
                critical_service_ms=deployment.cumulative_latency_ms(exit_stage),
                remaining_tasks=exit_stage + 1,
            )
            in_flight += 1
            peak_in_flight = max(peak_in_flight, in_flight)
            for stage in range(exit_stage + 1):
                unit = deployment.unit_names[stage]
                task = _Task(state=state, service_ms=deployment.service_ms[stage])
                if busy[unit]:
                    queues[unit].append(task)
                else:
                    start_task(unit, task, now)
        else:  # "done"
            unit, task = payload
            state = task.state
            state.remaining_tasks -= 1
            state.completion_ms = max(state.completion_ms, now)
            if state.remaining_tasks == 0:
                in_flight -= 1
                finished.append(state)
            if queues[unit]:
                start_task(unit, queues[unit].popleft(), now)
            else:
                busy[unit] = False

    finished.sort(key=lambda state: state.index)
    columns = _request_columns(
        ordered,
        self.deadline_ms,
        arrival_ms=[request.arrival_ms for request in ordered],
        completion_ms=[state.completion_ms for state in finished],
        service_ms=[state.critical_service_ms for state in finished],
        exit_stage=[state.exit_stage for state in finished],
        deployment=[state.deployment_name for state in finished],
        correct=[state.correct for state in finished],
        energy_mj=[state.energy_mj for state in finished],
    )
    return columns, dict(busy_ms), in_flight_area, peak_in_flight, last_event_ms


def _reference_run(simulator, requests, duration_ms=None) -> ServingResult:
    """``TrafficSimulator.run`` with the event heap in place of its replay."""
    ordered = sorted(requests, key=lambda r: r.arrival_ms)
    grid = (np.arange(len(ordered)) + 0.5) / len(ordered)
    difficulties = as_rng(simulator._seed).permutation(grid).tolist()
    simulator.policy.reset()
    columns, busy_ms, in_flight_area, peak_in_flight, makespan = _replay_events(
        simulator, ordered, difficulties
    )
    horizon = makespan if duration_ms is None else max(float(duration_ms), makespan)
    return ServingResult(
        policy=simulator.policy.name,
        columns=columns,
        duration_ms=horizon,
        busy_ms=busy_ms,
        mean_in_flight=in_flight_area / horizon if horizon > 0 else 0.0,
        peak_in_flight=peak_in_flight,
    )


def _assert_matches_heap(platform, policy, requests, **scenario):
    """The simulator's replay equals the event-heap reference, float for float."""
    duration_ms = scenario.pop("duration_ms", None)
    simulator = TrafficSimulator(platform, policy, **scenario)
    fast = simulator.run(requests, duration_ms=duration_ms)
    heap = _reference_run(simulator, requests, duration_ms)
    # Counting the requests reads the columns; records are built on demand.
    assert fast.num_requests == len(requests) and fast._records is None
    assert fast.records == heap.records
    assert repr(fast.records) == repr(heap.records)
    for name in ("busy_ms", "mean_in_flight", "peak_in_flight", "duration_ms"):
        assert repr(getattr(fast, name)) == repr(getattr(heap, name)), name
    assert fast == heap
    for tenant in [None] + sorted({request.tenant for request in requests}):
        fast_metrics = compute_metrics(fast, tenant=tenant)
        assert fast_metrics == compute_metrics(heap, tenant=tenant)
        assert repr(fast_metrics) == repr(compute_metrics(heap, tenant=tenant))
    assert RequestColumns.from_records(fast.records) == fast.columns
    assert pickle.loads(pickle.dumps(fast)) == fast
    return fast


def _grid_stream(count, step_ms, seed, **request_fields):
    """Arrivals on a coarse grid, so they tie with task completions."""
    slots = np.sort(np.random.default_rng(seed).integers(0, count, size=count))
    return [Request(arrival_ms=step_ms * int(slot), **request_fields) for slot in slots]


@st.composite
def _deployments(draw, units, step_ms, name="drawn"):
    """A deployment on ``units`` (stages may share a unit), float service
    times on the ``step_ms`` grid."""
    stages = draw(st.integers(min_value=1, max_value=4))
    return Deployment(
        name=name,
        unit_names=tuple(draw(st.sampled_from(units)) for _ in range(stages)),
        service_ms=tuple(
            step_ms * draw(st.integers(min_value=1, max_value=12)) for _ in range(stages)
        ),
        energy_mj=tuple(
            draw(st.floats(min_value=0.5, max_value=50.0)) for _ in range(stages)
        ),
        stage_accuracies=tuple(
            sorted(draw(st.floats(min_value=0.05, max_value=0.99)) for _ in range(stages))
        ),
        dvfs_scales=(1.0,) * stages,
    )


@st.composite
def _streams(draw, step_ms, spread):
    """Up to 60 requests on the ``step_ms`` grid, some just off it, with two
    tenants and optional deadlines; ``spread`` grid steps per request."""
    count = draw(st.integers(min_value=1, max_value=60))
    return [
        Request(
            arrival_ms=step_ms * draw(st.integers(min_value=0, max_value=spread * count))
            + draw(st.sampled_from([0.0, 0.1, 1e-3])),
            tenant=draw(st.sampled_from(["a", "b"])),
            deadline_ms=draw(st.sampled_from([None, 4.0, 30.0])),
        )
        for _ in range(count)
    ]


#: Simulator seed, default deadline and observation window of a drawn replay.
_SCENARIOS = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "deadline_ms": st.sampled_from([None, 12.0]),
        "duration_ms": st.sampled_from([None, 1.0, 1e4]),
    }
)


@st.composite
def _static_scenarios(draw):
    """A deployment and a stream on a time grid."""
    step_ms = draw(st.sampled_from([0.5, 1.0, 2.5]))
    deployment = draw(_deployments(jetson_agx_xavier().unit_names, step_ms))
    return deployment, draw(_streams(step_ms, spread=3)), draw(_SCENARIOS)


@st.composite
def _policy_scenarios(draw):
    """Any policy kind over two drawn deployments and drawn watermarks, on
    either board, under a stream dense enough to switch deployments."""
    board = draw(st.sampled_from((jetson_agx_xavier(), mobile_big_little())))
    step_ms = draw(st.sampled_from([0.5, 1.0, 2.5]))
    first = draw(_deployments(board.unit_names, step_ms, name="first"))
    low = draw(st.integers(min_value=0, max_value=3))
    high = draw(st.integers(min_value=low + 1, max_value=low + 5))
    kind = draw(st.sampled_from(POLICY_KINDS))
    if kind == "static":
        policy = StaticPolicy(first)
    elif kind == "switcher":
        second = draw(_deployments(board.unit_names, step_ms, name="second"))
        policy = AdaptiveSwitchPolicy(first, second, high_watermark=high, low_watermark=low)
    else:
        levels = draw(
            st.lists(
                st.sampled_from([0.3, 0.5, 0.7, 0.85, 1.0]), min_size=1, max_size=4, unique=True
            )
        )
        policy = DvfsGovernorPolicy(
            first, board, levels=tuple(levels), high_watermark=high, low_watermark=low
        )
    return board, policy, draw(_streams(step_ms, spread=1)), draw(_SCENARIOS)


def _adaptive_policy(kind, platform, calm, surge):
    """A load-driven policy that steps up at three requests in flight."""
    if kind == "switcher":
        return AdaptiveSwitchPolicy(calm, surge, high_watermark=3, low_watermark=1)
    return DvfsGovernorPolicy(calm, platform, high_watermark=3, low_watermark=1)


class _FreshDeploymentPolicy(ServingPolicy):
    """Returns a new ``Deployment`` object on every call, alternating two
    service-time contents.

    It keeps only the last three it returned and drops the oldest just
    before building the next, so the allocator hands that address straight
    back, holding the other content.  A replay that keyed its per-deployment
    plan by the id of an object it had let go would serve it the wrong plan.
    """

    name = "fresh-deployments"

    def __init__(self, deployment):
        self.deployment = deployment
        self.contents = (
            deployment.service_ms,
            tuple(2.5 * service for service in deployment.service_ms),
        )
        self.reset()

    def reset(self):
        self.calls = 0
        self.recent = []

    def select(self, queue_depth, now_ms):
        self.calls += 1
        if len(self.recent) == 3:
            self.recent.pop(0)
        fresh = replace(self.deployment, service_ms=self.contents[self.calls % 2])
        self.recent.append(fresh)
        return fresh


class TestStaticReplayMatchesEventHeap:
    """Every policy's replay equals the event-heap reference."""

    @pytest.mark.parametrize("name", ["single_stage", "cascade", "shared_unit"])
    def test_poisson_streams(self, platform, request, name):
        deployment = request.getfixturevalue(name)
        for seed in (0, 7):
            requests = PoissonArrivals(70.0).generate(4000.0, seed=seed)
            _assert_matches_heap(platform, StaticPolicy(deployment), requests, seed=seed)

    @pytest.mark.parametrize("name", ["cascade", "shared_unit"])
    def test_arrivals_tie_with_completions(self, platform, request, name):
        deployment = request.getfixturevalue(name)
        requests = _grid_stream(300, 5.0, seed=3)
        result = _assert_matches_heap(platform, StaticPolicy(deployment), requests, seed=1)
        arrivals = {record.arrival_ms for record in result.records}
        assert arrivals & {record.completion_ms for record in result.records}

    def test_deadlines_and_tenants(self, platform, cascade):
        requests = MultiTenantStream(
            (
                PoissonArrivals(40.0, tenant="interactive", deadline_ms=35.0),
                PoissonArrivals(25.0, tenant="batch"),
            )
        ).generate(3000.0, seed=4)
        result = _assert_matches_heap(
            platform, StaticPolicy(cascade), requests, seed=2, deadline_ms=60.0
        )
        assert {record.deadline_ms for record in result.records} == {35.0, 60.0}
        assert any(record.deadline_missed for record in result.records)

    def test_single_request(self, platform, shared_unit):
        _assert_matches_heap(
            platform, StaticPolicy(shared_unit), [Request(arrival_ms=3.0)], seed=5, deadline_ms=1.0
        )

    @pytest.mark.parametrize("duration_ms", [None, 50.0, 10_000.0])
    def test_observation_window(self, platform, cascade, duration_ms):
        requests = _grid_stream(120, 2.0, seed=8)
        result = _assert_matches_heap(
            platform, StaticPolicy(cascade), requests, seed=0, duration_ms=duration_ms
        )
        makespan = max(record.completion_ms for record in result.records)
        assert result.duration_ms == max(duration_ms or 0.0, makespan)

    @settings(max_examples=150, deadline=None)
    @given(_static_scenarios())
    def test_generated_streams(self, platform, drawn):
        deployment, requests, scenario = drawn
        _assert_matches_heap(platform, StaticPolicy(deployment), requests, **scenario)

    @pytest.mark.parametrize("kind", ["switcher", "dvfs-governor"])
    def test_adaptive_policies_switch(self, platform, cascade, shared_unit, kind):
        for seed in (0, 7):
            requests = PoissonArrivals(70.0).generate(4000.0, seed=seed)
            policy = _adaptive_policy(kind, platform, cascade, shared_unit)
            result = _assert_matches_heap(platform, policy, requests, seed=seed)
            assert len(set(result.columns.deployment)) > 1

    @pytest.mark.parametrize("kind", ["switcher", "dvfs-governor"])
    def test_adaptive_ties_deadlines_and_tenants(self, platform, cascade, shared_unit, kind):
        requests = [
            replace(request, tenant="ab"[index % 2])
            for index, request in enumerate(_grid_stream(300, 5.0, seed=3, deadline_ms=30.0))
        ]
        policy = _adaptive_policy(kind, platform, cascade, shared_unit)
        result = _assert_matches_heap(
            platform, policy, requests, seed=1, deadline_ms=60.0, duration_ms=1e5
        )
        assert len(set(result.columns.deployment)) > 1
        assert any(result.columns.deadline_missed)
        if kind == "switcher":  # the governor's rescaled service times leave the grid
            assert set(result.columns.arrival_ms) & set(result.columns.completion_ms)

    def test_fresh_deployment_on_every_call(self, platform, cascade):
        for seed in (0, 7):
            requests = PoissonArrivals(40.0).generate(4000.0, seed=seed)
            result = _assert_matches_heap(
                platform, _FreshDeploymentPolicy(cascade), requests, seed=seed
            )
            assert len(set(result.columns.service_ms)) == 2 * cascade.num_stages

    @settings(max_examples=200, deadline=None)
    @given(_policy_scenarios())
    def test_generated_policy_streams(self, drawn):
        board, policy, requests, scenario = drawn
        _assert_matches_heap(board, policy, requests, **scenario)


class _ObservedStatic(StaticPolicy):
    """A ``StaticPolicy`` subclass whose own ``select`` logs every call."""

    def __init__(self, deployment, seen):
        super().__init__(deployment)
        self.seen = seen

    def select(self, queue_depth, now_ms):
        self.seen.append((queue_depth, now_ms))
        return super().select(queue_depth, now_ms)


def _subclass_override(deployment, seen, monkeypatch):
    return _ObservedStatic(deployment, seen)


def _patched_on_class(deployment, seen, monkeypatch):
    select = StaticPolicy.select

    def observed(self, queue_depth, now_ms):
        seen.append((queue_depth, now_ms))
        return select(self, queue_depth, now_ms)

    monkeypatch.setattr(StaticPolicy, "select", observed)
    return StaticPolicy(deployment)


def _set_on_instance(deployment, seen, monkeypatch):
    policy = StaticPolicy(deployment)
    select = policy.select

    def observed(queue_depth, now_ms):
        seen.append((queue_depth, now_ms))
        return select(queue_depth, now_ms)

    policy.select = observed
    return policy


class TestReplayPathSelection:
    """Only ``StaticPolicy``'s own ``select`` skips the in-flight tracking: an
    override or a wrapper, on the class or on one instance, is asked at every
    arrival with the event heap's in-flight count."""

    @pytest.mark.parametrize(
        "observe", [_subclass_override, _patched_on_class, _set_on_instance]
    )
    @pytest.mark.parametrize("stream", ["poisson", "ties"])
    def test_wrapped_select_sees_every_request(
        self, platform, shared_unit, monkeypatch, observe, stream
    ):
        if stream == "poisson":
            requests = PoissonArrivals(70.0).generate(2000.0, seed=7)
        else:
            requests = _grid_stream(300, 5.0, seed=3)
        seen = []
        policy = observe(shared_unit, seen, monkeypatch)
        result = _assert_matches_heap(platform, policy, requests, seed=1, deadline_ms=40.0)
        # The replay's calls, then the event heap's: the same arguments.
        count = len(requests)
        assert len(seen) == 2 * count
        assert seen[:count] == seen[count:]
        assert result.peak_in_flight == max(depth for depth, _ in seen[:count]) + 1


class TestValidation:
    @pytest.mark.parametrize("duration_ms", [float("nan"), float("inf"), 0.0, -5.0])
    @pytest.mark.parametrize(
        "entry", ["static", "switcher", "simulate_deployment", "FleetSimulator.run"]
    )
    def test_meaningless_window_rejected(self, platform, cascade, entry, duration_ms):
        requests = ConstantRate(10.0).generate(1000.0, seed=0)
        with pytest.raises(ConfigurationError, match="duration_ms"):
            if entry == "simulate_deployment":
                simulate_deployment(cascade, platform, requests, duration_ms=duration_ms)
            elif entry == "FleetSimulator.run":
                simulate_fleet(
                    (FleetInstance(name="only", platform=platform, deployment=cascade),),
                    requests,
                    duration_ms=duration_ms,
                )
            else:
                policy = build_policy(entry, cascade, platform)
                TrafficSimulator(platform, policy, seed=0).run(
                    requests, duration_ms=duration_ms
                )

    def test_empty_stream_rejected(self, platform, cascade):
        with pytest.raises(ConfigurationError):
            TrafficSimulator(platform, StaticPolicy(cascade), seed=0).run([])

    def test_seed_is_keyword_only(self, platform, cascade):
        # A stray third positional argument must raise, not become the seed.
        with pytest.raises(TypeError):
            TrafficSimulator(platform, StaticPolicy(cascade), None, 3)

    def test_unknown_unit_rejected(self, platform):
        rogue = Deployment(
            name="rogue",
            unit_names=("tpu",),
            service_ms=(1.0,),
            energy_mj=(1.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        requests = ConstantRate(10.0).generate(1000.0, seed=0)
        with pytest.raises(ConfigurationError):
            TrafficSimulator(platform, StaticPolicy(rogue), seed=0).run(requests)
