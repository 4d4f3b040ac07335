"""Integration tests for the discrete-event traffic simulator.

Covers the acceptance criteria of the serving subsystem: reproducibility
(byte-identical JSONL traces under a fixed seed), queueing-theory sanity
(Little's law measured independently of per-request latencies), zero-load
consistency with :func:`repro.dynamics.inference.simulate_dynamic_inference`,
adaptive-switcher behaviour under bursts, the search-to-serving bridge, and
the heap-free static replay against the event-heap loop it stands in for.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.inference import simulate_dynamic_inference
from repro.errors import ConfigurationError
from repro.search.objectives import measured_serving_objectives
from repro.serving import (
    AdaptiveSwitchPolicy,
    ConstantRate,
    Deployment,
    FleetInstance,
    MultiTenantStream,
    OnOffBursts,
    PoissonArrivals,
    Request,
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
from repro.soc.platform import jetson_agx_xavier


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
        reference = simulate_dynamic_inference(
            evaluated.dynamic_network, evaluated.profile
        )
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
            platform,
            PoissonArrivals(40.0),
            duration_ms=20_000.0,
            metric="p99_latency_ms",
            seed=0,
        )
        assert rankings[0].deployment.name == "spacious"
        assert rankings[0].score("p99_latency_ms") <= rankings[1].score("p99_latency_ms")
        # Ranking by energy flips the order at this load.
        by_energy = rank_under_traffic(
            [cramped, spacious],
            platform,
            PoissonArrivals(10.0),
            duration_ms=20_000.0,
            metric="energy_per_request_mj",
            seed=0,
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
        fresh = rank_under_traffic(front, platform, PoissonArrivals(30.0), **scenario)
        cache = ServingResultCache()
        cached = rank_under_traffic(
            front, platform, PoissonArrivals(30.0), cache=cache, **scenario
        )
        assert [r.candidate for r in cached] == [r.candidate for r in fresh]
        assert [r.deployment.name for r in cached] == [
            r.deployment.name for r in fresh
        ]
        assert [r.metrics for r in cached] == [r.metrics for r in fresh]
        misses = cache.stats.misses
        again = rank_under_traffic(
            front, platform, PoissonArrivals(30.0), cache=cache, **scenario
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
            front, platform, replay.workload, cache=cache, **scenario
        )
        assert cache.stats.misses == misses  # every candidate was a hit
        for ranking in ranked:
            assert ranking.deployment.name.startswith("pareto-")
            assert ranking.metrics.policy == f"static({ranking.deployment.name})"
        fresh = rank_under_traffic(front, platform, replay.workload, **scenario)
        assert [r.metrics for r in ranked] == [r.metrics for r in fresh]

    def test_cached_ranking_needs_a_replay_budget(self, platform, cascade, monkeypatch):
        """Both cached entry points name ``duration_ms`` before simulating.

        The check lives once, in the cache key.  Regression:
        ``measured_serving_metrics(..., duration_ms=None, cache=...)`` used to
        fail there with a raw ``TypeError``.  Without a cache the stream
        simply replays until it drains.
        """
        import repro.serving.bridge as bridge_module

        requests = ConstantRate(10.0).generate(500.0, seed=0)
        drained = measured_serving_metrics(cascade, platform, requests, None)
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
            rank_under_traffic([cascade], platform, requests, duration_ms=None, cache=cache)
        with pytest.raises(ConfigurationError, match=message):
            measured_serving_metrics(cascade, platform, requests, None, cache=cache)
        assert len(cache) == 0 and cache.stats.misses == 0

    def test_rank_rejects_unknown_metric(self, platform, cascade):
        with pytest.raises(ConfigurationError):
            rank_under_traffic(
                [cascade], platform, PoissonArrivals(10.0), duration_ms=1000.0, metric="nope"
            )

    def test_rank_rejects_misspelled_metric(self, platform, cascade):
        """Regression: a typo used to silently rank descending (bigger wins)."""
        with pytest.raises(ConfigurationError, match="p99_latencyms"):
            rank_under_traffic(
                [cascade],
                platform,
                PoissonArrivals(10.0),
                duration_ms=1000.0,
                metric="p99_latencyms",
            )

    def test_rank_rejects_directionless_fields(self, platform, cascade):
        """Fields without a declared direction (policy, utilisation) cannot rank."""
        for metric in ("policy", "utilisation", "num_requests"):
            with pytest.raises(ConfigurationError):
                rank_under_traffic(
                    [cascade],
                    platform,
                    PoissonArrivals(10.0),
                    duration_ms=1000.0,
                    metric=metric,
                )

    def test_score_rejects_misspelled_metric(self, platform, cascade):
        rankings = rank_under_traffic(
            [cascade], platform, PoissonArrivals(10.0), duration_ms=1000.0, seed=0
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


class _EventLoopStatic(StaticPolicy):
    """A static policy that is not ``StaticPolicy`` itself, so the simulator
    replays it through the event heap: the reference for the static replay."""


def _assert_static_matches_heap(platform, deployment, requests, **scenario):
    """The static replay equals the event heap, float for float."""
    duration_ms = scenario.pop("duration_ms", None)
    fast = TrafficSimulator(platform, StaticPolicy(deployment), **scenario).run(
        requests, duration_ms=duration_ms
    )
    heap = TrafficSimulator(platform, _EventLoopStatic(deployment), **scenario).run(
        requests, duration_ms=duration_ms
    )
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
def _static_scenarios(draw):
    """A deployment (stages may share a unit) and a stream on a time grid."""
    units = jetson_agx_xavier().unit_names
    stages = draw(st.integers(min_value=1, max_value=4))
    step_ms = draw(st.sampled_from([0.5, 1.0, 2.5]))
    deployment = Deployment(
        name="drawn",
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
    count = draw(st.integers(min_value=1, max_value=60))
    requests = [
        Request(
            arrival_ms=step_ms * draw(st.integers(min_value=0, max_value=3 * count))
            + draw(st.sampled_from([0.0, 0.1, 1e-3])),
            tenant=draw(st.sampled_from(["a", "b"])),
            deadline_ms=draw(st.sampled_from([None, 4.0, 30.0])),
        )
        for _ in range(count)
    ]
    scenario = dict(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        deadline_ms=draw(st.sampled_from([None, 12.0])),
        duration_ms=draw(st.sampled_from([None, 1.0, 1e4])),
    )
    return deployment, requests, scenario


class TestStaticReplayMatchesEventHeap:
    @pytest.mark.parametrize("name", ["single_stage", "cascade", "shared_unit"])
    def test_poisson_streams(self, platform, request, name):
        deployment = request.getfixturevalue(name)
        for seed in (0, 7):
            requests = PoissonArrivals(70.0).generate(4000.0, seed=seed)
            _assert_static_matches_heap(platform, deployment, requests, seed=seed)

    @pytest.mark.parametrize("name", ["cascade", "shared_unit"])
    def test_arrivals_tie_with_completions(self, platform, request, name):
        deployment = request.getfixturevalue(name)
        requests = _grid_stream(300, 5.0, seed=3)
        result = _assert_static_matches_heap(platform, deployment, requests, seed=1)
        arrivals = {record.arrival_ms for record in result.records}
        assert arrivals & {record.completion_ms for record in result.records}

    def test_deadlines_and_tenants(self, platform, cascade):
        requests = MultiTenantStream(
            (
                PoissonArrivals(40.0, tenant="interactive", deadline_ms=35.0),
                PoissonArrivals(25.0, tenant="batch"),
            )
        ).generate(3000.0, seed=4)
        result = _assert_static_matches_heap(
            platform, cascade, requests, seed=2, deadline_ms=60.0
        )
        assert {record.deadline_ms for record in result.records} == {35.0, 60.0}
        assert any(record.deadline_missed for record in result.records)

    def test_single_request(self, platform, shared_unit):
        _assert_static_matches_heap(
            platform, shared_unit, [Request(arrival_ms=3.0)], seed=5, deadline_ms=1.0
        )

    @pytest.mark.parametrize("duration_ms", [None, 50.0, 10_000.0])
    def test_observation_window(self, platform, cascade, duration_ms):
        requests = _grid_stream(120, 2.0, seed=8)
        result = _assert_static_matches_heap(
            platform, cascade, requests, seed=0, duration_ms=duration_ms
        )
        makespan = max(record.completion_ms for record in result.records)
        assert result.duration_ms == max(duration_ms or 0.0, makespan)

    @settings(max_examples=150, deadline=None)
    @given(_static_scenarios())
    def test_generated_streams(self, platform, drawn):
        deployment, requests, scenario = drawn
        _assert_static_matches_heap(platform, deployment, requests, **scenario)


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
