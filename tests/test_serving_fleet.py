"""Integration and invariant tests for the fleet serving layer.

Pins the acceptance criteria of :mod:`repro.serving.fleet`:

* **conservation** — every generated request is either served by exactly one
  instance or explicitly dropped; global trace indices partition exactly,
* **fleet-of-1 identity** — a round-robin fleet of one instance replays the
  stream byte-identically to :func:`repro.serving.bridge.simulate_deployment`
  (same records, same trace bytes) and pools to the same request metrics,
* **Little's law at fleet scope** — time-averaged in-flight equals
  throughput x mean latency, measured independently of per-request numbers,
* **router determinism** — a hypothesis property: any registered router
  replayed with the same seed produces identical assignments and identical
  trace bytes,
* the autoscaler boots/stops instances deterministically, honours
  ``min_instances`` and charges idle energy for powered-but-idle units.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serving import (
    AutoscalerPolicy,
    Deployment,
    DiurnalArrivals,
    FleetInstance,
    FleetRouter,
    FleetSimulator,
    PoissonArrivals,
    compute_fleet_metrics,
    compute_metrics,
    fleet_records,
    get_router,
    router_names,
    simulate_deployment,
    simulate_fleet,
)
from repro.soc.platform import jetson_agx_xavier
from repro.soc.presets import get_platform


@pytest.fixture()
def fast():
    return Deployment(
        name="fast",
        unit_names=("gpu",),
        service_ms=(6.0,),
        energy_mj=(80.0,),
        stage_accuracies=(0.9,),
        dvfs_scales=(1.0,),
    )


@pytest.fixture()
def frugal():
    return Deployment(
        name="frugal",
        unit_names=("dla0", "dla1"),
        service_ms=(12.0, 18.0),
        energy_mj=(8.0, 10.0),
        stage_accuracies=(0.6, 0.9),
        dvfs_scales=(1.0, 1.0),
    )


@pytest.fixture()
def duo(platform, fast, frugal):
    """A two-instance heterogeneous fleet on the same board model."""
    return (
        FleetInstance(name="fast-0", platform=platform, deployment=fast),
        FleetInstance(name="frugal-0", platform=platform, deployment=frugal),
    )


def _trio(platform, fast, frugal):
    return (
        FleetInstance(name="fast-0", platform=platform, deployment=fast),
        FleetInstance(name="fast-1", platform=platform, deployment=fast),
        FleetInstance(name="frugal-0", platform=platform, deployment=frugal),
    )


class TestFleetInstance:
    def test_validation(self, platform, fast):
        with pytest.raises(ConfigurationError):
            FleetInstance(name="", platform=platform, deployment=fast)
        with pytest.raises(ConfigurationError):
            FleetInstance(name="x", platform=platform, deployment=fast, boot_ms=0.0)
        alien = Deployment(
            name="alien",
            unit_names=("tpu",),
            service_ms=(1.0,),
            energy_mj=(1.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        with pytest.raises(ConfigurationError):
            FleetInstance(name="x", platform=platform, deployment=alien)

    def test_idle_power_defaults_to_platform_static(self, platform, fast):
        instance = FleetInstance(name="x", platform=platform, deployment=fast)
        static = {
            unit.name: unit.power.static_w for unit in platform.compute_units
        }
        # The whole powered board draws static power, not just the
        # deployment's own unit.
        assert instance.resolved_idle_power_w() == pytest.approx(sum(static.values()))
        override = FleetInstance(
            name="y", platform=platform, deployment=fast, idle_power_w=1.5
        )
        assert override.resolved_idle_power_w() == pytest.approx(1.5)

    def test_fleet_rejects_duplicate_names(self, platform, fast):
        twin = (
            FleetInstance(name="x", platform=platform, deployment=fast),
            FleetInstance(name="x", platform=platform, deployment=fast),
        )
        with pytest.raises(ConfigurationError):
            FleetSimulator(twin)


class TestRouterRegistry:
    def test_names_and_lookup(self):
        names = router_names()
        assert names == tuple(sorted(names))
        for expected in ("round-robin", "least-loaded", "deadline-aware", "energy-aware"):
            assert expected in names
            assert get_router(expected).name == expected

    def test_lookup_canonicalises(self):
        assert get_router("Round_Robin").name == "round-robin"
        assert get_router("  least loaded ").name == "least-loaded"

    def test_unknown_router_raises(self):
        with pytest.raises(ConfigurationError):
            get_router("teleport")

    def test_invalid_choice_is_rejected(self, duo):
        class Broken(FleetRouter):
            name = "broken"

            def route(self, request, now_ms, ready, view) -> int:
                return 99

        simulator = FleetSimulator(duo, router=Broken(), seed=0)
        with pytest.raises(ConfigurationError):
            simulator.run(PoissonArrivals(40.0), duration_ms=300.0)


class TestConservation:
    def test_every_request_served_or_dropped(self, platform, fast, frugal):
        result = simulate_fleet(
            _trio(platform, fast, frugal),
            PoissonArrivals(90.0),
            duration_ms=1200.0,
            router="least-loaded",
            seed=5,
        )
        served = sum(outcome.num_requests for outcome in result.outcomes)
        assert served == result.num_requests
        assert served + result.num_dropped == len(result.requests)
        assert result.num_dropped == 0  # nothing sheds without a backlog cap
        records = fleet_records(result)
        assert [record.index for record in records] == list(range(served))
        # Each instance's share matches the routing assignments exactly.
        for index, outcome in enumerate(result.outcomes):
            assert outcome.num_requests == sum(
                1 for assigned in result.assignments if assigned == index
            )

    def test_shedding_accounts_drops(self, platform, fast):
        solo = (FleetInstance(name="only", platform=platform, deployment=fast),)
        result = simulate_fleet(
            solo,
            PoissonArrivals(400.0),  # ~2.4x the instance's capacity
            duration_ms=1000.0,
            seed=2,
            shed_backlog_ms=50.0,
        )
        assert result.num_dropped > 0
        served = sum(outcome.num_requests for outcome in result.outcomes)
        assert served + result.num_dropped == len(result.requests)
        assert all(result.assignments[index] == -1 for index in result.dropped)
        metrics = compute_fleet_metrics(result)
        assert metrics.drop_rate == pytest.approx(
            result.num_dropped / len(result.requests)
        )


class TestFleetOfOneIdentity:
    def test_matches_simulate_deployment_byte_for_byte(
        self, platform, fast, tmp_path
    ):
        workload = PoissonArrivals(60.0)
        seed, duration = 11, 900.0
        single = simulate_deployment(
            fast, platform, workload, duration_ms=duration, seed=seed
        )
        fleet = simulate_fleet(
            (FleetInstance(name="only", platform=platform, deployment=fast),),
            workload,
            duration_ms=duration,
            router="round-robin",
            seed=seed,
        )
        assert fleet.outcomes[0].result.records == single.records
        assert fleet.outcomes[0].result.busy_ms == single.busy_ms
        # The fleet trace carries the same per-request numbers.
        from repro.serving import write_trace_jsonl

        single_path = tmp_path / "single.jsonl"
        fleet_path = tmp_path / "fleet.jsonl"
        write_trace_jsonl(single.records, single_path)
        fleet.write_trace(fleet_path)
        import json

        single_rows = [
            json.loads(line) for line in single_path.read_text().splitlines()
        ]
        fleet_rows = [
            json.loads(line) for line in fleet_path.read_text().splitlines()
        ]
        assert len(single_rows) == len(fleet_rows)
        for left, right in zip(single_rows, fleet_rows):
            assert right["instance"] == "only"
            for key, value in left.items():
                if key != "index":
                    assert right[key] == value

    def test_fleet_metrics_pool_like_single_board_metrics(self, platform, fast):
        workload = PoissonArrivals(120.0)
        scenario = dict(duration_ms=1500.0, seed=5, deadline_ms=20.0)
        single = compute_metrics(
            simulate_deployment(fast, platform, workload, **scenario)
        )
        fleet = compute_fleet_metrics(
            simulate_fleet(
                (FleetInstance(name="only", platform=platform, deployment=fast),),
                workload,
                router="round-robin",
                **scenario,
            )
        )
        for name in (
            "throughput_rps",
            "mean_latency_ms",
            "p50_latency_ms",
            "p95_latency_ms",
            "p99_latency_ms",
            "max_latency_ms",
            "mean_queueing_ms",
            "deadline_miss_rate",
            "accuracy",
        ):
            assert getattr(fleet, name) == getattr(single, name), name
        assert fleet.dynamic_energy_mj == single.total_energy_mj


class TestFleetMetrics:
    def test_littles_law(self, platform, fast, frugal):
        result = simulate_fleet(
            _trio(platform, fast, frugal),
            PoissonArrivals(100.0),
            duration_ms=2000.0,
            router="least-loaded",
            seed=3,
        )
        metrics = compute_fleet_metrics(result)
        arrival_rate = metrics.num_requests - metrics.num_dropped
        arrival_rate /= metrics.duration_ms / 1000.0
        expected = arrival_rate * metrics.mean_latency_ms / 1000.0
        assert metrics.mean_in_flight == pytest.approx(expected, rel=1e-9)

    def test_idle_energy_charged_for_powered_idle_units(self, platform, fast):
        # A single near-idle instance: idle joules must dominate and equal
        # static power x (up time - busy time) on the deployment's unit.
        solo = (FleetInstance(name="only", platform=platform, deployment=fast),)
        result = simulate_fleet(
            solo, PoissonArrivals(5.0), duration_ms=2000.0, seed=4
        )
        outcome = result.outcomes[0]
        static_w = {
            unit.name: unit.power.static_w for unit in platform.compute_units
        }
        busy = outcome.result.busy_ms.get("gpu", 0.0)
        expected_gpu_idle = static_w["gpu"] * max(0.0, outcome.up_ms - busy)
        assert outcome.idle_energy_mj() >= expected_gpu_idle - 1e-9
        metrics = compute_fleet_metrics(result)
        assert metrics.idle_energy_mj == pytest.approx(outcome.idle_energy_mj())
        assert metrics.total_energy_mj == pytest.approx(
            metrics.dynamic_energy_mj + metrics.idle_energy_mj
        )
        assert metrics.idle_energy_mj > metrics.dynamic_energy_mj

    def test_summary_row_is_flat_and_complete(self, duo):
        metrics = compute_fleet_metrics(
            simulate_fleet(duo, PoissonArrivals(50.0), duration_ms=800.0, seed=1)
        )
        row = metrics.summary_row()
        assert row["router"] == "round-robin"
        assert row["instances"] == 2
        assert set(row) >= {"p50_ms", "p99_ms", "J_total", "mJ/req", "mean_active"}

    def test_routers_are_behaviourally_distinct(self, platform, fast, frugal):
        # Under asymmetric instances the four routers must not all collapse
        # to the same assignment vector.
        assignments = {}
        for name in router_names():
            result = simulate_fleet(
                _trio(platform, fast, frugal),
                DiurnalArrivals(peak_rps=120.0, trough_rps=10.0, period_ms=1000.0),
                duration_ms=1000.0,
                router=name,
                seed=9,
                deadline_ms=40.0,
            )
            assignments[name] = result.assignments
        assert len(set(assignments.values())) >= 2
        # Energy-aware prefers the frugal instance over the fast one.
        energy = assignments["energy-aware"]
        assert sum(1 for a in energy if a == 2) > sum(1 for a in energy if a == 0)


class TestAutoscaler:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_instances=0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_instances=3, max_instances=2)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(target_utilisation=0.4, scale_down_utilisation=0.5)

    def test_min_instances_cannot_exceed_fleet(self, duo):
        with pytest.raises(ConfigurationError):
            FleetSimulator(duo, autoscaler=AutoscalerPolicy(min_instances=3))

    def test_diurnal_load_boots_and_stops(self, platform, fast, frugal):
        result = simulate_fleet(
            _trio(platform, fast, frugal),
            DiurnalArrivals(peak_rps=220.0, trough_rps=5.0, period_ms=1500.0),
            duration_ms=3000.0,
            router="least-loaded",
            autoscaler=AutoscalerPolicy(
                min_instances=1,
                target_utilisation=0.6,
                scale_down_utilisation=0.2,
                decision_interval_ms=100.0,
                window_ms=400.0,
            ),
            seed=6,
        )
        actions = [event.action for event in result.events]
        assert "boot" in actions and "stop" in actions
        assert result.initial_active == 1
        metrics = compute_fleet_metrics(result)
        assert metrics.boots >= 1
        assert 1.0 <= metrics.mean_active_instances < 3.0
        assert metrics.peak_active_instances <= 3
        # Event stream is time-ordered with a consistent active count.
        times = [event.time_ms for event in result.events]
        assert times == sorted(times)
        active = result.initial_active
        for event in result.events:
            active += 1 if event.action == "boot" else -1
            assert event.active == active
            assert 1 <= active <= 3

    def test_boot_latency_delays_first_service(self, platform, fast):
        # With a huge boot latency the second instance never becomes ready
        # inside the window, so everything lands on the warm one.
        fleet = (
            FleetInstance(name="warm", platform=platform, deployment=fast),
            FleetInstance(
                name="cold", platform=platform, deployment=fast, boot_ms=10_000.0
            ),
        )
        result = simulate_fleet(
            fleet,
            PoissonArrivals(200.0),
            duration_ms=1500.0,
            router="least-loaded",
            autoscaler=AutoscalerPolicy(min_instances=1, window_ms=300.0),
            seed=8,
        )
        assert all(choice == 0 for choice in result.assignments if choice >= 0)

    def test_always_on_keeps_everyone_powered(self, duo):
        result = simulate_fleet(
            duo, PoissonArrivals(30.0), duration_ms=1000.0, seed=0
        )
        metrics = compute_fleet_metrics(result)
        assert result.events == ()
        assert metrics.mean_active_instances == pytest.approx(2.0)
        assert metrics.boots == 0


class TestRouterDeterminismProperty:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        router=st.sampled_from(router_names()),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_same_seed_same_assignments_and_trace(self, router, seed):
        platform = jetson_agx_xavier()
        fast = Deployment(
            name="fast",
            unit_names=("gpu",),
            service_ms=(6.0,),
            energy_mj=(80.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        frugal = Deployment(
            name="frugal",
            unit_names=("dla0", "dla1"),
            service_ms=(12.0, 18.0),
            energy_mj=(8.0, 10.0),
            stage_accuracies=(0.6, 0.9),
            dvfs_scales=(1.0, 1.0),
        )
        fleet = (
            FleetInstance(name="fast-0", platform=platform, deployment=fast),
            FleetInstance(name="frugal-0", platform=platform, deployment=frugal),
        )

        def run():
            return simulate_fleet(
                fleet,
                PoissonArrivals(70.0),
                duration_ms=400.0,
                router=router,
                seed=seed,
            )

        first, second = run(), run()
        assert first.assignments == second.assignments
        assert first.records() == second.records()
        first_metrics = compute_fleet_metrics(first)
        second_metrics = compute_fleet_metrics(second)
        assert first_metrics == second_metrics


class TestCrossPlatformFleet:
    def test_mixed_boards_serve_one_stream(self, fast):
        xavier = get_platform("jetson-agx-xavier")
        nano = get_platform("jetson-nano-class")
        nano_units = tuple(unit.name for unit in nano.compute_units)
        assert "gpu" in nano_units  # the fast deployment must map onto it
        fleet = (
            FleetInstance(name="xavier-0", platform=xavier, deployment=fast),
            FleetInstance(name="nano-0", platform=nano, deployment=fast),
        )
        result = simulate_fleet(
            fleet, PoissonArrivals(80.0), duration_ms=1000.0,
            router="least-loaded", seed=12,
        )
        served = sum(outcome.num_requests for outcome in result.outcomes)
        assert served == result.num_requests
        assert all(outcome.num_requests > 0 for outcome in result.outcomes)
        metrics = compute_fleet_metrics(result)
        assert metrics.num_instances == 2
        assert metrics.instance_requests == {
            outcome.instance.name: outcome.num_requests
            for outcome in result.outcomes
        }
        assert all(
            0.0 <= u <= 1.0 + 1e-9 for u in metrics.instance_utilisation.values()
        )
        assert np.isfinite(metrics.energy_per_request_mj)
