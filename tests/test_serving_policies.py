"""Unit tests for deployments, serving policies and the per-request controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.controller import ThresholdExitController
from repro.errors import ConfigurationError
from repro.serving.policies import (
    AdaptiveSwitchPolicy,
    Deployment,
    DvfsGovernorPolicy,
    StaticPolicy,
    rescale_deployment,
)


@pytest.fixture()
def frugal():
    return Deployment(
        name="frugal",
        unit_names=("dla0", "dla1"),
        service_ms=(30.0, 45.0),
        energy_mj=(8.0, 10.0),
        stage_accuracies=(0.6, 0.85),
        dvfs_scales=(1.0, 1.0),
    )


@pytest.fixture()
def fast():
    return Deployment(
        name="fast",
        unit_names=("gpu",),
        service_ms=(6.0,),
        energy_mj=(80.0,),
        stage_accuracies=(0.85,),
        dvfs_scales=(1.0,),
    )


class TestDeployment:
    def test_cumulative_views(self, frugal):
        assert frugal.cumulative_latency_ms(0) == 30.0
        assert frugal.cumulative_latency_ms(1) == 45.0
        assert frugal.cumulative_energy_mj(1) == pytest.approx(18.0)
        assert frugal.bottleneck_service_ms == 45.0
        assert frugal.capacity_rps() == pytest.approx(1000.0 / 45.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Deployment(
                name="bad",
                unit_names=("gpu",),
                service_ms=(1.0, 2.0),
                energy_mj=(1.0,),
                stage_accuracies=(0.5,),
                dvfs_scales=(1.0,),
            )
        with pytest.raises(ConfigurationError):
            Deployment(
                name="bad",
                unit_names=("gpu", "dla0"),
                service_ms=(1.0, 2.0),
                energy_mj=(1.0, 1.0),
                stage_accuracies=(0.9, 0.5),  # decreasing
                dvfs_scales=(1.0, 1.0),
            )

    def test_from_evaluated(self, tiny_config_evaluator, tiny_mapping_config):
        evaluated = tiny_config_evaluator.evaluate(tiny_mapping_config)
        deployment = Deployment.from_evaluated(evaluated, name="searched")
        assert deployment.name == "searched"
        assert deployment.unit_names == ("gpu", "dla0", "dla1")
        assert deployment.num_stages == evaluated.profile.num_stages
        for stage in range(deployment.num_stages):
            assert deployment.cumulative_latency_ms(stage) == pytest.approx(
                evaluated.profile.cumulative_latency_ms(stage)
            )
            assert deployment.cumulative_energy_mj(stage) == pytest.approx(
                evaluated.profile.cumulative_energy_mj(stage)
            )


class TestRescaleDeployment:
    def test_identity_at_profiled_scale(self, frugal, platform):
        rescaled = rescale_deployment(frugal, platform, 1.0)
        assert rescaled.service_ms == frugal.service_ms
        assert rescaled.energy_mj == frugal.energy_mj
        assert rescaled.dvfs_scales == (1.0, 1.0)

    def test_downscaling_follows_power_model(self, fast, platform):
        unit = platform.unit("gpu")
        rescaled = rescale_deployment(fast, platform, 0.5)
        index = unit.dvfs.nearest_index(0.5)
        scale = unit.dvfs.scale(index)
        assert rescaled.dvfs_scales == (scale,)
        assert rescaled.service_ms[0] == pytest.approx(6.0 / scale)
        expected_energy = 80.0 * (1.0 / scale) * (
            unit.power.power_w(scale) / unit.power.power_w(1.0)
        )
        assert rescaled.energy_mj[0] == pytest.approx(expected_energy)
        assert rescaled.service_ms[0] > fast.service_ms[0]

    def test_nearest_index_snaps_and_validates(self, platform):
        table = platform.unit("gpu").dvfs
        scales = table.scales()
        for target in (0.3, 0.5, 0.77, 1.0):
            snapped = table.scale(table.nearest_index(target))
            assert min(abs(s - target) for s in scales) == pytest.approx(
                abs(snapped - target)
            )
        assert table.nearest_index(1.0) == len(table) - 1
        with pytest.raises(ConfigurationError):
            table.nearest_index(0.0)
        with pytest.raises(ConfigurationError):
            table.nearest_index(1.5)


class TestStaticPolicy:
    def test_always_same_deployment(self, frugal):
        policy = StaticPolicy(frugal)
        assert policy.select(0, 0.0) is frugal
        assert policy.select(100, 5.0) is frugal


class TestAdaptiveSwitchPolicy:
    def test_hysteresis_band(self, frugal, fast):
        policy = AdaptiveSwitchPolicy(frugal, fast, high_watermark=8, low_watermark=2)
        assert policy.select(0, 0.0) is frugal
        assert policy.select(7, 1.0) is frugal  # below high watermark
        assert policy.select(8, 2.0) is fast  # crosses the high watermark
        assert policy.select(5, 3.0) is fast  # inside the dead band: stays
        assert policy.select(3, 4.0) is fast
        assert policy.select(2, 5.0) is frugal  # drains to the low watermark
        assert policy.switches == 2

    def test_reset_clears_state(self, frugal, fast):
        policy = AdaptiveSwitchPolicy(frugal, fast, high_watermark=4, low_watermark=1)
        policy.select(10, 0.0)
        assert policy.surging
        policy.reset()
        assert not policy.surging
        assert policy.switches == 0
        assert policy.select(2, 0.0) is frugal

    def test_watermark_validation(self, frugal, fast):
        with pytest.raises(ConfigurationError):
            AdaptiveSwitchPolicy(frugal, fast, high_watermark=2, low_watermark=2)
        with pytest.raises(ConfigurationError):
            AdaptiveSwitchPolicy(frugal, fast, high_watermark=1, low_watermark=-1)


def _load_driven(kind, deployment, platform, **watermarks):
    if kind == "switcher":
        return AdaptiveSwitchPolicy(deployment, deployment, **watermarks)
    return DvfsGovernorPolicy(deployment, platform, **watermarks)


@pytest.mark.parametrize("kind", ["switcher", "dvfs-governor"])
class TestWholeNumberWatermarks:
    """Watermarks are in-flight counts: only ints pass, and the dead band is
    checked on the values the policy keeps."""

    def test_fractions_that_would_truncate_to_no_dead_band(self, kind, fast, platform):
        # 2.5 > 2.1, but truncated they would be 2 and 2: a switch on every
        # request at depth 2.
        with pytest.raises(ConfigurationError, match="high_watermark"):
            _load_driven(kind, fast, platform, high_watermark=2.5, low_watermark=2.1)

    @pytest.mark.parametrize("name", ["high_watermark", "low_watermark"])
    def test_nan(self, kind, fast, platform, name):
        watermarks = {"high_watermark": 6, "low_watermark": 2, name: float("nan")}
        with pytest.raises(ConfigurationError, match=name):
            _load_driven(kind, fast, platform, **watermarks)

    def test_infinite_high_watermark(self, kind, fast, platform):
        with pytest.raises(ConfigurationError, match="high_watermark"):
            _load_driven(kind, fast, platform, high_watermark=float("inf"), low_watermark=2)

    def test_numpy_ints_are_kept_as_python_ints(self, kind, fast, platform):
        policy = _load_driven(
            kind, fast, platform, high_watermark=np.int64(5), low_watermark=np.int32(1)
        )
        assert (policy.high_watermark, policy.low_watermark) == (5, 1)
        assert type(policy.high_watermark) is int and type(policy.low_watermark) is int


class TestDvfsGovernorPolicy:
    def test_walks_one_rung_at_a_time(self, fast, platform):
        policy = DvfsGovernorPolicy(
            fast, platform, levels=(0.4, 0.7, 1.0), high_watermark=4, low_watermark=1
        )
        assert policy.rung == 0
        slow = policy.select(0, 0.0)
        assert policy.rung == 0
        policy.select(5, 1.0)
        assert policy.rung == 1
        policy.select(9, 2.0)
        assert policy.rung == 2
        fast_rung = policy.select(9, 3.0)  # already at the top
        assert policy.rung == 2
        assert fast_rung.service_ms[0] < slow.service_ms[0]
        policy.select(0, 4.0)
        assert policy.rung == 1

    def test_rungs_ordered_by_speed(self, fast, platform):
        policy = DvfsGovernorPolicy(fast, platform, levels=(0.4, 0.6, 0.8, 1.0))
        services = [rung.service_ms[0] for rung in policy.rungs]
        assert services == sorted(services, reverse=True)

    def test_validation(self, fast, platform):
        with pytest.raises(ConfigurationError):
            DvfsGovernorPolicy(fast, platform, levels=())
        with pytest.raises(ConfigurationError):
            DvfsGovernorPolicy(fast, platform, high_watermark=1, low_watermark=1)


#: Accuracy vectors the ideal exit rule is pinned on: one stage, strictly
#: increasing, tied, and a dip smaller than the 1e-9 tolerance Deployment
#: admits.
EXIT_ACCURACIES = [(0.9,), (0.5, 0.7, 0.9), (0.5, 0.5, 0.9), (0.5, 0.5 - 1e-10)]


def _exit_probe_difficulties(accuracies):
    """0, 1, a 101-point grid, the dip probe, and each accuracy and +/- 1e-12."""
    points = {0.0, 1.0, 0.49999999995, *np.linspace(0.0, 1.0, 101).tolist()}
    for accuracy in accuracies:
        points.update((accuracy - 1e-12, accuracy, accuracy + 1e-12))
    return sorted(point for point in points if 0.0 <= point <= 1.0)


def _deployment_with(accuracies):
    stages = len(accuracies)
    return Deployment(
        name="probe",
        unit_names=tuple(f"unit{index}" for index in range(stages)),
        service_ms=(1.0,) * stages,
        energy_mj=(1.0,) * stages,
        stage_accuracies=accuracies,
        dvfs_scales=(1.0,) * stages,
    )


class TestExitStage:
    """``Deployment.exit_stage`` and ``exit_stages`` (one request, a vector of
    them) are the noise-free controller's decision."""

    @pytest.mark.parametrize("accuracies", EXIT_ACCURACIES)
    def test_matches_noise_free_decide(self, accuracies):
        deployment = _deployment_with(accuracies)
        controller = ThresholdExitController(threshold=0.5, confidence_noise=0.0, seed=0)
        probes = _exit_probe_difficulties(accuracies)
        for difficulty, batched in zip(probes, deployment.exit_stages(probes).tolist()):
            decision = controller.decide(difficulty, accuracies)
            for stage in (deployment.exit_stage(difficulty), batched):
                correct = difficulty <= deployment.stage_accuracies[stage]
                assert (stage, correct) == (decision.stage, decision.correct), difficulty

    def test_first_match_under_a_tolerated_dip(self):
        # A bisection assumes sorted accuracies and would answer stage 1 here.
        deployment = _deployment_with((0.5, 0.5 - 1e-10))
        assert deployment.exit_stage(0.49999999995) == 0
        assert deployment.exit_stages([0.49999999995, 0.5]).tolist() == [0, 0]


class TestControllerDecide:
    def test_ideal_controller_reproduces_ideal_mapping(self):
        controller = ThresholdExitController(threshold=0.5, confidence_noise=0.0, seed=0)
        accuracies = (0.5, 0.7, 0.9)
        # Difficulty below the first stage's accuracy: exits immediately.
        assert controller.decide(0.3, accuracies).stage == 0
        # Between stage 1 and 2: exits at stage 1, correctly.
        decision = controller.decide(0.6, accuracies)
        assert decision.stage == 1 and decision.correct and not decision.premature
        # Harder than every stage: traverses the cascade and is wrong.
        decision = controller.decide(0.95, accuracies)
        assert decision.stage == 2 and not decision.correct

    def test_decide_matches_simulate_statistics(self, tiny_dynamic, mapping_evaluator):
        from repro.dynamics.accuracy import AccuracyModel

        coverages = [tiny_dynamic.stage_coverage(stage) for stage in range(3)]
        accuracies = AccuracyModel().stage_accuracies_from_coverage(tiny_dynamic.network, coverages)
        profile = mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (9, 5, 5))
        controller = ThresholdExitController(threshold=0.7, confidence_noise=0.1, seed=0)
        aggregate = controller.simulate(accuracies, profile, num_samples=4000)

        rng = np.random.default_rng(0)
        solo = ThresholdExitController(threshold=0.7, confidence_noise=0.1, seed=1)
        difficulties = rng.random(4000)
        decisions = [solo.decide(d, accuracies, rng=rng) for d in difficulties]
        accuracy = float(np.mean([decision.correct for decision in decisions]))
        stages = float(np.mean([decision.stage + 1 for decision in decisions]))
        assert accuracy == pytest.approx(aggregate.accuracy, abs=0.03)
        assert stages == pytest.approx(aggregate.expected_stages, abs=0.1)

    def test_decide_validation(self):
        controller = ThresholdExitController(seed=0)
        with pytest.raises(ConfigurationError):
            controller.decide(1.5, (0.5, 0.9))
        with pytest.raises(ConfigurationError):
            controller.decide(0.5, ())
        with pytest.raises(ConfigurationError):
            controller.decide(0.5, (0.9, 0.5))


class TestQueueingApproximation:
    """The M/D/1 helpers must agree with the discrete-event simulator."""

    def test_stage_visit_fractions_and_bottleneck(self, frugal):
        # Every request pays stage 0; only the 40% the first exit cannot
        # classify reach stage 1 — making stage 0 the serving bottleneck
        # (30.0 > 45.0 * 0.4) even though stage 1 is slower in isolation.
        assert frugal.stage_visit_fractions == (1.0, pytest.approx(0.4))
        assert frugal.bottleneck_busy_ms == pytest.approx(30.0)
        assert frugal.effective_capacity_rps() == pytest.approx(1000.0 / 30.0)
        # Early exits buy throughput over the all-stages worst case.
        assert frugal.effective_capacity_rps() > frugal.capacity_rps()

    def test_single_stage_reduces_to_service_time(self, fast):
        assert fast.bottleneck_busy_ms == pytest.approx(6.0)
        assert fast.effective_capacity_rps() == pytest.approx(fast.capacity_rps())
        assert fast.expected_energy_per_request_mj == pytest.approx(80.0)

    def test_expected_energy_is_visit_weighted(self, frugal):
        assert frugal.expected_energy_per_request_mj == pytest.approx(
            8.0 + 0.4 * 10.0
        )

    def test_expected_wait_shape(self, fast):
        # Zero at zero load, strictly increasing, infinite at saturation.
        assert fast.expected_wait_ms(0.0) == 0.0
        waits = [fast.expected_wait_ms(rate) for rate in (20.0, 60.0, 100.0, 150.0)]
        assert all(a < b for a, b in zip(waits, waits[1:]))
        assert fast.expected_wait_ms(1000.0 / 6.0) == float("inf")
        assert fast.expected_wait_ms(400.0) == float("inf")

    def test_wait_budget_capacity_inverts_expected_wait(self, frugal):
        # effective_capacity_rps(W) is exactly the rate whose predicted mean
        # wait is W, and tightening the budget shrinks the headroom.
        for budget in (2.0, 10.0, 40.0):
            rate = frugal.effective_capacity_rps(max_wait_ms=budget)
            assert rate < frugal.effective_capacity_rps()
            assert frugal.expected_wait_ms(rate) == pytest.approx(budget)
        assert frugal.effective_capacity_rps(max_wait_ms=2.0) < (
            frugal.effective_capacity_rps(max_wait_ms=40.0)
        )
        with pytest.raises(ConfigurationError):
            frugal.effective_capacity_rps(max_wait_ms=0.0)

    @pytest.mark.parametrize(
        "rate_rps, rel",
        [
            (30.0, 0.40),  # rho = 0.3: short queues, wide relative tolerance
            (80.0, 0.30),  # rho = 0.8: heavy load, waits dominated by rho
        ],
    )
    def test_expected_wait_matches_simulator(self, platform, rate_rps, rel):
        from repro.serving import PoissonArrivals, StaticPolicy, TrafficSimulator
        from repro.serving.metrics import compute_metrics

        # Single deterministic stage on one unit: a textbook M/D/1 queue.
        deployment = Deployment(
            name="md1",
            unit_names=("gpu",),
            service_ms=(10.0,),
            energy_mj=(25.0,),
            stage_accuracies=(0.9,),
            dvfs_scales=(1.0,),
        )
        simulator = TrafficSimulator(platform, StaticPolicy(deployment), seed=7)
        result = simulator.run(
            PoissonArrivals(rate_rps).generate(duration_ms=120_000.0, seed=7)
        )
        measured = compute_metrics(result).mean_queueing_ms
        predicted = deployment.expected_wait_ms(rate_rps)
        assert measured == pytest.approx(predicted, rel=rel)

    def test_effective_capacity_matches_saturated_throughput(self, platform):
        from repro.serving import ConstantRate, StaticPolicy, TrafficSimulator
        from repro.serving.metrics import compute_metrics

        # Cascade with early exits: visit fractions (1.0, 0.5, 0.3) put the
        # bottleneck on dla0 at 20 * 0.5 = 10 ms/request, not the 30 ms
        # final stage — so the fleet estimate is ~100 rps, 3x the
        # all-stages worst case.  Overload the queue and check the event
        # loop actually drains at that rate.
        deployment = Deployment(
            name="cascade",
            unit_names=("gpu", "dla0", "dla1"),
            service_ms=(5.0, 20.0, 30.0),
            energy_mj=(40.0, 10.0, 12.0),
            stage_accuracies=(0.5, 0.7, 0.9),
            dvfs_scales=(1.0, 1.0, 1.0),
        )
        assert deployment.effective_capacity_rps() == pytest.approx(100.0)
        simulator = TrafficSimulator(platform, StaticPolicy(deployment), seed=11)
        result = simulator.run(
            ConstantRate(250.0).generate(duration_ms=20_000.0, seed=11)
        )
        measured = compute_metrics(result).throughput_rps
        assert measured == pytest.approx(
            deployment.effective_capacity_rps(), rel=0.10
        )
        # ... and the estimate is far closer than the worst-case bound.
        assert measured > 2.0 * deployment.capacity_rps()
