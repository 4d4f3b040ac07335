"""Unit tests for the runtime confidence-threshold exit controller."""

from __future__ import annotations

import pytest

from repro.dynamics.accuracy import AccuracyModel
from repro.dynamics.controller import ThresholdExitController
from repro.dynamics.inference import simulate_dynamic_inference
from repro.errors import ConfigurationError


@pytest.fixture()
def profile(tiny_dynamic, mapping_evaluator):
    return mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (9, 5, 5))


@pytest.fixture()
def stage_accuracies(tiny_dynamic):
    coverages = [tiny_dynamic.stage_coverage(stage) for stage in range(tiny_dynamic.num_stages)]
    return AccuracyModel().stage_accuracies_from_coverage(tiny_dynamic.network, coverages)


class TestThresholdExitController:
    def test_result_is_a_distribution(self, stage_accuracies, profile):
        controller = ThresholdExitController(threshold=0.7, seed=0)
        result = controller.simulate(stage_accuracies, profile, num_samples=2000)
        assert sum(result.exit_fractions) == pytest.approx(1.0)
        assert 1.0 <= result.expected_stages <= len(stage_accuracies)
        assert 0.0 < result.accuracy <= 1.0
        assert result.num_samples == 2000

    def test_deterministic_per_seed(self, stage_accuracies, profile):
        first = ThresholdExitController(seed=3).simulate(stage_accuracies, profile, 1000)
        second = ThresholdExitController(seed=3).simulate(stage_accuracies, profile, 1000)
        assert first.accuracy == second.accuracy
        assert first.exit_fractions == second.exit_fractions

    def test_higher_threshold_defers_more_samples(self, stage_accuracies, profile):
        eager = ThresholdExitController(threshold=0.3, seed=0).simulate(
            stage_accuracies, profile, 4000
        )
        cautious = ThresholdExitController(threshold=0.95, seed=0).simulate(
            stage_accuracies, profile, 4000
        )
        assert cautious.expected_stages >= eager.expected_stages
        assert cautious.expected_energy_mj >= eager.expected_energy_mj - 1e-9

    def test_cautious_controller_reduces_premature_exits(self, stage_accuracies, profile):
        eager = ThresholdExitController(threshold=0.3, seed=0).simulate(
            stage_accuracies, profile, 4000
        )
        cautious = ThresholdExitController(threshold=0.95, seed=0).simulate(
            stage_accuracies, profile, 4000
        )
        assert cautious.premature_exit_fraction <= eager.premature_exit_fraction + 1e-9

    def test_metrics_bounded_by_profile(self, stage_accuracies, profile):
        result = ThresholdExitController(seed=0).simulate(stage_accuracies, profile, 2000)
        assert result.expected_latency_ms <= profile.latency_ms + 1e-9
        assert result.expected_energy_mj <= profile.total_energy_mj + 1e-9

    def test_realistic_controller_close_to_ideal_mapping(
        self, tiny_dynamic, stage_accuracies, profile
    ):
        """A low-noise, well-tuned controller approaches the ideal analysis."""
        ideal = simulate_dynamic_inference(tiny_dynamic, profile)
        realistic = ThresholdExitController(
            threshold=0.6, confidence_noise=0.02, seed=0
        ).simulate(stage_accuracies, profile, 8000)
        assert realistic.accuracy == pytest.approx(ideal.accuracy, abs=0.08)
        assert realistic.expected_energy_mj == pytest.approx(
            ideal.expected_energy_mj, rel=0.5
        )

    def test_noisier_confidence_costs_accuracy(self, stage_accuracies, profile):
        clean = ThresholdExitController(threshold=0.7, confidence_noise=0.0, seed=0).simulate(
            stage_accuracies, profile, 4000
        )
        noisy = ThresholdExitController(threshold=0.7, confidence_noise=0.4, seed=0).simulate(
            stage_accuracies, profile, 4000
        )
        assert noisy.accuracy <= clean.accuracy + 0.02

    def test_invalid_parameters_rejected(self, stage_accuracies, profile):
        with pytest.raises(ConfigurationError):
            ThresholdExitController(threshold=1.5)
        with pytest.raises(ConfigurationError):
            ThresholdExitController(confidence_noise=-0.1)
        controller = ThresholdExitController()
        with pytest.raises(ConfigurationError):
            controller.simulate([], profile)
        with pytest.raises(ConfigurationError):
            controller.simulate([0.9, 0.5], profile)
        with pytest.raises(ConfigurationError):
            controller.simulate(stage_accuracies, profile, num_samples=0)
        with pytest.raises(ConfigurationError):
            controller.simulate(stage_accuracies[:2], profile)
