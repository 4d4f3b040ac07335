"""Unit tests for the accuracy model, exit statistics and dynamic inference."""

from __future__ import annotations

import pytest

from repro.dynamics.accuracy import AccuracyModel
from repro.dynamics.inference import simulate_dynamic_inference
from repro.dynamics.samples import compute_exit_statistics
from repro.errors import ConfigurationError
from repro.nn.multiexit import build_dynamic_network
from repro.nn.partition import IndicatorMatrix, PartitionMatrix


def coverages(dynamic):
    """Every stage's exit coverage of ``dynamic``."""
    return [dynamic.stage_coverage(stage) for stage in range(dynamic.num_stages)]


class TestAccuracyModel:
    def test_full_coverage_close_to_base(self, accuracy_model):
        accuracy = accuracy_model.stage_accuracy_from_coverage(1.0, 0.88, "vit")
        assert accuracy == pytest.approx(0.88 * 0.995, rel=1e-6)

    def test_zero_coverage_is_zero(self, accuracy_model):
        assert accuracy_model.stage_accuracy_from_coverage(0.0, 0.88, "vit") == 0.0

    def test_monotone_in_coverage(self, accuracy_model):
        values = [
            accuracy_model.stage_accuracy_from_coverage(c, 0.88, "vit")
            for c in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_high_coverage_loses_little_accuracy(self, accuracy_model):
        # The pruning-style curve is flat near full coverage: keeping 85 % of
        # the importance mass costs only a few accuracy points.
        accuracy = accuracy_model.stage_accuracy_from_coverage(0.85, 0.8809, "vit")
        assert accuracy > 0.84

    def test_cnn_family_gets_exit_bonus(self, accuracy_model):
        vit = accuracy_model.stage_accuracy_from_coverage(1.0, 0.8055, "vit")
        cnn = accuracy_model.stage_accuracy_from_coverage(1.0, 0.8055, "cnn")
        assert cnn > vit
        # The VGG19 effect of Table II: dynamic variants beat the baseline.
        assert cnn > 0.8055

    def test_accuracy_never_exceeds_ceiling(self):
        model = AccuracyModel(exit_bonus=0.5, exit_penalty=0.0)
        assert model.stage_accuracy_from_coverage(1.0, 0.9, "cnn") <= 0.995

    def test_custom_redundancy_changes_sensitivity(self):
        fragile = AccuracyModel(redundancy=1.0)
        robust = AccuracyModel(redundancy=4.0)
        assert fragile.stage_accuracy_from_coverage(0.5, 0.9, "vit") < (
            robust.stage_accuracy_from_coverage(0.5, 0.9, "vit")
        )

    def test_stage_accuracies_non_decreasing(self, tiny_dynamic, accuracy_model):
        accuracies = accuracy_model.stage_accuracies_from_coverage(
            tiny_dynamic.network, coverages(tiny_dynamic)
        )
        assert len(accuracies) == 3
        assert all(b >= a for a, b in zip(accuracies, accuracies[1:]))
        # Monotone even for coverages that are not.
        dipping = accuracy_model.stage_accuracies_from_coverage(
            tiny_dynamic.network, [0.9, 0.5, 0.95]
        )
        assert dipping[1] == dipping[0] < dipping[2]

    def test_final_accuracy_close_to_base_with_full_reuse(self, tiny_dynamic, accuracy_model):
        final = accuracy_model.stage_accuracies_from_coverage(
            tiny_dynamic.network, coverages(tiny_dynamic)
        )[-1]
        base = tiny_dynamic.network.base_accuracy
        assert final > base - 0.01

    def test_a_per_network_method_is_refused(self):
        with pytest.raises(ConfigurationError) as raised:

            class PerNetwork(AccuracyModel):
                def stage_accuracies(self, dynamic_network):
                    return (0.5,) * dynamic_network.num_stages

        assert "stage_accuracies_from_coverage" in str(raised.value)
        assert str(raised.value).startswith("PerNetwork defines stage_accuracies")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            AccuracyModel(redundancy=0.0)
        with pytest.raises(ConfigurationError):
            AccuracyModel(exit_penalty=1.5)
        model = AccuracyModel()
        with pytest.raises(ConfigurationError):
            model.stage_accuracy_from_coverage(1.2, 0.9, "vit")


class TestExitStatistics:
    def test_counts_follow_accuracy_increments(self):
        stats = compute_exit_statistics([0.5, 0.7, 0.9], validation_samples=1000)
        assert stats.correct_counts == (500, 200, 200)
        assert stats.accuracy == pytest.approx(0.9)

    def test_exit_fractions_sum_to_one(self):
        stats = compute_exit_statistics([0.5, 0.7, 0.9])
        assert sum(stats.exit_fractions) == pytest.approx(1.0)

    def test_misclassified_samples_terminate_at_last_stage(self):
        stats = compute_exit_statistics([0.5, 0.7, 0.9])
        # 20 % increment + 10 % never-correct = 30 % of samples end at stage 3.
        assert stats.exit_fractions[-1] == pytest.approx(0.3)

    def test_early_exit_fraction(self):
        stats = compute_exit_statistics([0.6, 0.8, 0.9])
        assert stats.early_exit_fraction == pytest.approx(0.8)

    def test_expected_stages_between_one_and_m(self):
        stats = compute_exit_statistics([0.5, 0.7, 0.9])
        assert 1.0 <= stats.expected_stages() <= 3.0

    def test_single_stage_cascade(self):
        stats = compute_exit_statistics([0.88])
        assert stats.exit_fractions == (1.0,)
        assert stats.expected_stages() == pytest.approx(1.0)

    def test_equal_accuracies_mean_no_midway_exits(self):
        stats = compute_exit_statistics([0.7, 0.7, 0.9])
        assert stats.exit_fractions[1] == pytest.approx(0.0)

    def test_decreasing_accuracies_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_exit_statistics([0.9, 0.7])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_exit_statistics([])
        with pytest.raises(ConfigurationError):
            compute_exit_statistics([0.5], validation_samples=0)
        with pytest.raises(ConfigurationError):
            compute_exit_statistics([1.4])


class TestDynamicInference:
    @pytest.fixture()
    def profile(self, tiny_dynamic, mapping_evaluator):
        return mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (9, 5, 5))

    def test_expected_metrics_bounded_by_worst_case(self, tiny_dynamic, profile):
        result = simulate_dynamic_inference(tiny_dynamic, profile)
        assert 0 < result.expected_latency_ms <= result.worst_case_latency_ms + 1e-9
        assert 0 < result.expected_energy_mj <= result.worst_case_energy_mj + 1e-9

    def test_early_exits_save_energy(self, tiny_dynamic, profile):
        result = simulate_dynamic_inference(tiny_dynamic, profile)
        # A meaningful fraction of samples exits early, so the expectation is
        # strictly below the all-stages energy.
        assert result.exit_statistics.early_exit_fraction > 0.3
        assert result.expected_energy_mj < result.worst_case_energy_mj

    def test_accuracy_and_reuse_reported(self, tiny_dynamic, profile):
        result = simulate_dynamic_inference(tiny_dynamic, profile)
        assert result.accuracy == pytest.approx(
            result.exit_statistics.stage_accuracies[-1]
        )
        assert result.reuse_fraction == pytest.approx(tiny_dynamic.reuse_fraction())
        assert result.num_stages == 3

    def test_custom_accuracy_model_changes_result(self, tiny_dynamic, profile):
        generous = simulate_dynamic_inference(
            tiny_dynamic, profile, accuracy_model=AccuracyModel(redundancy=4.0)
        )
        strict = simulate_dynamic_inference(
            tiny_dynamic, profile, accuracy_model=AccuracyModel(redundancy=1.0)
        )
        assert generous.expected_energy_mj <= strict.expected_energy_mj + 1e-9

    def test_stage_count_mismatch_rejected(self, tiny_network, tiny_ranking, platform, profile):
        two_stage = build_dynamic_network(
            tiny_network,
            partition=PartitionMatrix.uniform(2, 3),
            indicator=IndicatorMatrix.none(2, 3),
            ranking=tiny_ranking,
        )
        with pytest.raises(ConfigurationError):
            simulate_dynamic_inference(two_stage, profile)

    def test_validation_samples_scale_counts(self, tiny_dynamic, profile):
        small = simulate_dynamic_inference(tiny_dynamic, profile, validation_samples=100)
        large = simulate_dynamic_inference(tiny_dynamic, profile, validation_samples=10000)
        assert sum(small.exit_statistics.correct_counts) <= 100
        assert sum(large.exit_statistics.correct_counts) <= 10000
        # Expected metrics are sample-size independent (they are fractions).
        assert small.expected_energy_mj == pytest.approx(large.expected_energy_mj, rel=0.05)
