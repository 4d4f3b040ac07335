"""Unit tests for evaluation, objectives, constraints, operators and Pareto."""

from __future__ import annotations

import numpy as np
import pytest

from repro.search.constraints import SearchConstraints
from repro.search.evaluation import ConfigEvaluator
from repro.search.objectives import (
    energy_oriented_objective,
    latency_oriented_objective,
    paper_objective,
)
from repro.search.operators import crossover, mutate
from repro.search.pareto import (
    dominates,
    pareto_front,
    select_energy_oriented,
    select_latency_oriented,
)
from repro.errors import SearchError


@pytest.fixture()
def evaluated_samples(tiny_space, tiny_config_evaluator):
    rng = np.random.default_rng(0)
    configs = [tiny_space.sample(rng) for _ in range(12)]
    return tiny_config_evaluator.evaluate_many(configs)


class TestConfigEvaluator:
    def test_evaluate_produces_consistent_metrics(self, tiny_config_evaluator, tiny_space):
        evaluated = tiny_config_evaluator.evaluate(tiny_space.sample(seed=0))
        assert evaluated.latency_ms > 0
        assert evaluated.energy_mj > 0
        assert 0 < evaluated.accuracy < 1
        assert evaluated.latency_ms <= evaluated.worst_case_latency_ms + 1e-9
        assert evaluated.energy_mj <= evaluated.worst_case_energy_mj + 1e-9

    def test_summary_row_fields(self, tiny_config_evaluator, tiny_space):
        row = tiny_config_evaluator.evaluate(tiny_space.sample(seed=1)).summary_row()
        assert set(row) == {
            "mapping",
            "accuracy_pct",
            "avg_energy_mj",
            "avg_latency_ms",
            "reuse_pct",
        }

    def test_accuracy_drop_sign(self, tiny_config_evaluator, tiny_space, tiny_network):
        evaluated = tiny_config_evaluator.evaluate(tiny_space.sample(seed=2))
        assert evaluated.accuracy_drop == pytest.approx(
            tiny_network.base_accuracy - evaluated.accuracy
        )

    def test_reordering_strengthens_the_first_exit(self, tiny_network, platform, tiny_space):
        # Channel reordering assigns the most important channels to the first
        # stage (Sect. V-D), so its exit must be at least as accurate as
        # without reordering; that is what lets more samples terminate early.
        ordered = ConfigEvaluator(tiny_network, platform, reorder_channels=True, seed=0)
        unordered = ConfigEvaluator(tiny_network, platform, reorder_channels=False, seed=0)
        config = tiny_space.sample(seed=5)
        ordered_first = ordered.evaluate(config).inference.exit_statistics.stage_accuracies[0]
        unordered_first = unordered.evaluate(config).inference.exit_statistics.stage_accuracies[0]
        assert ordered_first >= unordered_first - 1e-9


class TestObjectives:
    def test_paper_objective_positive_and_finite(self, evaluated_samples):
        for item in evaluated_samples:
            value = paper_objective(item)
            assert value > 0
            assert np.isfinite(value)

    def test_paper_objective_deterministic(self, evaluated_samples):
        for item in evaluated_samples:
            assert paper_objective(item) == paper_objective(item)

    def test_paper_objective_rewards_cheaper_stages(self, tiny_config_evaluator, tiny_mapping_config):
        # Same partition and mapping, but running every unit at its lowest
        # DVFS point increases stage latencies, which the Eq. 16 latency and
        # energy terms must reflect (energy may drop, but latency dominates
        # here because static power still accrues over the longer runtime).
        from dataclasses import replace

        fast = tiny_config_evaluator.evaluate(tiny_mapping_config)
        slow = tiny_config_evaluator.evaluate(
            replace(tiny_mapping_config, dvfs_indices=(0, 0, 0))
        )
        assert slow.latency_ms > fast.latency_ms

    def test_oriented_objectives_track_their_metric(self, evaluated_samples):
        by_latency = min(evaluated_samples, key=latency_oriented_objective)
        by_energy = min(evaluated_samples, key=energy_oriented_objective)
        assert by_latency.latency_ms <= min(e.latency_ms for e in evaluated_samples) * 1.5
        assert by_energy.energy_mj <= min(e.energy_mj for e in evaluated_samples) * 1.5


class TestConstraints:
    def test_unconstrained_is_always_feasible(self, evaluated_samples, platform):
        gate = SearchConstraints()
        assert all(gate.is_feasible(item, platform=platform) for item in evaluated_samples)

    def test_latency_target_filters(self, evaluated_samples):
        tight = SearchConstraints(latency_target_ms=1e-6)
        assert all(not tight.is_feasible(item) for item in evaluated_samples)
        loose = SearchConstraints(latency_target_ms=1e9)
        assert all(loose.is_feasible(item) for item in evaluated_samples)

    def test_energy_target_filters(self, evaluated_samples):
        tight = SearchConstraints(energy_target_mj=1e-6)
        assert all(not tight.is_feasible(item) for item in evaluated_samples)

    def test_reuse_cap_filters(self, evaluated_samples):
        gate = SearchConstraints(max_reuse_fraction=0.5)
        for item in evaluated_samples:
            assert gate.is_feasible(item) == (item.reuse_fraction <= 0.5 + 1e-9)

    def test_accuracy_drop_cap_filters(self, evaluated_samples):
        gate = SearchConstraints(max_accuracy_drop=0.0)
        for item in evaluated_samples:
            assert gate.is_feasible(item) == (item.accuracy_drop <= 1e-9)

    def test_memory_budget_filters(self, evaluated_samples):
        gate = SearchConstraints(feature_budget_bytes=1)
        for item in evaluated_samples:
            expected = item.stored_feature_bytes <= 1
            assert gate.is_feasible(item) == expected

    def test_violations_are_descriptive(self, evaluated_samples):
        gate = SearchConstraints(latency_target_ms=1e-6, energy_target_mj=1e-6)
        problems = gate.violations(evaluated_samples[0])
        assert len(problems) == 2
        assert any("latency" in text for text in problems)
        assert any("energy" in text for text in problems)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            SearchConstraints(latency_target_ms=-1.0)
        with pytest.raises(ValueError):
            SearchConstraints(max_accuracy_drop=-0.1)

    @pytest.mark.parametrize(
        "bound",
        ["latency_target_ms", "energy_target_mj", "max_accuracy_drop", "feature_budget_bytes"],
    )
    def test_a_nan_bound_is_rejected(self, bound):
        # A NaN bound is never violated, so it would silently accept all.
        with pytest.raises(ValueError, match=bound):
            SearchConstraints(**{bound: float("nan")})


class TestOperators:
    def test_mutate_returns_valid_config(self, tiny_space):
        rng = np.random.default_rng(0)
        config = tiny_space.sample(rng)
        for _ in range(30):
            config = mutate(config, tiny_space, rng)
            np.testing.assert_allclose(config.partition.values.sum(axis=0), 1.0, atol=1e-9)
            assert len(set(config.unit_names)) == config.num_stages
            for name, index in zip(config.unit_names, config.dvfs_indices):
                assert 0 <= index < tiny_space.platform.unit(name).num_dvfs_points()

    def test_mutate_changes_something_eventually(self, tiny_space):
        rng = np.random.default_rng(1)
        config = tiny_space.sample(rng)
        changed = False
        for _ in range(20):
            mutated = mutate(config, tiny_space, rng)
            if (
                not np.allclose(mutated.partition.values, config.partition.values)
                or mutated.unit_names != config.unit_names
                or mutated.dvfs_indices != config.dvfs_indices
                or not np.array_equal(mutated.indicator.values, config.indicator.values)
            ):
                changed = True
                break
        assert changed

    def test_mutate_respects_reuse_cap(self, tiny_network, platform):
        from repro.search.space import SearchSpace

        space = SearchSpace(tiny_network, platform, max_reuse_fraction=0.3)
        rng = np.random.default_rng(0)
        config = space.sample(rng)
        for _ in range(40):
            config = mutate(config, space, rng)
            assert config.reuse_fraction() <= 0.3 + 1e-9

    def test_crossover_mixes_parents(self, tiny_space):
        rng = np.random.default_rng(2)
        parent_a = tiny_space.sample(rng)
        parent_b = tiny_space.sample(rng)
        child = crossover(parent_a, parent_b, tiny_space, rng)
        np.testing.assert_allclose(child.partition.values.sum(axis=0), 1.0, atol=1e-9)
        assert child.unit_names in (parent_a.unit_names, parent_b.unit_names)
        # Every column comes from one of the two parents.
        for layer in range(tiny_space.num_layers):
            column = child.partition.values[:, layer]
            assert np.allclose(column, parent_a.partition.values[:, layer]) or np.allclose(
                column, parent_b.partition.values[:, layer]
            )


class TestPareto:
    def test_dominates_is_strict(self, evaluated_samples):
        sample = evaluated_samples[0]
        assert not dominates(sample, sample)

    def test_front_members_not_dominated(self, evaluated_samples):
        front = pareto_front(evaluated_samples)
        assert front
        for member in front:
            assert not any(dominates(other, member) for other in evaluated_samples)

    def test_dominated_points_excluded(self, evaluated_samples):
        front = pareto_front(evaluated_samples)
        for item in evaluated_samples:
            if item not in front:
                assert any(dominates(other, item) for other in evaluated_samples)

    def test_selection_returns_front_members(self, evaluated_samples):
        front = pareto_front(evaluated_samples)
        energy_pick = select_energy_oriented(front)
        latency_pick = select_latency_oriented(front)
        assert energy_pick in front
        assert latency_pick in front
        assert energy_pick.energy_mj <= latency_pick.energy_mj + 1e-9
        assert latency_pick.latency_ms <= energy_pick.latency_ms + 1e-9

    def test_accuracy_gate_falls_back_when_impossible(self, evaluated_samples):
        pick = select_energy_oriented(evaluated_samples, max_accuracy_drop=-1.0)
        assert pick is not None

    def test_empty_selection_rejected(self):
        with pytest.raises(SearchError):
            select_energy_oriented([])
        with pytest.raises(SearchError):
            select_latency_oriented([])
