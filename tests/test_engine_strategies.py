"""Tests for ask/tell strategies, NSGA-II front machinery and engine wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.engine import SearchEngine
from repro.engine.nsga import (
    NSGA2Strategy,
    crowding_distance,
    non_dominated_sort,
    objective_matrix,
)
from repro.engine.strategies import EvolutionaryStrategy, RandomStrategy
from repro.errors import ConfigurationError, SearchError
from repro.search.objectives import paper_objective, serving_objectives
from repro.search.pareto import pareto_front


class TestNonDominatedSort:
    def test_first_front_matches_pareto_front(self, tiny_config_evaluator, tiny_space):
        evaluated = [tiny_config_evaluator.evaluate(tiny_space.sample(i)) for i in range(12)]
        # Deduplicate by content: pareto_front compares object identities.
        unique = list({tiny_config_evaluator.content_digest(e.config): e for e in evaluated}.values())
        fronts = non_dominated_sort(objective_matrix(unique))
        engine_front = {id(unique[i]) for i in fronts[0]}
        seed_front = {id(item) for item in pareto_front(unique)}
        assert engine_front == seed_front

    def test_fronts_partition_everything(self):
        values = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fronts = non_dominated_sort(values)
        flattened = sorted(i for front in fronts for i in front)
        assert flattened == [0, 1, 2, 3]
        assert fronts[0] == [0, 1]
        assert fronts[1] == [2]
        assert fronts[2] == [3]

    def test_single_candidate(self):
        assert non_dominated_sort(np.array([[1.0, 1.0]])) == [[0]]


class TestCrowdingDistance:
    def test_boundaries_are_infinite(self):
        values = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(values)
        assert np.isinf(distance[0])
        assert np.isinf(distance[3])
        assert np.isfinite(distance[1])
        assert np.isfinite(distance[2])

    def test_tiny_fronts_all_infinite(self):
        assert np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))).all()

    def test_no_candidates_give_one_column_per_objective(self):
        for objectives, width in ((None, 3), (serving_objectives(target_rps=10.0), 4)):
            values = objective_matrix([], objectives)
            assert values.shape == (0, width)
            assert crowding_distance(values).shape == (0,)
            assert non_dominated_sort(values) == []

    def test_degenerate_objective_is_ignored(self):
        values = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        distance = crowding_distance(values)
        assert np.isfinite(distance[1])


class TestNSGA2Strategy:
    def test_search_produces_valid_result(self, tiny_config_evaluator, tiny_space):
        strategy = NSGA2Strategy(space=tiny_space, population_size=8, generations=4, seed=0)
        result = SearchEngine(evaluator=tiny_config_evaluator).run(strategy)
        assert len(result.generations) == 4
        assert 0 < result.num_evaluations <= 4 * 8
        assert result.pareto
        assert result.best in result.history
        # The result's front is internally consistent with the seed's Pareto
        # definition over the deduplicated history.
        recomputed = pareto_front(list(result.feasible or result.history))
        assert {id(e) for e in result.pareto} == {id(e) for e in recomputed}

    def test_deterministic_for_seed(self, tiny_config_evaluator, tiny_space):
        def run():
            strategy = NSGA2Strategy(space=tiny_space, population_size=8, generations=3, seed=5)
            return SearchEngine(evaluator=tiny_config_evaluator).run(strategy)

        first, second = run(), run()
        assert paper_objective(first.best) == paper_objective(second.best)
        assert first.num_evaluations == second.num_evaluations

    def test_invalid_hyperparameters_rejected(self, tiny_space):
        with pytest.raises(SearchError):
            NSGA2Strategy(space=tiny_space, population_size=1)
        with pytest.raises(SearchError):
            NSGA2Strategy(space=tiny_space, generations=0)
        with pytest.raises(SearchError):
            NSGA2Strategy(space=tiny_space, mutation_rate=1.5)


class TestRandomStrategy:
    def test_budget_and_result(self, tiny_config_evaluator, tiny_space):
        strategy = RandomStrategy(space=tiny_space, population_size=10, generations=3, seed=0)
        result = SearchEngine(evaluator=tiny_config_evaluator).run(strategy)
        assert len(result.generations) == 3
        assert result.num_evaluations <= 30
        assert result.best in result.history

    def test_invalid_budget_rejected(self, tiny_space):
        with pytest.raises(SearchError):
            RandomStrategy(space=tiny_space, population_size=1)


class TestEvolutionaryStrategyEquivalence:
    def test_cache_hits_recorded_for_elites(self, tiny_config_evaluator, tiny_space):
        strategy = EvolutionaryStrategy(
            space=tiny_space, population_size=10, generations=5, seed=0
        )
        result = SearchEngine(evaluator=tiny_config_evaluator).run(strategy)
        assert result.generations[0].cache_hit_rate == 0.0
        # Elites carried over are cache hits from generation 1 onwards.
        assert any(s.cache_hit_rate > 0.0 for s in result.generations[1:])
        assert all(s.wall_clock_s >= 0.0 for s in result.generations)


class TestFrameworkStrategyWiring:
    @pytest.fixture()
    def framework(self, tiny_network, platform):
        from repro.core.framework import MapAndConquer

        return MapAndConquer(tiny_network, platform, seed=0)

    def test_named_strategies(self, framework):
        for name in ("evolutionary", "nsga2", "random"):
            result = framework.search(
                generations=2, population_size=6, seed=0, strategy=name
            )
            assert result.num_evaluations > 0

    def test_unknown_strategy_rejected(self, framework):
        with pytest.raises(ConfigurationError, match="unknown strategy 'annealing'"):
            framework.search(generations=2, population_size=6, strategy="annealing")

    def test_strategy_instance_is_rejected(self, framework):
        """search() takes names only; a configured strategy runs on the engine."""
        strategy = RandomStrategy(space=framework.space, population_size=6, generations=2, seed=0)
        for loop in ({}, {"generations": 5}):
            with pytest.raises(ConfigurationError, match="not a RandomStrategy instance"):
                framework.search(strategy=strategy, **loop)
        result = SearchEngine(evaluator=framework.evaluator).run(strategy)
        assert len(result.generations) == 2

    def test_search_is_keyword_only(self, framework):
        with pytest.raises(TypeError):
            framework.search(2, 6)

    def test_strategy_instance_objective_drives_result_ranking(self, framework):
        """A configured strategy runs on SearchEngine, which ranks the result
        with the objective it is given."""
        from repro.search.objectives import energy_oriented_objective

        strategy = EvolutionaryStrategy(
            space=framework.space,
            objective=energy_oriented_objective,
            population_size=8,
            generations=3,
            seed=0,
        )
        result = SearchEngine(
            evaluator=framework.evaluator, objective=energy_oriented_objective
        ).run(strategy)
        pool = result.feasible if result.feasible else result.history
        assert energy_oriented_objective(result.best) == pytest.approx(
            min(energy_oriented_objective(item) for item in pool)
        )

    def test_cache_accepts_path_objects(self, framework, tmp_path):
        result = framework.search(
            generations=2, population_size=6, seed=0, cache=tmp_path / "cache.jsonl"
        )
        assert (tmp_path / "cache.jsonl").exists()
        assert result.num_evaluations > 0


class TestInitialPopulation:
    """Warm-start seeding through every strategy (campaign transfer path)."""

    @pytest.fixture()
    def seeds(self, tiny_space):
        return [tiny_space.sample(i) for i in range(3)]

    @pytest.mark.parametrize(
        "strategy_cls", [EvolutionaryStrategy, RandomStrategy, NSGA2Strategy]
    )
    def test_seeds_lead_the_first_generation(self, tiny_space, seeds, strategy_cls):
        strategy = strategy_cls(
            space=tiny_space,
            population_size=6,
            generations=2,
            seed=0,
            initial_population=seeds,
        )
        first = strategy.ask()
        assert len(first) == 6
        assert first[: len(seeds)] == seeds

    @staticmethod
    def _same_config(first, second) -> bool:
        return (
            first.unit_names == second.unit_names
            and first.dvfs_indices == second.dvfs_indices
            and np.array_equal(first.partition.values, second.partition.values)
            and np.array_equal(first.indicator.values, second.indicator.values)
        )

    @pytest.mark.parametrize(
        "strategy_cls", [EvolutionaryStrategy, RandomStrategy, NSGA2Strategy]
    )
    def test_none_keeps_cold_start_bit_for_bit(self, tiny_space, strategy_cls):
        cold = strategy_cls(space=tiny_space, population_size=6, generations=1, seed=5)
        explicit = strategy_cls(
            space=tiny_space,
            population_size=6,
            generations=1,
            seed=5,
            initial_population=None,
        )
        cold_population = cold.ask()
        explicit_population = explicit.ask()
        assert len(cold_population) == len(explicit_population) == 6
        for ours, theirs in zip(cold_population, explicit_population):
            assert self._same_config(ours, theirs)

    def test_full_seed_population_samples_nothing(self, tiny_space):
        seeds = [tiny_space.sample(i) for i in range(4)]
        strategy = RandomStrategy(
            space=tiny_space,
            population_size=4,
            generations=1,
            seed=0,
            initial_population=seeds,
        )
        assert strategy.ask() == seeds

    def test_too_many_seeds_rejected(self, tiny_space, seeds):
        with pytest.raises(SearchError, match="initial_population"):
            EvolutionaryStrategy(
                space=tiny_space,
                population_size=2,
                generations=1,
                initial_population=seeds,
            )

    def test_non_config_seeds_rejected(self, tiny_space):
        with pytest.raises(SearchError, match="MappingConfig"):
            RandomStrategy(
                space=tiny_space,
                population_size=4,
                generations=1,
                initial_population=["not a config"],
            )

    def test_facade_threads_seeds_and_guards_instances(self, tiny_network, platform):
        from repro.core.framework import MapAndConquer

        framework = MapAndConquer(tiny_network, platform, seed=0)
        seeds = [framework.space.sample(i) for i in range(2)]
        result = framework.search(
            generations=2, population_size=6, seed=0, initial_population=seeds
        )
        digests = {
            framework.evaluator.content_digest(item.config) for item in result.history
        }
        for seed_config in seeds:
            assert framework.evaluator.content_digest(seed_config) in digests
        strategy = RandomStrategy(space=framework.space, population_size=6, generations=1)
        with pytest.raises(ConfigurationError, match="SearchEngine"):
            framework.search(strategy=strategy, initial_population=seeds)


class TestSeedRegression:
    """Pin the default search trajectory to the seed repository's numbers.

    These values were captured from the pre-engine implementation (the
    evolutionary loop evaluating inline); the engine-based default path must
    keep reproducing them bit for bit.
    """

    def test_visformer_seed0_trajectory(self, visformer_net, platform):
        from repro.core.framework import MapAndConquer

        framework = MapAndConquer(visformer_net, platform, seed=0)
        result = framework.search(generations=8, population_size=12, seed=0)
        assert paper_objective(result.best) == pytest.approx(4718194952.60551, rel=1e-9)
        assert result.best.config.describe() == (
            "3 stages [S1->gpu@3, S2->dla0@3, S3->dla1@1], reuse=61%"
        )
        assert len(result.pareto) == 25
        assert result.num_evaluations == 69
        assert result.best.latency_ms == pytest.approx(10.946672717022466, rel=1e-12)
        assert result.generations[0].best_objective == pytest.approx(
            8225183940.229785, rel=1e-9
        )
