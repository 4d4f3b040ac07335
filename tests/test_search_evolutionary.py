"""Unit tests for the evolutionary loop, the random baseline and baselines."""

from __future__ import annotations

import pytest

from repro.engine.engine import SearchEngine
from repro.engine.strategies import EvolutionaryStrategy, RandomStrategy
from repro.errors import SearchError
from repro.search.baselines import single_unit_baseline, static_partitioned_baseline
from repro.search.constraints import SearchConstraints
from repro.search.objectives import energy_oriented_objective, paper_objective


def evolve(space, evaluator, objective=paper_objective, constraints=None, **budget):
    """One evolutionary search through the engine, wired as ``search()`` does."""
    strategy = EvolutionaryStrategy(
        space=space, objective=objective, constraints=constraints, **budget
    )
    engine = SearchEngine(evaluator=evaluator, constraints=constraints, objective=objective)
    return engine.run(strategy)


@pytest.fixture(scope="module")
def tiny_search_result(request):
    """A small but complete evolutionary run on the toy network."""
    # Build module-scoped fixtures manually to avoid function-scope clashes.
    from repro.nn.layers import AttentionLayer, Conv2dLayer, FeedForwardLayer, LinearLayer
    from repro.nn.graph import NetworkGraph
    from repro.search.evaluation import ConfigEvaluator
    from repro.search.space import SearchSpace
    from repro.soc.platform import jetson_agx_xavier

    layers = (
        Conv2dLayer(
            name="conv1", width=16, in_width=3, kernel_size=3, stride=1,
            in_spatial=(8, 8), out_spatial=(8, 8),
        ),
        AttentionLayer(name="attn", width=32, in_width=16, tokens=16, num_heads=4),
        FeedForwardLayer(name="mlp", width=32, in_width=32, tokens=16, expansion=2.0),
        LinearLayer(name="head", width=10, in_width=32, tokens=1),
    )
    network = NetworkGraph(
        name="tiny", layers=layers, input_shape=(3, 8, 8), num_classes=10,
        base_accuracy=0.9, family="vit",
    )
    platform = jetson_agx_xavier()
    evaluator = ConfigEvaluator(network=network, platform=platform, seed=0)
    space = SearchSpace(network=network, platform=platform)
    result = evolve(space, evaluator, population_size=12, generations=6, seed=0)
    return result, space, evaluator, network, platform


class TestEvolutionaryRun:
    def test_result_structure(self, tiny_search_result):
        result, _, _, _, _ = tiny_search_result
        assert result.num_evaluations > 0
        assert len(result.generations) == 6
        assert result.pareto
        assert result.best in result.history

    def test_best_is_minimal_feasible_objective(self, tiny_search_result):
        result, _, _, _, _ = tiny_search_result
        pool = result.feasible if result.feasible else result.history
        assert paper_objective(result.best) == pytest.approx(
            min(paper_objective(item) for item in pool)
        )

    def test_best_objective_never_degrades(self, tiny_search_result):
        result, _, _, _, _ = tiny_search_result
        best_values = [stat.best_objective for stat in result.generations]
        # Elitism means the running best is non-increasing over generations
        # up to re-evaluation noise (there is none: the pipeline is
        # deterministic and cached).
        running = [min(best_values[: i + 1]) for i in range(len(best_values))]
        assert running == sorted(running, reverse=True)

    def test_pareto_members_are_feasible_when_possible(self, tiny_search_result):
        result, space, _, _, platform = tiny_search_result
        gate = SearchConstraints()
        for member in result.pareto:
            assert gate.is_feasible(member, platform=platform)

    def test_constrained_search_respects_reuse_cap(self, tiny_search_result):
        _, space, evaluator, _, _ = tiny_search_result
        constrained = evolve(
            space,
            evaluator,
            constraints=SearchConstraints(max_reuse_fraction=0.5),
            population_size=10,
            generations=4,
            seed=1,
        )
        assert all(item.reuse_fraction <= 0.5 + 1e-9 for item in constrained.feasible)
        assert all(item.reuse_fraction <= 0.5 + 1e-9 for item in constrained.pareto)

    def test_invalid_hyperparameters_rejected(self, tiny_search_result):
        _, space, _, _, _ = tiny_search_result
        with pytest.raises(SearchError):
            EvolutionaryStrategy(space, population_size=1)
        with pytest.raises(SearchError):
            EvolutionaryStrategy(space, generations=0)
        with pytest.raises(SearchError):
            EvolutionaryStrategy(space, elite_fraction=0.0)
        with pytest.raises(SearchError):
            EvolutionaryStrategy(space, mutation_rate=1.5)
        with pytest.raises(SearchError):
            EvolutionaryStrategy(space, fresh_fraction=1.0)

    def test_alternative_objective_changes_best(self, tiny_search_result):
        _, space, evaluator, _, _ = tiny_search_result
        energy_first = evolve(
            space,
            evaluator,
            objective=energy_oriented_objective,
            population_size=10,
            generations=4,
            seed=2,
        )
        assert energy_first.best.energy_mj <= min(
            item.energy_mj for item in energy_first.feasible
        ) * 1.0 + 1e-9


class TestBaselines:
    def test_single_unit_baseline_reports_base_accuracy(self, tiny_search_result):
        _, _, _, network, platform = tiny_search_result
        gpu = single_unit_baseline(network, platform, "gpu")
        assert gpu.accuracy == pytest.approx(network.base_accuracy, abs=1e-6)
        assert gpu.reuse_fraction == 0.0
        assert gpu.config.num_stages == 1

    def test_gpu_faster_dla_cheaper(self, tiny_search_result):
        _, _, _, network, platform = tiny_search_result
        gpu = single_unit_baseline(network, platform, "gpu")
        dla = single_unit_baseline(network, platform, "dla0")
        assert gpu.latency_ms < dla.latency_ms
        assert dla.energy_mj < gpu.energy_mj

    def test_single_unit_respects_dvfs_index(self, tiny_search_result):
        _, _, _, network, platform = tiny_search_result
        fast = single_unit_baseline(network, platform, "gpu")
        slow = single_unit_baseline(network, platform, "gpu", dvfs_index=0)
        assert slow.latency_ms > fast.latency_ms

    def test_static_baseline_structure(self, tiny_search_result):
        _, _, _, network, platform = tiny_search_result
        static = static_partitioned_baseline(network, platform)
        assert static.config.num_stages == platform.num_units
        assert static.reuse_fraction == pytest.approx(1.0)
        assert static.accuracy == pytest.approx(network.base_accuracy, abs=0.02)

    def test_static_baseline_faster_than_dla_only(self, tiny_search_result):
        # On the toy network the per-layer launch overheads dominate, so the
        # energy comparison against GPU-only is only meaningful at Visformer
        # scale (covered by the integration tests); latency must still win.
        _, _, _, network, platform = tiny_search_result
        dla = single_unit_baseline(network, platform, "dla0")
        static = static_partitioned_baseline(network, platform)
        assert static.worst_case_latency_ms < dla.latency_ms

    def test_static_baseline_rejects_duplicate_units(self, tiny_search_result):
        _, _, _, network, platform = tiny_search_result
        with pytest.raises(SearchError):
            static_partitioned_baseline(network, platform, unit_names=("gpu", "gpu"))

    def test_evolutionary_beats_or_matches_random(self, tiny_search_result):
        result, space, evaluator, _, _ = tiny_search_result
        strategy = RandomStrategy(space, population_size=12, generations=6, seed=9)
        random_best = SearchEngine(evaluator=evaluator).run(strategy).best
        assert paper_objective(result.best) <= paper_objective(random_best) * 1.05
