"""The first-class objective layer: ObjectiveSet threading and compatibility.

The guarantees under test:

* the default :class:`~repro.search.objectives.ObjectiveSet` reproduces the
  legacy hard-wired (latency, energy, -accuracy) behaviour of
  ``pareto_front`` / ``non_dominated_sort`` / ``hypervolume`` *exactly*
  (hypothesis properties against local reimplementations of the pre-layer
  algorithms), and every existing golden file is byte-unchanged;
* NaN objective values are mapped to ``+inf`` at the ObjectiveSet boundary
  and by :func:`~repro.search.objectives.nan_guarded`, so degenerate
  extractors can no longer shuffle ``sorted(pool, key=objective)``;
* a custom ObjectiveSet threads through the NSGA-II strategy, the engine
  and campaigns — with serial, cell-parallel and checkpoint-resumed
  campaigns byte-identical, and a *changed* set
  re-running exactly the affected cells;
* :func:`~repro.search.objectives.serving_objectives` and
  :func:`~repro.search.pareto.select_serving_oriented` expose the M/D/1
  serving-aware fourth objective.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import run_campaign
from repro.campaign import runner as runner_module
from repro.core.framework import MapAndConquer
from repro.core.report import campaign_summary, objective_table, serving_table
from repro.engine.engine import SearchEngine
from repro.engine.nsga import crowding_distance, non_dominated_sort, objective_matrix
from repro.engine.strategies import RandomStrategy
from repro.errors import ConfigurationError, SearchError
from repro.search.objectives import (
    DEFAULT_OBJECTIVES,
    ExpectedWaitExtractor,
    ObjectiveSet,
    ObjectiveSpec,
    as_objective_set,
    default_objective_set,
    measured_serving_objectives,
    nan_guarded,
    serving_objectives,
)
from repro.search.pareto import hypervolume, pareto_front, select_serving_oriented
from repro.serving.families import OnOffBurstFamily, SteadyPoissonFamily, WorkloadFamily

# -- legacy reimplementations (the pre-layer hard-wired behaviour) ------------


def _legacy_key(item):
    return (item.latency_ms, item.energy_mj, -item.accuracy)


def _legacy_dominates(first, second):
    a, b = _legacy_key(first), _legacy_key(second)
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _legacy_front(evaluated):
    return [
        candidate
        for candidate in evaluated
        if not any(
            _legacy_dominates(other, candidate)
            for other in evaluated
            if other is not candidate
        )
    ]


def _legacy_hv_recursive(points, reference):
    if not points:
        return 0.0
    if len(reference) == 1:
        return reference[0] - min(point[0] for point in points)
    ordered = sorted(points)
    total = 0.0
    for index, point in enumerate(ordered):
        upper = ordered[index + 1][0] if index + 1 < len(ordered) else reference[0]
        width = upper - point[0]
        if width <= 0.0:
            continue
        slab = [tuple(other[1:]) for other in ordered[: index + 1]]
        total += width * _legacy_hv_recursive(slab, reference[1:])
    return total


def _legacy_hypervolume(evaluated, reference):
    reference = tuple(float(v) for v in reference)
    points = set()
    for item in evaluated:
        values = tuple(float(v) for v in _legacy_key(item))
        if all(value < bound for value, bound in zip(values, reference)):
            points.add(values)
    return _legacy_hv_recursive(sorted(points), reference)


def _point(latency, energy, accuracy):
    return SimpleNamespace(latency_ms=latency, energy_mj=energy, accuracy=accuracy)


_metric = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
_accuracy = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_points = st.lists(st.tuples(_metric, _metric, _accuracy), min_size=1, max_size=10)


class TestDefaultSetMatchesLegacy:
    @settings(max_examples=60, deadline=None)
    @given(_points)
    def test_values_are_the_legacy_key_triple(self, raw):
        for latency, energy, accuracy in raw:
            item = _point(latency, energy, accuracy)
            assert DEFAULT_OBJECTIVES.values(item) == _legacy_key(item)

    @settings(max_examples=60, deadline=None)
    @given(_points)
    def test_pareto_front_identical(self, raw):
        items = [_point(*values) for values in raw]
        assert pareto_front(items) == _legacy_front(items)
        assert pareto_front(items, DEFAULT_OBJECTIVES) == _legacy_front(items)

    @settings(max_examples=60, deadline=None)
    @given(_points)
    def test_non_dominated_sort_identical(self, raw):
        items = [_point(*values) for values in raw]
        legacy_matrix = np.array([_legacy_key(item) for item in items], dtype=float)
        matrix = objective_matrix(items)
        assert np.array_equal(matrix, legacy_matrix)
        assert non_dominated_sort(matrix) == non_dominated_sort(legacy_matrix)

    @settings(max_examples=40, deadline=None)
    @given(_points)
    def test_hypervolume_identical(self, raw):
        items = [_point(*values) for values in raw]
        worst = [
            max(key) + 0.5
            for key in zip(*(_legacy_key(item) for item in items))
        ]
        assert hypervolume(items, worst) == _legacy_hypervolume(items, worst)

    def test_default_set_is_stable(self):
        assert default_objective_set() == DEFAULT_OBJECTIVES
        assert default_objective_set().fingerprint() == DEFAULT_OBJECTIVES.fingerprint()
        assert DEFAULT_OBJECTIVES.names == ("latency_ms", "energy_mj", "accuracy")


#: Any change to these bytes means the default objective path drifted; the
#: layer must be invisible until a custom set is passed.
GOLDEN_SHA256 = {
    "campaign_summary_golden.txt": (
        "430f4bfe0da0c5f6bc94a692bc193beb3114e4bdbcafd99b5eaa1f1b2a0295bc"
    ),
    "fleet_campaign_golden.txt": (
        "9637982bd64e9735f118899400015a341ad6ea3a6c535e5477a673c44a3120d0"
    ),
    "serving_campaign_golden.txt": (
        "f23fc721d78a5a9e2251fd06213fe99021d03d47c88a1b72053a5ecb584410cc"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_files_byte_unchanged(name):
    data = (Path(__file__).parent / "data" / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]


class TestNanHandling:
    def test_nan_guarded_maps_nan_to_inf(self):
        guarded = nan_guarded(lambda item: float("nan"))
        assert guarded(object()) == float("inf")
        passthrough = nan_guarded(lambda item: 2.5)
        assert passthrough(object()) == 2.5

    def test_spec_value_maps_nan_to_inf(self):
        spec = ObjectiveSpec("broken", lambda item: float("nan"), "min")
        assert spec.value(object()) == float("inf")
        maximised = ObjectiveSpec("broken_max", lambda item: float("nan"), "max")
        assert maximised.value(object()) == float("inf")

    def test_nan_values_cannot_shadow_finite_candidates(self):
        # NaN compares false against everything, so a plain min()/sorted()
        # over a NaN-scored pool could crown the degenerate candidate; through
        # the set boundary it always loses to any finite one.
        bad = _point(float("nan"), 1.0, 0.5)
        good = _point(1.0, 1.0, 0.5)
        front = pareto_front([bad, good])
        assert good in front

    def test_engine_ranks_nan_scores_last(self, tiny_space, tiny_config_evaluator):
        # A degenerate objective undefined for part of the pool (every
        # GPU-first mapping) must never be crowned best.  NaN comparisons are
        # all false, so a plain min() would keep the first candidate, which
        # here scores NaN; nan_guarded ranks those candidates last.
        def gpu_broken(item):
            return float("nan") if item.config.unit_names[0] == "gpu" else item.latency_ms

        strategy = RandomStrategy(tiny_space, population_size=12, generations=1, seed=4)
        result = SearchEngine(evaluator=tiny_config_evaluator, objective=gpu_broken).run(
            strategy
        )
        scores = [gpu_broken(item) for item in result.history]
        assert math.isnan(scores[0])
        assert any(math.isfinite(score) for score in scores)
        assert math.isfinite(gpu_broken(result.best))

    def test_crowding_distance_survives_inf_columns(self):
        values = np.array(
            [
                [1.0, float("inf")],
                [2.0, 5.0],
                [3.0, 4.0],
                [4.0, float("inf")],
            ]
        )
        distances = crowding_distance(values)
        assert not np.isnan(distances).any()


class TestSpecValidation:
    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            ObjectiveSpec("x", lambda item: 0.0, "sideways")

    def test_empty_and_duplicate_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            ObjectiveSet(())
        spec = ObjectiveSpec("x", lambda item: 0.0, "min")
        with pytest.raises(ConfigurationError):
            ObjectiveSet((spec, spec))

    def test_as_objective_set_accepts_legacy_key_sequences(self):
        keys = (lambda item: item.latency_ms, lambda item: -item.accuracy)
        converted = as_objective_set(keys)
        item = _point(3.0, 1.0, 0.25)
        assert converted.values(item) == (3.0, -0.25)

    def test_framework_rejects_non_objective_set(self, tiny_network, platform):
        framework = MapAndConquer(tiny_network, platform, seed=0)
        with pytest.raises(ConfigurationError):
            framework.search(generations=1, population_size=4, objectives=["latency"])


class TestServingObjectives:
    def test_family_peak_rate_builds_the_fourth_objective(self):
        family = OnOffBurstFamily(burst_rps=150.0)
        objectives = serving_objectives(family)
        assert objectives.names == (
            "latency_ms",
            "energy_mj",
            "accuracy",
            "expected_wait_ms",
        )
        wait_spec = objectives.specs[-1]
        assert isinstance(wait_spec.extractor, ExpectedWaitExtractor)
        assert wait_spec.extractor.rate_rps == 150.0

    def test_base_family_has_no_peak_rate(self):
        with pytest.raises(ConfigurationError):
            serving_objectives(WorkloadFamily())
        with pytest.raises(ConfigurationError):
            serving_objectives()

    def test_serving_sets_pickle(self, platform, tiny_config_evaluator, tiny_space):
        """Proxy and measured sets round-trip, before and after interrogation.

        ``run_campaign(objectives=<measured set>, cell_workers=2)`` pickles a
        ready measured set into cell tasks; its per-candidate replay memo must
        not travel (a clone starts empty) nor enter equality or fingerprints.
        """
        evaluated = tiny_config_evaluator.evaluate(tiny_space.sample(seed=0))
        measured = measured_serving_objectives(
            SteadyPoissonFamily(rate_rps=30.0), platform, duration_ms=400.0, members=1
        )
        for objectives in (serving_objectives(target_rps=80.0), measured):
            for interrogated in (False, True):
                if interrogated:
                    objectives.values(evaluated)
                clone = pickle.loads(pickle.dumps(objectives))
                assert clone == objectives
                assert clone.fingerprint() == objectives.fingerprint()
        memo = measured.specs[-1].extractor._replays
        clone_memo = pickle.loads(pickle.dumps(measured)).specs[-1].extractor._replays
        assert len(memo) == 1 and len(clone_memo) == 0

    def test_expected_wait_saturates_to_inf(self, tiny_config_evaluator, tiny_space):
        evaluated = tiny_config_evaluator.evaluate(tiny_space.sample(seed=0))
        assert ExpectedWaitExtractor(rate_rps=1e9)(evaluated) == float("inf")
        gentle = ExpectedWaitExtractor(rate_rps=1e-3)(evaluated)
        assert math.isfinite(gentle) and gentle >= 0.0

    def test_select_serving_oriented_validation(self, tiny_config_evaluator, tiny_space):
        evaluated = [
            tiny_config_evaluator.evaluate(tiny_space.sample(seed=s)) for s in range(4)
        ]
        with pytest.raises(SearchError):
            select_serving_oriented([])
        with pytest.raises(SearchError):
            select_serving_oriented(evaluated)
        with pytest.raises(SearchError):
            select_serving_oriented(evaluated, rate_rps=0.0)
        pick = select_serving_oriented(evaluated, rate_rps=20.0)
        assert pick in evaluated


class TestEngineThreading:
    def test_nsga2_with_custom_set_front_is_non_dominated(
        self, tiny_network, platform
    ):
        framework = MapAndConquer(tiny_network, platform, seed=0)
        objectives = serving_objectives(target_rps=60.0)
        result = framework.search(
            generations=2, population_size=6, strategy="nsga2", objectives=objectives
        )
        assert result.pareto
        assert pareto_front(list(result.pareto), objectives) == list(result.pareto)

    def test_strategy_instance_conflicts_with_objectives(self, tiny_network, platform):
        from repro.engine.nsga import NSGA2Strategy

        framework = MapAndConquer(tiny_network, platform, seed=0)
        strategy = NSGA2Strategy(
            space=framework.space, population_size=4, generations=1
        )
        with pytest.raises(ConfigurationError, match="not a NSGA2Strategy instance"):
            framework.search(
                strategy=strategy, objectives=serving_objectives(target_rps=60.0)
            )


GRID = ("jetson-agx-xavier", "mobile-big-little")
BUDGET = dict(generations=2, population_size=6)
SEED = 7
SERVING_SET = serving_objectives(target_rps=80.0)


class TestCampaignThreading:
    @pytest.fixture(scope="class")
    def serial_summary(self, tiny_network):
        return campaign_summary(
            run_campaign(
                tiny_network, GRID, seed=SEED, objectives=SERVING_SET, **BUDGET
            )
        )

    def test_cell_parallel_matches_serial(self, tiny_network, serial_summary):
        parallel = run_campaign(
            tiny_network,
            GRID,
            seed=SEED,
            objectives=SERVING_SET,
            cell_workers=2,
            **BUDGET,
        )
        assert campaign_summary(parallel) == serial_summary

    def test_checkpoint_resume_matches_serial(
        self, tiny_network, serial_summary, tmp_path, monkeypatch
    ):
        run_campaign(
            tiny_network,
            GRID,
            seed=SEED,
            objectives=SERVING_SET,
            checkpoint_dir=tmp_path,
            **BUDGET,
        )

        def forbidden(task, cache, serving_cache):
            raise AssertionError(f"cell {task.platform.name} was re-searched")

        monkeypatch.setattr(runner_module, "_run_cell", forbidden)
        resumed = run_campaign(
            tiny_network,
            GRID,
            seed=SEED,
            objectives=SERVING_SET,
            checkpoint_dir=tmp_path,
            **BUDGET,
        )
        assert campaign_summary(resumed) == serial_summary

    def test_changed_objective_set_refreshes_every_cell(
        self, tiny_network, tmp_path, monkeypatch
    ):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        searched = []
        original = runner_module._run_cell

        def counting(task, cache, serving_cache):
            searched.append(task.platform.name)
            return original(task, cache, serving_cache)

        monkeypatch.setattr(runner_module, "_run_cell", counting)
        # A different objective set invalidates (refreshes) every cell ...
        run_campaign(
            tiny_network,
            GRID,
            seed=SEED,
            objectives=SERVING_SET,
            checkpoint_dir=tmp_path,
            **BUDGET,
        )
        assert len(searched) == len(GRID)
        # ... and the refreshed checkpoints are keyed to the new set, so the
        # same set restores without re-searching.
        searched.clear()
        run_campaign(
            tiny_network,
            GRID,
            seed=SEED,
            objectives=SERVING_SET,
            checkpoint_dir=tmp_path,
            **BUDGET,
        )
        assert searched == []

    def test_campaign_rejects_non_objective_set(self, tiny_network):
        with pytest.raises(ConfigurationError):
            run_campaign(
                tiny_network, GRID, seed=SEED, objectives=["latency"], **BUDGET
            )


class TestReporting:
    def test_objective_table_renders_named_columns(
        self, tiny_config_evaluator, tiny_space
    ):
        evaluated = [
            tiny_config_evaluator.evaluate(tiny_space.sample(seed=s)) for s in range(3)
        ]
        default_text = objective_table(evaluated)
        assert "latency_ms" in default_text and "accuracy" in default_text
        custom_text = objective_table(evaluated, serving_objectives(target_rps=50.0))
        assert "expected_wait_ms" in custom_text

    def test_serving_table_surfaces_the_serving_pick(
        self, tiny_config_evaluator, tiny_space
    ):
        evaluated = [
            tiny_config_evaluator.evaluate(tiny_space.sample(seed=s)) for s in range(4)
        ]
        rows = [{"policy": "static", "p99_ms": 5.0}]
        plain = serving_table(rows)
        assert "serving-oriented pick" not in plain
        annotated = serving_table(
            rows, front=evaluated, family=OnOffBurstFamily(burst_rps=40.0)
        )
        assert annotated.startswith(plain)
        assert "serving-oriented pick @ 40 rps" in annotated
