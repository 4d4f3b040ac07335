"""Pareto assembly and the build at the cost of their reads, against the parent code.

``pareto_front`` keeps the pairwise interrogation it always made: for each
candidate, every other candidate in input order, ``values(other)`` then
``values(candidate)``, until one dominates.  Only the per-pair overhead went:
the dominance test is inlined and ``ObjectiveSet.values`` calls each
extractor directly.  Under measured objectives every read is a counted
serving-cache lookup, so the reads themselves, their order and their number
are part of the contract.

The ``parent_*`` functions below are verbatim copies of the code this
replaced: ``dominates``/``pareto_front``, ``ObjectiveSet.values`` (as
``ParentObjectiveSet``), NSGA-II's numpy row test and sort, and the
scheme-level ``stored_feature_bytes`` loop.  Fronts are compared by
membership (``is``) and order, reads by value and ``repr``, and the full
sequence of extractor calls is recorded by a counting extractor whose values
drift with every call, so a different read order would also show as a
different front.

The split table (``ConfigEvaluator``'s per-evaluator memo of
``_largest_remainder``) is pinned by: every hit equals a fresh split,
``-0.0`` included; one table shared by several networks does not alias; and a
search gives the same results with and without it.
"""

from __future__ import annotations

import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.search.evaluation as evaluation_module
from repro.core.framework import MapAndConquer
from repro.engine.nsga import non_dominated_sort
from repro.nn.layers import Layer
from repro.nn.models import resnet20, vgg19, visformer
from repro.nn.multiexit import build_dynamic_network
from repro.nn.partition import (
    IndicatorMatrix,
    PartitionMatrix,
    PartitionScheme,
    _largest_remainder,
    backbone_layers,
)
from repro.search.objectives import (
    DEFAULT_OBJECTIVES,
    ObjectiveSet,
    ObjectiveSpec,
    _energy_extractor,
    as_objective_set,
    paper_objective,
)
from repro.search.pareto import dominates, pareto_front
from repro.search.space import SearchSpace
from repro.soc.presets import get_platform, jetson_agx_xavier


# -- the parent code, verbatim -------------------------------------------------------------
class ParentObjectiveSet(ObjectiveSet):
    """An ObjectiveSet that reads through the parent's ``values``."""

    def values(self, item):
        """Minimised objective vector of one candidate."""
        return tuple(spec.value(item) for spec in self.specs)


def parent_dominates(first, second, objectives=None) -> bool:
    """Whether ``first`` Pareto-dominates ``second`` (all objectives minimised)."""
    objective_set = as_objective_set(objectives)
    first_values = objective_set.values(first)
    second_values = objective_set.values(second)
    no_worse = all(a <= b for a, b in zip(first_values, second_values))
    strictly_better = any(a < b for a, b in zip(first_values, second_values))
    return no_worse and strictly_better


def parent_pareto_front(evaluated, objectives=None) -> list:
    """Non-dominated subset of ``evaluated`` under the given objectives."""
    objective_set = as_objective_set(objectives)
    front = []
    for candidate in evaluated:
        if any(
            parent_dominates(other, candidate, objective_set)
            for other in evaluated
            if other is not candidate
        ):
            continue
        front.append(candidate)
    return front


def _dominates_row(first: np.ndarray, second: np.ndarray) -> bool:
    return bool(np.all(first <= second) and np.any(first < second))


def parent_non_dominated_sort(values):
    count = len(values)
    dominated_by = [[] for _ in range(count)]
    domination_count = np.zeros(count, dtype=int)
    for i in range(count):
        for j in range(i + 1, count):
            if _dominates_row(values[i], values[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif _dominates_row(values[j], values[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts = []
    current = [i for i in range(count) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        upcoming = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    upcoming.append(j)
        current = upcoming
    return fronts


def parent_stored_feature_bytes(scheme):
    channels, reused = scheme._lists()
    total = 0
    for stage in range(scheme.num_stages - 1):
        for layer_index, layer in enumerate(scheme._backbone):
            if reused[stage][layer_index]:
                total += layer.output_bytes(channels[stage][layer_index])
    return int(total)


# -- a recording, drifting extractor ---------------------------------------------------------
class RecordingColumn:
    """Reads column ``index`` of an item's ``row``, logging ``(index, item id)``.

    With ``drift`` on, every call adds ``calls * 1e-9`` to the value it
    returns, so the values a pareto_front sees depend on the exact sequence
    of reads, not only on their set.
    """

    def __init__(self, index, log, drift):
        self.index = index
        self.log = log
        self.drift = drift

    def __call__(self, item):
        self.log.append((self.index, item.ident))
        value = item.row[self.index]
        if self.drift and math.isfinite(value):
            return value + len(self.log) * 1e-9
        return value


def recorded_sets(directions, drift):
    """The same specs read through the current and the parent ``values``."""
    sets = []
    for cls in (ObjectiveSet, ParentObjectiveSet):
        log = []
        specs = tuple(
            ObjectiveSpec(
                name=f"objective_{index}",
                extractor=RecordingColumn(index, log, drift),
                direction=direction,
            )
            for index, direction in enumerate(directions)
        )
        sets.append((cls(specs=specs), log))
    return sets


entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, math.nan, math.inf, -math.inf]),
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


@st.composite
def pools(draw):
    """Rows with ties, duplicate rows, NaN and +-inf, and a direction per column."""
    width = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(entries, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=0, max_size=9))
    # Duplicate some rows outright.
    duplicates = draw(st.lists(st.integers(min_value=0, max_value=8), max_size=4))
    rows = rows + [list(rows[index]) for index in duplicates if index < len(rows)]
    directions = draw(st.lists(st.sampled_from(["min", "max"]), min_size=width, max_size=width))
    items = [SimpleNamespace(ident=index, row=values) for index, values in enumerate(rows)]
    # And the same object more than once.
    repeats = draw(st.lists(st.integers(min_value=0, max_value=12), max_size=3))
    items = items + [items[index] for index in repeats if index < len(items)]
    return items, directions


class TestFrontMatchesParent:
    @settings(max_examples=300, deadline=None)
    @given(pool=pools(), drift=st.booleans())
    def test_same_front_and_same_reads(self, pool, drift):
        items, directions = pool
        (current, current_log), (parent, parent_log) = recorded_sets(directions, drift)
        front = pareto_front(items, current)
        expected = parent_pareto_front(items, parent)
        assert [id(item) for item in front] == [id(item) for item in expected]
        assert all(a is b for a, b in zip(front, expected))
        assert current_log == parent_log

    @settings(max_examples=300, deadline=None)
    @given(pool=pools())
    def test_dominates_reads_first_then_second(self, pool):
        items, directions = pool
        (current, current_log), (parent, parent_log) = recorded_sets(directions, False)
        for first in items:
            for second in items:
                assert dominates(first, second, current) == parent_dominates(
                    first, second, parent
                )
        assert current_log == parent_log

    def test_default_set_on_evaluated_candidates(self, tiny_config_evaluator, tiny_space):
        evaluated = tiny_config_evaluator.evaluate_many(tiny_space.population(25, seed=4))
        # Duplicate objects and reordered pools.
        pool = evaluated + evaluated[:5] + evaluated[::-1]
        front = pareto_front(pool)
        expected = parent_pareto_front(pool, ParentObjectiveSet(DEFAULT_OBJECTIVES.specs))
        assert len(front) == len(expected)
        assert all(a is b for a, b in zip(front, expected))

    def test_dominates_sees_no_calls_from_pareto_front(self, monkeypatch):
        import repro.search.pareto as pareto_module

        calls = []
        original = pareto_module.dominates
        monkeypatch.setattr(
            pareto_module, "dominates", lambda *a, **k: calls.append(a) or original(*a, **k)
        )
        items = [SimpleNamespace(latency_ms=v, energy_mj=v, accuracy=0.5) for v in (1.0, 2.0)]
        assert pareto_module.pareto_front(items) == [items[0]]
        assert calls == []


# -- reads ------------------------------------------------------------------------------------
read_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
)


def outcome(function, *args):
    try:
        result = function(*args)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(error), str(error))
    return ("returned", type(result), repr(result), [type(value) for value in result])


class TestReadsMatchParent:
    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(read_values, min_size=1, max_size=5),
        directions=st.data(),
    )
    def test_same_values_and_reprs(self, raw, directions):
        picks = directions.draw(
            st.lists(st.sampled_from(["min", "max"]), min_size=len(raw), max_size=len(raw))
        )
        specs = tuple(
            ObjectiveSpec(name=f"o{index}", extractor=lambda item, i=index: item.raw[i], direction=d)
            for index, d in enumerate(picks)
        )
        item = SimpleNamespace(raw=raw)
        assert outcome(ObjectiveSet(specs).values, item) == outcome(
            ParentObjectiveSet(specs).values, item
        )

    @pytest.mark.parametrize(
        "value", ["abc", None, "1.5", [1.0], complex(1, 1), np.array([1.0, 2.0])]
    )
    def test_same_errors(self, value):
        spec = ObjectiveSpec(name="o", extractor=lambda item: item.value)
        item = SimpleNamespace(value=value)
        assert outcome(ObjectiveSet((spec,)).values, item) == outcome(
            ParentObjectiveSet((spec,)).values, item
        )

    def test_default_extractors_on_namespaces(self):
        item = SimpleNamespace(latency_ms=3, energy_mj=np.float64(2.5), accuracy=-0.0)
        assert repr(DEFAULT_OBJECTIVES.values(item)) == repr(
            ParentObjectiveSet(DEFAULT_OBJECTIVES.specs).values(item)
        )

    def test_evaluated_accuracy_is_the_last_stage_accuracy(self, tiny_config_evaluator, tiny_space):
        for evaluated in tiny_config_evaluator.evaluate_many(tiny_space.population(5, seed=1)):
            assert repr(evaluated.accuracy) == repr(evaluated.inference.accuracy)
            assert repr(evaluated.accuracy) == repr(
                evaluated.inference.exit_statistics.stage_accuracies[-1]
            )


class TestObjectiveSetIdentity:
    def test_pickled_and_copied_sets_read_like_the_original(self):
        # NaN is worst under either direction; -0.0 is kept as read.
        gain = ObjectiveSpec(name="energy_gain", extractor=_energy_extractor, direction="max")
        objectives = ObjectiveSet(DEFAULT_OBJECTIVES.specs + (gain,))
        item = SimpleNamespace(latency_ms=-0.0, energy_mj=math.nan, accuracy=0.5)
        expected = repr(objectives.values(item))
        assert expected == "(-0.0, inf, -0.5, inf)"
        clones = [
            pickle.loads(pickle.dumps(objectives)),
            copy.deepcopy(objectives),
            copy.copy(objectives),
        ]
        for clone in clones:
            assert clone == objectives
            assert hash(clone) == hash(objectives)
            assert repr(clone) == repr(objectives)
            assert clone.describe() == objectives.describe()
            assert clone.fingerprint() == objectives.fingerprint()
            # The readers follow the clone's own specs and stay out of its state.
            assert [extractor for extractor, _ in clone._readers] == [
                spec.extractor for spec in clone.specs
            ]
            assert [maximise for _, maximise in clone._readers] == [False, False, True, True]
            assert set(clone.__getstate__()) == {"specs"}
            assert repr(clone.values(item)) == expected


# -- NSGA-II's sort ---------------------------------------------------------------------------
@st.composite
def matrices(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(entries, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=0, max_size=12))
    duplicates = draw(st.lists(st.integers(min_value=0, max_value=11), max_size=4))
    rows = rows + [list(rows[index]) for index in duplicates if index < len(rows)]
    return np.array(rows, dtype=float).reshape(len(rows), width)


class TestNonDominatedSortMatchesNumpyRows:
    @settings(max_examples=400, deadline=None)
    @given(values=matrices())
    def test_same_fronts_in_the_same_order(self, values):
        fronts = non_dominated_sort(values)
        expected = parent_non_dominated_sort(values)
        assert fronts == expected
        assert [[type(index) for index in front] for front in fronts] == [
            [type(index) for index in front] for front in expected
        ]

    def test_float32_and_integer_matrices(self):
        rng = np.random.default_rng(5)
        for dtype in (np.float32, np.int64):
            values = rng.integers(0, 4, size=(20, 3)).astype(dtype)
            assert non_dominated_sort(values) == parent_non_dominated_sort(values)


# -- the build's split table ------------------------------------------------------------------
NETWORKS = {"visformer": visformer, "resnet20": resnet20, "vgg19": vgg19}


@pytest.fixture(scope="module")
def networks():
    return {name: build() for name, build in NETWORKS.items()}


def configs(network, count, seed, **space_options):
    return SearchSpace(network, get_platform("jetson-agx-xavier"), **space_options).population(
        count, seed=seed
    )


class TestSplitTable:
    def test_every_hit_equals_a_fresh_split(self, networks):
        table = {}
        for name, network in networks.items():
            for config in configs(network, 30, seed=len(name)):
                PartitionScheme(network, config.partition, config.indicator, splits=table)
        assert table
        for key, shares in table.items():
            width, granularity, *column = key
            assert shares == _largest_remainder(width, column, granularity)
            # The same floats with every zero negated hit the same entry, and
            # splitting them fresh gives the same shares.
            negated = [-0.0 if value == 0.0 else value for value in column]
            assert table[(width, granularity, *negated)] == shares
            assert _largest_remainder(width, negated, granularity) == shares

    def test_negative_zero_columns_split_as_today(self, networks):
        network = networks["resnet20"]
        layers = len(backbone_layers(network))
        values = np.zeros((3, layers))
        values[0] = 1.0
        negated = values.copy()
        negated[1:] = -0.0
        indicator = IndicatorMatrix.full(3, layers)
        table = {}
        for matrix in (values, negated, values):
            scheme = PartitionScheme(network, PartitionMatrix(matrix), indicator, splits=table)
            fresh = PartitionScheme(network, PartitionMatrix(matrix), indicator)
            assert scheme.channels.tolist() == fresh.channels.tolist()

    def test_one_table_for_several_networks_does_not_alias(self, networks, tiny_network):
        table = {}
        cases = [
            (network, config)
            for name, network in networks.items()
            for config in configs(network, 15, seed=7 + len(name))
        ]
        # Uniform splits put the same column at the same positions of
        # networks whose layer widths differ.
        for network in list(networks.values()) + [tiny_network]:
            layers = len(backbone_layers(network))
            for stages in (1, 2, 3):
                cases.append(
                    (
                        network,
                        SimpleNamespace(
                            partition=PartitionMatrix.uniform(stages, layers),
                            indicator=IndicatorMatrix.full(stages, layers),
                        ),
                    )
                )
        for _ in range(2):
            for network, config in cases:
                shared = build_dynamic_network(
                    network, config.partition, config.indicator, splits=table
                )
                fresh = build_dynamic_network(network, config.partition, config.indicator)
                assert shared.stages == fresh.stages
                assert shared.scheme.channels.tolist() == fresh.scheme.channels.tolist()

    def test_the_table_is_not_stored(self, networks):
        network = networks["visformer"]
        config = configs(network, 1, seed=0)[0]
        table = {}
        scheme = PartitionScheme(network, config.partition, config.indicator, splits=table)
        assert set(vars(scheme)) == {"network", "partition", "indicator", "_backbone", "_channels"}
        assert "splits" not in repr(scheme)

    def test_each_evaluator_owns_its_table(self, visformer_net, platform):
        first = evaluation_module.ConfigEvaluator(visformer_net, platform, seed=0)
        second = evaluation_module.ConfigEvaluator(visformer_net, platform, seed=0)
        first.evaluate(configs(visformer_net, 1, seed=2)[0])
        assert first._splits and not second._splits

    def test_search_is_the_same_without_the_table(self, monkeypatch):
        def search():
            framework = MapAndConquer(visformer(), jetson_agx_xavier(), seed=0)
            result = framework.search(generations=5, population_size=10, seed=3)
            return [
                (item.config.describe(), repr(item.latency_ms), repr(item.energy_mj),
                 repr(item.accuracy), item.stored_feature_bytes)
                for item in list(result.history) + list(result.pareto)
            ]

        with_table = search()
        original = evaluation_module.build_dynamic_network

        def without_table(*args, splits=None, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation_module, "build_dynamic_network", without_table)
        assert search() == with_table


# -- stored feature bytes ---------------------------------------------------------------------
class CountingOutputBytes:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = Layer.output_bytes

        def counted(layer, out_units=None):
            self.calls += 1
            return original(layer, out_units)

        monkeypatch.setattr(Layer, "output_bytes", counted)


class TestStoredFeatureBytes:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_equals_the_parent_loop(self, networks, name, monkeypatch):
        network = networks[name]
        layers = len(backbone_layers(network))
        cases = [(config.partition, config.indicator) for config in configs(network, 40, seed=1)]
        cases += [
            (config.partition, config.indicator)
            for config in configs(network, 10, seed=2, num_stages=2)
        ]
        for stages in (1, 2, 3):
            partition = PartitionMatrix.uniform(stages, layers)
            cases += [
                (partition, IndicatorMatrix.full(stages, layers)),
                (partition, IndicatorMatrix.none(stages, layers)),
            ]
        counter = CountingOutputBytes(monkeypatch)
        for partition, indicator in cases:
            dynamic = build_dynamic_network(network, partition, indicator)
            expected = parent_stored_feature_bytes(dynamic.scheme)
            counter.calls = 0
            stored = dynamic.stored_feature_bytes()
            # Only the last layer's reused outputs are sized again.
            assert counter.calls <= dynamic.num_stages - 1
            assert type(stored) is int and stored == expected
            scheme_stored = dynamic.scheme.stored_feature_bytes()
            assert type(scheme_stored) is int and scheme_stored == expected

    def test_single_stage_stores_nothing(self, networks):
        network = networks["visformer"]
        layers = len(backbone_layers(network))
        dynamic = build_dynamic_network(
            network, PartitionMatrix.uniform(1, layers), IndicatorMatrix.full(1, layers)
        )
        assert dynamic.stored_feature_bytes() == 0 == dynamic.scheme.stored_feature_bytes()


# -- the number of reads ----------------------------------------------------------------------
#: ``ObjectiveSet.values`` calls made by the determinism anchor's search
#: (visformer / Xavier, 8 generations of 12, seed 0) and by a 4x10 NSGA-II
#: search (seed 1), recorded on the pairwise ``dominates`` loop this replaced.
ANCHOR_READS = 4476
NSGA2_READS = 2032


class TestReadCounts:
    def test_anchor_search_makes_the_parent_reads(self, monkeypatch):
        reads = []
        original = ObjectiveSet.values

        def counted(self, item):
            reads.append(item)
            return original(self, item)

        monkeypatch.setattr(ObjectiveSet, "values", counted)
        framework = MapAndConquer(visformer(), jetson_agx_xavier(), seed=0)
        result = framework.search(generations=8, population_size=12, seed=0)
        assert repr(paper_objective(result.best)) == "4718194952.60551"
        assert (len(result.pareto), len(result.history)) == (25, 69)
        assert len(reads) == ANCHOR_READS
        reads.clear()
        result = framework.search(generations=4, population_size=10, seed=1, strategy="nsga2")
        assert len(reads) == NSGA2_READS
