"""Pareto assembly and the build at the cost of their reads, against the parent code.

``pareto_front`` reads each candidate's row once and sweeps the rows in
lexicographic order against the running front, except under a set that
holds a ``MeasuredWaitExtractor``: there every read is a counted
serving-cache lookup, so the front keeps the pairwise interrogation it
always made (for each candidate, every other candidate in input order,
``values(other)`` then ``values(candidate)``, until one dominates), and the
reads themselves, their order and their number are part of the contract.

The ``parent_*`` functions below are verbatim copies of the code this
replaced: ``dominates``/``pareto_front``, ``ObjectiveSet.values`` (as
``ParentObjectiveSet``), NSGA-II's numpy row test and sort, and the
scheme-level ``stored_feature_bytes`` loop.  Fronts are compared by
membership (``is``) and order, reads by value and ``repr``.  On the pairwise
path the full sequence of extractor calls is recorded by a measured
extractor whose values drift with every call, so a different read order
would also show as a different front; on the sweep, by a plain recording
extractor that must see each position read once, in input order.  Real
search histories are compared too, and a real measured set on a
``ServingCacheRecorder`` must make the parent's lookups.

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
    _largest_remainder,
    backbone_layers,
)
from repro.search.objectives import (
    DEFAULT_OBJECTIVES,
    MeasuredWaitExtractor,
    ObjectiveSet,
    ObjectiveSpec,
    _energy_extractor,
    as_objective_set,
    measured_serving_objectives,
    paper_objective,
    serving_objectives,
)
from repro.search.pareto import dominates, pareto_front
from repro.search.space import SearchSpace
from repro.serving.families import SteadyPoissonFamily
from repro.serving.result_cache import ServingCacheRecorder, ServingResultCache
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


def parent_stored_feature_bytes(dynamic):
    channels = dynamic.arrays.channels[0].tolist()
    reused = dynamic.indicator.values.tolist()
    total = 0
    for stage in range(dynamic.num_stages - 1):
        for layer_index, layer in enumerate(backbone_layers(dynamic.network)):
            if reused[stage][layer_index]:
                total += layer.output_bytes(channels[stage][layer_index])
    return int(total)


# -- recording, drifting extractors ---------------------------------------------------------
class RecordingColumn:
    """Reads column ``index`` of an item's ``row``, logging ``(index, item id)``.

    With ``drift`` on, every call adds ``calls * 1e-9`` to the value it
    returns, so the values a pareto_front sees depend on the exact sequence
    of reads, not only on their set.  A plain extractor: ``pareto_front``
    sweeps a set of these.
    """

    def __init__(self, index, log, drift):
        # ``vars`` rather than attributes: the measured subclass is frozen.
        vars(self).update(index=index, log=log, drift=drift)

    def __call__(self, item):
        self.log.append((self.index, item.ident))
        value = item.row[self.index]
        if self.drift and math.isfinite(value):
            return value + len(self.log) * 1e-9
        return value


class MeasuredRecordingColumn(RecordingColumn, MeasuredWaitExtractor):
    """A ``RecordingColumn`` that is a measured extractor, whose reads count.

    ``pareto_front`` keeps the pairwise reads for a set holding one.  It
    replays nothing: the recording ``__call__`` comes first.
    """


def recorded_sets(directions, drift, columns=MeasuredRecordingColumn):
    """The same specs read through the current and the parent ``values``.

    ``columns`` is one extractor class for every spec, or one per spec.
    """
    if isinstance(columns, type):
        columns = [columns] * len(directions)
    sets = []
    for cls in (ObjectiveSet, ParentObjectiveSet):
        log = []
        specs = tuple(
            ObjectiveSpec(
                name=f"objective_{index}",
                extractor=column(index, log, drift),
                direction=direction,
            )
            for index, (column, direction) in enumerate(zip(columns, directions))
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
        # A measured set: the pairwise reads, in the parent's order.
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


class TestSweep:
    """Sets without a measured extractor: one read per position, the parent's front."""

    @settings(max_examples=300, deadline=None)
    @given(pool=pools())
    def test_same_front_one_read_per_position(self, pool):
        items, directions = pool
        (current, current_log), (parent, _) = recorded_sets(directions, False, RecordingColumn)
        front = pareto_front(items, current)
        expected = parent_pareto_front(items, parent)
        assert [id(item) for item in front] == [id(item) for item in expected]
        assert all(a is b for a, b in zip(front, expected))
        # Each position's row is read once, in input order, column by column.
        assert current_log == [
            (index, item.ident) for item in items for index in range(len(directions))
        ]

    @settings(max_examples=150, deadline=None)
    @given(pool=pools(), drift=st.booleans(), data=st.data())
    def test_one_measured_spec_keeps_the_pairwise_reads(self, pool, drift, data):
        items, directions = pool
        measured = data.draw(st.integers(min_value=0, max_value=len(directions) - 1))
        columns = [
            MeasuredRecordingColumn if index == measured else RecordingColumn
            for index in range(len(directions))
        ]
        (current, current_log), (parent, parent_log) = recorded_sets(directions, drift, columns)
        front = pareto_front(items, current)
        expected = parent_pareto_front(items, parent)
        assert [id(item) for item in front] == [id(item) for item in expected]
        assert current_log == parent_log

    def test_key_callables_are_swept(self):
        reads = []

        def key(item):
            reads.append(item)
            return item.row[0]

        items = [SimpleNamespace(row=[value]) for value in (3.0, 1.0, math.nan, 1.0, 2.0)]
        front = pareto_front(items, [key])
        assert [id(item) for item in front] == [id(items[1]), id(items[3])]
        assert [id(item) for item in reads] == [id(item) for item in items]


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
                build_dynamic_network(network, config.partition, config.indicator, splits=table)
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
            partition = PartitionMatrix(matrix)
            shared = build_dynamic_network(network, partition, indicator, splits=table)
            fresh = build_dynamic_network(network, partition, indicator)
            assert shared.arrays.channels.tolist() == fresh.arrays.channels.tolist()

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
                for field, expected in zip(shared.arrays, fresh.arrays):
                    assert field.tolist() == expected.tolist()

    def test_the_table_is_not_stored(self, networks):
        network = networks["visformer"]
        config = configs(network, 1, seed=0)[0]
        table = {}
        dynamic = build_dynamic_network(network, config.partition, config.indicator, splits=table)
        assert table
        assert set(vars(dynamic)) == {
            "network", "partition", "indicator", "arrays", "ranking", "reordered"
        }
        assert "splits" not in repr(dynamic)

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

        class NoTable(dict):
            """A split table that keeps nothing, so every column is split afresh."""

            reads = 0

            def get(self, key, default=None):
                NoTable.reads += 1
                return default

            def __setitem__(self, key, value):
                pass

        original = evaluation_module.ConfigEvaluator.__init__

        def without_table(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self._splits = NoTable()

        monkeypatch.setattr(evaluation_module.ConfigEvaluator, "__init__", without_table)
        assert search() == with_table
        # The search split its columns through the table-less evaluators.
        assert NoTable.reads > 0


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
            expected = parent_stored_feature_bytes(dynamic)
            counter.calls = 0
            stored = dynamic.stored_feature_bytes()
            # The view reads what the build sized: nothing is sized again.
            assert counter.calls == 0
            assert type(stored) is int and stored == expected

    def test_single_stage_stores_nothing(self, networks):
        network = networks["visformer"]
        layers = len(backbone_layers(network))
        dynamic = build_dynamic_network(
            network, PartitionMatrix.uniform(1, layers), IndicatorMatrix.full(1, layers)
        )
        assert dynamic.stored_feature_bytes() == 0 == parent_stored_feature_bytes(dynamic)


# -- real pools -------------------------------------------------------------------------------
@pytest.fixture(scope="module")
def histories(networks):
    """A small evolutionary search history on Xavier per network."""
    return {
        name: list(
            MapAndConquer(network, jetson_agx_xavier(), seed=0)
            .search(generations=5, population_size=10, seed=1)
            .history
        )
        for name, network in networks.items()
    }


def real_pools(history):
    """The history with duplicated objects, and reversed with every other one again."""
    return [history + history[:7], history[::-1] + history[::2]]


class TestRealPools:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    @pytest.mark.parametrize("rate", [None, 20.0, 100.0], ids=["default", "20rps", "100rps"])
    def test_history_fronts_match_the_parent(self, histories, name, rate, monkeypatch):
        objectives = DEFAULT_OBJECTIVES if rate is None else serving_objectives(target_rps=rate)
        parent = ParentObjectiveSet(objectives.specs)
        reads = []
        original = ObjectiveSet.values

        def counted(self, item):
            reads.append(item)
            return original(self, item)

        monkeypatch.setattr(ObjectiveSet, "values", counted)
        for pool in real_pools(histories[name]):
            reads.clear()
            front = pareto_front(pool, objectives)
            assert [id(item) for item in reads] == [id(item) for item in pool]
            expected = parent_pareto_front(pool, parent)
            assert 0 < len(expected) < len(pool)
            assert [id(item) for item in front] == [id(item) for item in expected]

    def test_measured_set_makes_the_parent_lookups(self, histories):
        platform = jetson_agx_xavier()
        family = SteadyPoissonFamily(rate_rps=40.0)

        def measured(recorder):
            return measured_serving_objectives(
                family, platform, duration_ms=400.0, members=1, cache=recorder
            )

        for pool in real_pools(histories["resnet20"]):
            recorder = ServingCacheRecorder(ServingResultCache())
            parent_recorder = ServingCacheRecorder(ServingResultCache())
            front = pareto_front(pool, measured(recorder))
            expected = parent_pareto_front(
                pool, ParentObjectiveSet(measured(parent_recorder).specs)
            )
            assert 0 < len(expected) < len(pool)
            assert [id(item) for item in front] == [id(item) for item in expected]
            stats = recorder.cell_stats()
            assert stats == parent_recorder.cell_stats()
            # The pairwise reads: many lookups per position.
            assert stats.lookups > 2 * len(pool)


# -- the number of reads ----------------------------------------------------------------------
#: ``ObjectiveSet.values`` calls made by the determinism anchor's search
#: (visformer / Xavier, 8 generations of 12, seed 0): one per candidate of the
#: front's 69-entry pool; and by a 4x10 NSGA-II search (seed 1): 70 matrix
#: rows for its survivor ranking plus 38 front reads.
ANCHOR_READS = 69
NSGA2_READS = 108


class TestReadCounts:
    def test_searches_read_each_front_candidate_once(self, monkeypatch):
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
