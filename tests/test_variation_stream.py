"""The variation layer draws exactly what the code it replaced drew.

``SearchSpace.sample_partition`` and ``_mutate_partition`` draw a whole
matrix (or column) of ratio-choice indices with one ``rng.integers`` call,
``_mutate_dvfs`` draws its step without building an array, ``crossover``
builds each child matrix with one ``np.where``, NSGA-II's tournament reads
plain lists, ``paper_objective`` reads the profile's stages once and
``ConfigEvaluator.content_digest`` encodes the evaluator's identity once.

Each is pinned here against a verbatim copy of the code it replaced (the
``reference_*`` functions), by value and by generator state: the same P and
I bytes, dtype, C order, read-only flag and pickle bytes, unit names, DVFS
values and their type, digest strings, objective ``repr``, error type and
message, and the same ``rng.bit_generator.state`` after every call.  Whole
evolutionary and NSGA-II populations are compared generation by generation
on visformer, resnet20 and vgg19 on every preset, on a nine-unit board (9
stages: numpy sums 8 or more terms pairwise, which only ratios whose sums
round can tell), on a one-ratio space and on spaces with a reuse cap.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.nsga import NSGA2Strategy
from repro.engine.strategies import EvolutionaryStrategy
from repro.errors import ConfigurationError, SearchError
from repro.nn.models import resnet20, vgg19, visformer
from repro.nn.partition import RATIO_CHOICES, IndicatorMatrix, PartitionMatrix
from repro.search import operators
from repro.search.evaluation import ConfigEvaluator
from repro.search.objectives import _accuracy_term, paper_objective
from repro.search.operators import crossover, mutate
from repro.search.space import MappingConfig, SearchSpace
from repro.soc.dvfs import DvfsTable
from repro.soc.platform import jetson_agx_xavier
from repro.soc.presets import derive, get_platform, platform_names
from repro.utils import as_rng

# -- verbatim copies of the replaced code ------------------------------------------


def reference_sample_partition(space, rng):
    columns = []
    for _ in range(space.num_layers):
        raw = rng.choice(space.ratio_choices, size=space.num_stages)
        columns.append(raw / raw.sum())
    return PartitionMatrix(np.column_stack(columns))


def reference_sample_dvfs(space, rng, unit_names):
    indices = []
    for name in unit_names:
        unit = space.platform.unit(name)
        indices.append(int(rng.integers(0, unit.num_dvfs_points())))
    return tuple(indices)


def reference_sample(space, seed=None):
    generator = as_rng(seed)
    unit_names = space.sample_mapping(generator)
    return MappingConfig(
        partition=reference_sample_partition(space, generator),
        indicator=space.sample_indicator(generator),
        unit_names=unit_names,
        dvfs_indices=reference_sample_dvfs(space, generator, unit_names),
    )


def reference_mutate_partition(config, space, rng):
    values = config.partition.values.copy()
    layer = int(rng.integers(0, space.num_layers))
    raw = rng.choice(space.ratio_choices, size=space.num_stages)
    values[:, layer] = raw / raw.sum()
    return replace(config, partition=PartitionMatrix(values))


def reference_mutate_dvfs(config, space, rng):
    stage = int(rng.integers(0, space.num_stages))
    unit = space.platform.unit(config.unit_names[stage])
    step = int(rng.choice([-1, 1]))
    indices = list(config.dvfs_indices)
    indices[stage] = int(np.clip(indices[stage] + step, 0, unit.num_dvfs_points() - 1))
    return replace(config, dvfs_indices=tuple(indices))


REFERENCE_MUTATIONS = (
    reference_mutate_partition,
    operators._mutate_indicator,
    operators._mutate_mapping,
    reference_mutate_dvfs,
)


def reference_mutate(config, space, rng=None, num_mutations=1):
    generator = as_rng(rng)
    mutated = config
    for _ in range(max(1, num_mutations)):
        operator = REFERENCE_MUTATIONS[int(generator.integers(0, len(REFERENCE_MUTATIONS)))]
        mutated = operator(mutated, space, generator)
    return mutated


def reference_crossover(parent_a, parent_b, space, rng=None):
    generator = as_rng(rng)
    partition = parent_a.partition.values.copy()
    indicator = parent_a.indicator.values.copy()
    take_b = generator.random(space.num_layers) < 0.5
    partition[:, take_b] = parent_b.partition.values[:, take_b]
    indicator[:, take_b] = parent_b.indicator.values[:, take_b]
    mapping_parent = parent_a if generator.random() < 0.5 else parent_b
    child = MappingConfig(
        partition=PartitionMatrix(partition),
        indicator=space.repair_indicator(IndicatorMatrix(indicator), generator),
        unit_names=mapping_parent.unit_names,
        dvfs_indices=mapping_parent.dvfs_indices,
    )
    return child


def reference_tournament(strategy, ranks, crowding):
    first = int(strategy._rng.integers(0, len(ranks)))
    second = int(strategy._rng.integers(0, len(ranks)))
    if (ranks[first], -crowding[first]) <= (ranks[second], -crowding[second]):
        return first
    return second


def reference_breed(strategy):
    ranks, crowding = strategy._parent_ranks, strategy._parent_crowding
    offspring = []
    while len(offspring) < strategy.population_size:
        parent_a = strategy._parents[reference_tournament(strategy, ranks, crowding)]
        parent_b = strategy._parents[reference_tournament(strategy, ranks, crowding)]
        child = reference_crossover(parent_a.config, parent_b.config, strategy.space, strategy._rng)
        if strategy._rng.random() < strategy.mutation_rate:
            child = reference_mutate(child, strategy.space, strategy._rng)
        offspring.append(child)
    return offspring


def reference_paper_objective(evaluated):
    accuracy_term = _accuracy_term(evaluated)
    statistics = evaluated.inference.exit_statistics
    profile = evaluated.profile
    latency_term = 0.0
    energy_term = 0.0
    for stage_index, count in enumerate(statistics.correct_counts):
        # HardwareProfile.stage_latency_ms as it read then, without the
        # index check it has since gained.
        latency_term += profile.stages[stage_index].latency_ms * count
        energy_term += profile.cumulative_energy_mj(stage_index) * count
    if latency_term == 0.0 or energy_term == 0.0:
        return float("inf")
    return accuracy_term * latency_term * energy_term


def reference_content_digest(evaluator, config):
    digest = hashlib.sha256()
    for part in evaluator.config_key(config):
        if isinstance(part, bytes):
            digest.update(part)
        else:
            digest.update(repr(part).encode("utf-8"))
    return digest.hexdigest()


# -- what a result is compared by -----------------------------------------------------


def matrix_facts(matrix):
    values = matrix.values
    return (
        type(matrix),
        values.tobytes(),
        values.dtype.str,
        values.shape,
        values.flags.c_contiguous,
        values.flags.writeable,
        pickle.dumps(matrix),
    )


def config_facts(config):
    return (
        matrix_facts(config.partition),
        matrix_facts(config.indicator),
        config.unit_names,
        tuple(map(type, config.unit_names)),
        config.dvfs_indices,
        tuple(map(type, config.dvfs_indices)),
        pickle.dumps(config),
    )


def facts(value):
    if isinstance(value, MappingConfig):
        return config_facts(value)
    if isinstance(value, (PartitionMatrix, IndicatorMatrix)):
        return matrix_facts(value)
    if isinstance(value, tuple):
        return value, tuple(map(type, value))
    return type(value), repr(value)


def drawn(function, rng, *args):
    """What ``function(*args, rng)`` gave, by value or by error, and the
    generator's state after it."""
    try:
        result = ("returned", facts(function(*args, rng)))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        result = ("raised", type(error), str(error))
    return result, rng.bit_generator.state


def assert_same_draws(new, reference, seed, *args):
    assert drawn(new, np.random.default_rng(seed), *args) == drawn(
        reference, np.random.default_rng(seed), *args
    )


# -- the spaces ---------------------------------------------------------------------

NETWORKS = {"visformer": visformer, "resnet20": resnet20, "vgg19": vgg19}


def nine_unit_board():
    """Xavier with its CPU and five more units, each with its own DVFS ladder."""
    base = jetson_agx_xavier(include_cpu=True)
    extra = [
        replace(
            base.compute_units[k % 4],
            name=f"{base.compute_units[k % 4].name}-{k}",
            dvfs=DvfsTable.linspace(300.0, 1200.0, 2 + k),
        )
        for k in range(5)
    ]
    return derive(base, "nine-unit", extra_units=extra)


_NETWORK_CACHE: dict = {}
_EVALUATOR_CACHE: dict = {}


def network(name):
    if name not in _NETWORK_CACHE:
        _NETWORK_CACHE[name] = NETWORKS[name]()
    return _NETWORK_CACHE[name]


def board(name):
    return nine_unit_board() if name == "nine-unit" else get_platform(name)


def evaluator_for(network_name, board_name):
    key = (network_name, board_name)
    if key not in _EVALUATOR_CACHE:
        _EVALUATOR_CACHE[key] = ConfigEvaluator(network(network_name), board(board_name), seed=0)
    return _EVALUATOR_CACHE[key]


def make_space(case):
    network_name, board_name, options = case
    return SearchSpace(network(network_name), board(board_name), **options)


PRESET_CASES = [
    (network_name, board_name, {})
    for network_name in NETWORKS
    for board_name in platform_names()
]
#: Ratios whose sums round: eighths add up exactly in any order.
INEXACT_RATIOS = (0.1, 0.2, 0.3, 1 / 3, 0.7, 0.9)

EXTRA_CASES = [
    ("resnet20", "nine-unit", {}),
    ("resnet20", "nine-unit", {"ratio_choices": INEXACT_RATIOS}),
    ("vgg19", "mobile-big-little", {"ratio_choices": INEXACT_RATIOS}),
    ("vgg19", "nine-unit", {"max_reuse_fraction": 0.25}),
    ("visformer", "jetson-agx-xavier", {"ratio_choices": (0.5,)}),
    ("visformer", "jetson-agx-xavier", {"max_reuse_fraction": 0.5}),
    ("resnet20", "mobile-big-little", {"num_stages": 2, "max_reuse_fraction": 0.0}),
]
CASES = PRESET_CASES + EXTRA_CASES


def case_id(case):
    network_name, board_name, options = case
    suffix = ",".join(
        f"{key}={'inexact' if value == INEXACT_RATIOS else value}" for key, value in options.items()
    )
    return f"{network_name}-{board_name}" + (f"-{suffix}" if suffix else "")


seeds = st.integers(min_value=0, max_value=2**63 - 1)


def sampled_pair(space, seed):
    rng = np.random.default_rng(seed)
    return space.sample(rng), space.sample(rng)


# -- the pins ------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=case_id)
class TestDrawSitesMatchTheirReferences:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_sample_partition(self, case, seed):
        space = make_space(case)
        assert_same_draws(space.sample_partition, partial(reference_sample_partition, space), seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_sample_dvfs(self, case, seed):
        space = make_space(case)
        names = space.sample_mapping(np.random.default_rng(seed))
        assert_same_draws(
            lambda rng: space.sample_dvfs(rng, names),
            lambda rng: reference_sample_dvfs(space, rng, names),
            seed,
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_sample(self, case, seed):
        space = make_space(case)
        assert_same_draws(space.sample, partial(reference_sample, space), seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, draw_seed=seeds)
    def test_mutate_partition(self, case, seed, draw_seed):
        space = make_space(case)
        config, _ = sampled_pair(space, seed)
        assert_same_draws(
            partial(operators._mutate_partition, config, space),
            partial(reference_mutate_partition, config, space),
            draw_seed,
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, draw_seed=seeds)
    def test_mutate_dvfs(self, case, seed, draw_seed):
        space = make_space(case)
        config, _ = sampled_pair(space, seed)
        assert_same_draws(
            partial(operators._mutate_dvfs, config, space),
            partial(reference_mutate_dvfs, config, space),
            draw_seed,
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, draw_seed=seeds, num_mutations=st.integers(1, 4))
    def test_mutate(self, case, seed, draw_seed, num_mutations):
        space = make_space(case)
        config, _ = sampled_pair(space, seed)
        assert_same_draws(
            lambda rng: mutate(config, space, rng, num_mutations),
            lambda rng: reference_mutate(config, space, rng, num_mutations),
            draw_seed,
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, draw_seed=seeds)
    def test_crossover(self, case, seed, draw_seed):
        space = make_space(case)
        parent_a, parent_b = sampled_pair(space, seed)
        for first, second in ((parent_a, parent_b), (parent_b, parent_a), (parent_a, parent_a)):
            assert_same_draws(
                partial(crossover, first, second, space),
                partial(reference_crossover, first, second, space),
                draw_seed,
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_paper_objective_and_content_digest(self, case, seed):
        network_name, board_name, options = case
        space = make_space(case)
        evaluator = evaluator_for(network_name, board_name)
        configs = list(sampled_pair(space, seed))
        for evaluated in evaluator.evaluate_many(configs):
            assert repr(paper_objective(evaluated)) == repr(reference_paper_objective(evaluated))
        for config in configs:
            assert evaluator.content_digest(config) == reference_content_digest(evaluator, config)


class TestErrorsMatchTheirReferences:
    def test_unknown_unit(self):
        """A configuration from another board fails the same lookup after the
        same draws."""
        space = make_space(("visformer", "jetson-agx-xavier", {}))
        foreign = make_space(("visformer", "jetson-agx-orin", {"num_stages": 3}))
        config = replace(
            foreign.sample(3), unit_names=("gpu", "dla0", "accelerator-x")
        )
        for seed in range(40):
            assert_same_draws(
                partial(operators._mutate_dvfs, config, space),
                partial(reference_mutate_dvfs, config, space),
                seed,
            )
            assert_same_draws(
                lambda rng: space.sample_dvfs(rng, config.unit_names),
                lambda rng: reference_sample_dvfs(space, rng, config.unit_names),
                seed,
            )

    def test_partition_of_another_stage_count(self):
        space = make_space(("resnet20", "jetson-agx-xavier", {}))
        two_stage = make_space(("resnet20", "jetson-agx-xavier", {"num_stages": 2}))
        config = two_stage.sample(5)
        for seed in range(20):
            assert_same_draws(
                partial(operators._mutate_partition, config, space),
                partial(reference_mutate_partition, config, space),
                seed,
            )

    def test_overflowing_ratios_fail_alike(self):
        """Two huge ratios in one column sum to inf and spoil P after the same
        draws; one of them does not."""
        ratios = (1e308,) + RATIO_CHOICES[:7]
        space = make_space(("vgg19", "jetson-agx-xavier", {"ratio_choices": ratios}))
        raised = 0
        with np.errstate(over="ignore"):
            for seed in range(40):
                assert_same_draws(
                    space.sample_partition, partial(reference_sample_partition, space), seed
                )
                outcome, _ = drawn(space.sample_partition, np.random.default_rng(seed))
                raised += outcome[0] == "raised"
        assert 0 < raised < 40

    def test_profile_shorter_than_the_exit_statistics(self):
        evaluator = evaluator_for("visformer", "jetson-agx-xavier")
        evaluated = evaluator.evaluate(make_space(("visformer", "jetson-agx-xavier", {})).sample(0))
        profile = evaluated.profile
        short = replace(evaluated, profile=replace(profile, stages=profile.stages[:-1]))
        for function in (paper_objective, reference_paper_objective):
            with pytest.raises(IndexError, match="tuple index out of range"):
                function(short)


class TestTournamentMatchesItsReference:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=seeds,
        scores=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from([0.0, 0.25, 0.5, 1.5, np.inf, np.nan, 0.25 + 1e-17]),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_same_winner_and_stream(self, seed, scores):
        space = make_space(("visformer", "jetson-agx-xavier", {}))
        ranks = np.array([rank for rank, _ in scores], dtype=int)
        crowding = np.array([distance for _, distance in scores])
        strategy = NSGA2Strategy(space, population_size=4, generations=1, seed=seed)
        reference = NSGA2Strategy(space, population_size=4, generations=1, seed=seed)
        for _ in range(3):
            # _breed hands the tournament the lists of its scores.
            winner = strategy._tournament(ranks.tolist(), crowding.tolist())
            assert winner == reference_tournament(reference, ranks, crowding)
            assert type(winner) is int
            assert strategy._rng.bit_generator.state == reference._rng.bit_generator.state


# -- whole populations ----------------------------------------------------------------


def reference_strategy(strategy):
    """``strategy`` with its draws routed through the reference copies."""
    space = copy.copy(strategy.space)
    space.sample = partial(reference_sample, space)
    strategy.space = space
    if isinstance(strategy, NSGA2Strategy):
        strategy._breed = partial(reference_breed, strategy)
    return strategy


def run_populations(strategy, evaluator, results):
    """Every population ``strategy`` proposes, by facts, with the generator
    state after each ``ask`` and each ``tell``; evaluations are shared through
    ``results`` so both runs tell identical objects."""
    trail = []
    while True:
        population = strategy.ask()
        trail.append(strategy._rng.bit_generator.state)
        if not population:
            return trail
        trail.append([config_facts(config) for config in population])
        fresh = [config for config in population if evaluator.content_digest(config) not in results]
        for config, evaluated in zip(fresh, evaluator.evaluate_many(fresh) if fresh else []):
            results.setdefault(evaluator.content_digest(config), evaluated)
        strategy.tell([results[evaluator.content_digest(config)] for config in population])
        trail.append(strategy._rng.bit_generator.state)


@pytest.mark.parametrize("case", CASES, ids=case_id)
@pytest.mark.parametrize("kind", ["evolutionary", "nsga2"])
def test_populations_match_their_references(case, kind, monkeypatch):
    network_name, board_name, _ = case
    evaluator = evaluator_for(network_name, board_name)
    results: dict = {}
    trails = []
    for use_reference in (False, True):
        if use_reference:
            # The strategies reach the operators by module-level name.
            for module in ("repro.engine.strategies", "repro.engine.nsga"):
                monkeypatch.setattr(f"{module}.crossover", reference_crossover)
                monkeypatch.setattr(f"{module}.mutate", reference_mutate)
        space = make_space(case)
        for seed in (0, 7):
            if kind == "evolutionary":
                strategy = EvolutionaryStrategy(
                    space, population_size=10, generations=4, seed=seed, objective=paper_objective
                )
                if use_reference:
                    strategy.objective = reference_paper_objective
            else:
                strategy = NSGA2Strategy(space, population_size=10, generations=4, seed=seed)
            if use_reference:
                strategy = reference_strategy(strategy)
            trails.append(run_populations(strategy, evaluator, results))
    assert trails[:2] == trails[2:]


# -- the input checks around the draws ---------------------------------------------------


class TestInputChecks:
    def test_mutate_rejects_fewer_than_one_mutation(self, visformer_space):
        config = visformer_space.sample(0)
        for count in (0, -1):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(SearchError, match=f"num_mutations must be >= 1, got {count}"):
                mutate(config, visformer_space, rng, num_mutations=count)
            assert rng.bit_generator.state == state

    def test_mutate_applies_as_many_mutations_as_asked(self, visformer_space):
        config = visformer_space.sample(0)
        for count in (1, 2, 3):
            rng = np.random.default_rng(11)
            expected = config
            for _ in range(count):
                expected = mutate(expected, visformer_space, rng)
            assert mutate(config, visformer_space, np.random.default_rng(11), count) == expected

    @pytest.mark.parametrize(
        "ratios", [(float("nan"), 0.5), (float("inf"), 0.5), (0.5, float("-inf")), (0.5, 0.0)]
    )
    def test_non_finite_or_non_positive_ratios_are_rejected(self, visformer_net, platform, ratios):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            SearchSpace(visformer_net, platform, ratio_choices=ratios)
