"""Search strategies behind a small ask/tell protocol.

A :class:`SearchStrategy` proposes batches of configurations (``ask``) and
learns from their evaluations (``tell``); it never evaluates anything itself.
That inversion — the engine owns evaluation, the strategy owns variation and
selection — is what lets every optimiser share one cache and one evaluation
loop (:class:`~repro.engine.engine.SearchEngine`).

Strategies provided here:

* :class:`EvolutionaryStrategy` — the paper's elite-selection loop (Fig. 5),
  ported verbatim from the seed's search loop: identical RNG consumption,
  identical populations, identical results for a given seed.
* :class:`RandomStrategy` — uniform random sampling at the same budget, the
  sanity-check baseline every optimiser must beat.

The NSGA-II strategy lives in :mod:`repro.engine.nsga`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SearchError
from ..search.constraints import SearchConstraints
from ..search.evaluation import EvaluatedConfig
from ..search.objectives import nan_guarded, paper_objective
from ..search.operators import crossover, mutate
from ..search.space import MappingConfig, SearchSpace
from ..utils import as_rng

__all__ = [
    "STRATEGY_NAMES",
    "check_strategy_name",
    "SearchStrategy",
    "EvolutionaryStrategy",
    "RandomStrategy",
]


#: Strategy names accepted by :meth:`MapAndConquer.search` and the campaign
#: runners' ``strategy=``.
STRATEGY_NAMES = ("evolutionary", "nsga2", "random")


def check_strategy_name(strategy) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``strategy`` is
    one of :data:`STRATEGY_NAMES`.

    Only names are accepted; a configured :class:`SearchStrategy` runs on
    :class:`~repro.engine.engine.SearchEngine` directly.
    """
    if isinstance(strategy, str) and strategy in STRATEGY_NAMES:
        return
    if isinstance(strategy, SearchStrategy):
        raise ConfigurationError(
            f"strategy must be one of {STRATEGY_NAMES}, not a "
            f"{type(strategy).__name__} instance; run a configured strategy with "
            "SearchEngine(evaluator=framework.evaluator).run(strategy)"
        )
    raise ConfigurationError(
        f"unknown strategy {strategy!r}; expected one of {STRATEGY_NAMES}"
    )


class SearchStrategy:
    """Ask/tell interface every optimiser implements.

    The engine alternates ``ask`` / ``tell`` until ``ask`` returns an empty
    batch, then assembles the :class:`~repro.search.evolutionary.SearchResult`
    from everything evaluated along the way.

    The base owns what every strategy shares: the ``generations x
    population_size`` budget, the seeded generator, the generation counter
    and the warm-start seeds.  ``initial_population`` holds configurations
    evaluated as-is in the first generation; seeds beyond
    ``population_size`` are rejected rather than silently dropped, since the
    caller chose them deliberately (the campaign runner caps donor fronts
    before handing them over).

    A strategy that optimises a specific
    :class:`~repro.search.objectives.ObjectiveSet` (NSGA-II does) exposes it
    as ``objectives`` so the engine can assemble the final Pareto front over
    the same axes the strategy ranked on; scalar strategies leave it ``None``
    and the engine falls back to the default set.
    """

    objectives = None

    def __init__(
        self,
        space: SearchSpace,
        population_size: int = 60,
        generations: int = 200,
        seed: "int | np.random.Generator | None" = 0,
        initial_population: Optional[Sequence[MappingConfig]] = None,
    ) -> None:
        if population_size < 2:
            raise SearchError(f"population_size must be >= 2, got {population_size}")
        if generations < 1:
            raise SearchError(f"generations must be >= 1, got {generations}")
        seeds = () if initial_population is None else tuple(initial_population)
        for item in seeds:
            if not isinstance(item, MappingConfig):
                raise SearchError(
                    f"initial_population must contain MappingConfig instances, "
                    f"got {type(item).__name__}"
                )
        if len(seeds) > population_size:
            raise SearchError(
                f"initial_population has {len(seeds)} seeds but the population "
                f"holds only {population_size}; trim the seeds explicitly"
            )
        self.space = space
        self.population_size = population_size
        self.generations = generations
        self.initial_population: Tuple[MappingConfig, ...] = seeds
        self._rng = as_rng(seed)
        self._generation = 0

    def ask(self) -> List[MappingConfig]:
        """Propose the next batch of configurations (empty when done)."""
        raise NotImplementedError

    def tell(self, evaluated: List[EvaluatedConfig]) -> None:
        """Ingest the evaluations of the batch returned by the last ``ask``."""
        raise NotImplementedError

    def _first_population(self) -> List[MappingConfig]:
        """Warm-start seeds first, random samples fill the rest.

        Without seeds this consumes the generator exactly like the seed
        repository's cold start, so existing runs stay bit-for-bit
        reproducible.
        """
        seeds = list(self.initial_population)
        remainder = self.population_size - len(seeds)
        return seeds + (self.space.population(remainder, self._rng) if remainder else [])


class EvolutionaryStrategy(SearchStrategy):
    """Elite-selection evolutionary loop of Fig. 5 as an ask/tell strategy.

    This is the seed's search loop with evaluation carved out: sampling,
    ranking, elitism, crossover, mutation and fresh-sample top-up are
    unchanged and consume the RNG in the same order, so a given seed
    reproduces the seed repository's populations bit for bit.
    """

    def __init__(
        self,
        space: SearchSpace,
        objective: Callable[[EvaluatedConfig], float] = paper_objective,
        constraints: Optional[SearchConstraints] = None,
        population_size: int = 60,
        generations: int = 200,
        elite_fraction: float = 0.25,
        mutation_rate: float = 0.8,
        fresh_fraction: float = 0.10,
        seed: "int | np.random.Generator | None" = 0,
        initial_population: Optional[Sequence[MappingConfig]] = None,
    ) -> None:
        super().__init__(space, population_size, generations, seed, initial_population)
        if not 0 < elite_fraction <= 1:
            raise SearchError(f"elite_fraction must lie in (0, 1], got {elite_fraction}")
        if not 0 <= mutation_rate <= 1:
            raise SearchError(f"mutation_rate must lie in [0, 1], got {mutation_rate}")
        if not 0 <= fresh_fraction < 1:
            raise SearchError(f"fresh_fraction must lie in [0, 1), got {fresh_fraction}")
        self.objective = objective
        self.constraints = constraints if constraints is not None else SearchConstraints()
        self.elite_fraction = elite_fraction
        self.mutation_rate = mutation_rate
        self.fresh_fraction = fresh_fraction
        self._population: Optional[List[MappingConfig]] = None

    def ask(self) -> List[MappingConfig]:
        if self._generation >= self.generations:
            return []
        if self._population is None:
            self._population = self._first_population()
        return list(self._population)

    def tell(self, evaluated: List[EvaluatedConfig]) -> None:
        feasible = [
            item
            for item in evaluated
            if self.constraints.is_feasible(item, platform=self.space.platform)
        ]
        ranked = sorted(
            feasible if feasible else list(evaluated), key=nan_guarded(self.objective)
        )
        self._generation += 1
        if self._generation < self.generations:
            self._population = self._next_population(ranked)

    # -- internals ---------------------------------------------------------------
    def _next_population(self, ranked: List[EvaluatedConfig]) -> List[MappingConfig]:
        elite_count = max(1, int(round(self.elite_fraction * len(ranked))))
        elites = [item.config for item in ranked[:elite_count]]
        fresh_count = int(round(self.fresh_fraction * self.population_size))
        population: List[MappingConfig] = list(elites)
        while len(population) < self.population_size - fresh_count:
            parent_a = elites[int(self._rng.integers(0, len(elites)))]
            parent_b = elites[int(self._rng.integers(0, len(elites)))]
            child = crossover(parent_a, parent_b, self.space, self._rng)
            if self._rng.random() < self.mutation_rate:
                child = mutate(child, self.space, self._rng)
            population.append(child)
        while len(population) < self.population_size:
            population.append(self.space.sample(self._rng))
        return population


class RandomStrategy(SearchStrategy):
    """Uniform random search at the same ``generations x population`` budget."""

    def ask(self) -> List[MappingConfig]:
        if self._generation >= self.generations:
            return []
        if self._generation == 0:
            return self._first_population()
        return self.space.population(self.population_size, self._rng)

    def tell(self, evaluated: List[EvaluatedConfig]) -> None:
        self._generation += 1
