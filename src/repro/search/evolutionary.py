"""Evolutionary search loop with constraint filtering and elite selection.

The loop follows the workflow of Fig. 5: every generation, the current
population is evaluated (through the pluggable hardware/accuracy pipeline),
candidates violating the hard constraints are filtered out, the survivors are
ranked by the objective, and an elite subset seeds the next generation via
crossover and mutation, topped up with fresh random samples to preserve
diversity.  When the budget expires, the Pareto set over *all* evaluated
configurations is computed (Sect. V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..errors import SearchError
from ..utils import as_rng
from .constraints import SearchConstraints
from .evaluation import ConfigEvaluator, EvaluatedConfig
from .objectives import paper_objective
from .space import SearchSpace

__all__ = ["GenerationStats", "SearchResult", "EvolutionarySearch"]


@dataclass(frozen=True)
class GenerationStats:
    """Aggregate statistics of one generation, for convergence analysis.

    ``cache_hit_rate`` and ``wall_clock_s`` are engine telemetry: the
    fraction of this generation's evaluations served from the shared
    evaluation cache, and the wall-clock time the generation's evaluation
    took (including dispatch to parallel backends).  ``new_configs`` counts
    the configurations this generation contributed to the deduplicated
    search history, so cumulative per-generation fronts (and hence
    hypervolume-convergence curves) can be reconstructed from a
    :class:`SearchResult` without re-running the search.
    """

    generation: int
    evaluated: int
    feasible: int
    best_objective: float
    best_latency_ms: float
    best_energy_mj: float
    best_accuracy: float
    cache_hit_rate: float = 0.0
    wall_clock_s: float = 0.0
    new_configs: int = 0


@dataclass(frozen=True)
class SearchResult:
    """Everything the search produced.

    ``serving_cache_stats`` carries the
    :class:`~repro.serving.result_cache.MeasuredCellStats` of a
    measured-objective campaign cell — deterministic lookup/unique-replay
    counts — and is ``None`` everywhere else (typed loosely to avoid a
    circular import).
    """

    history: Tuple[EvaluatedConfig, ...]
    feasible: Tuple[EvaluatedConfig, ...]
    pareto: Tuple[EvaluatedConfig, ...]
    best: EvaluatedConfig
    generations: Tuple[GenerationStats, ...]
    serving_cache_stats: Optional[object] = None

    @property
    def num_evaluations(self) -> int:
        """Total number of distinct configurations evaluated."""
        return len(self.history)


class EvolutionarySearch:
    """Evolutionary optimisation of mapping configurations (Fig. 5).

    Parameters
    ----------
    space:
        The search space to sample and vary.
    evaluator:
        Evaluation pipeline producing :class:`EvaluatedConfig` instances.
    objective:
        Scalar objective to minimise; defaults to the paper's Eq. 16.
    constraints:
        Hard constraint filter; infeasible candidates are never selected as
        elites (but are kept in the history for analysis).
    population_size, generations:
        Search budget; the paper uses 60 x 200 (= 12 K evaluations).
    elite_fraction:
        Fraction of the feasible population carried over and used as parents.
    mutation_rate:
        Probability that an offspring is mutated after crossover.
    fresh_fraction:
        Fraction of every new population drawn uniformly at random.
    seed:
        Seed for all stochastic decisions.
    """

    def __init__(
        self,
        space: SearchSpace,
        evaluator: ConfigEvaluator,
        objective: Callable[[EvaluatedConfig], float] = paper_objective,
        constraints: Optional[SearchConstraints] = None,
        population_size: int = 60,
        generations: int = 200,
        elite_fraction: float = 0.25,
        mutation_rate: float = 0.8,
        fresh_fraction: float = 0.10,
        seed: int = 0,
    ) -> None:
        if population_size < 2:
            raise SearchError(f"population_size must be >= 2, got {population_size}")
        if generations < 1:
            raise SearchError(f"generations must be >= 1, got {generations}")
        if not 0 < elite_fraction <= 1:
            raise SearchError(f"elite_fraction must lie in (0, 1], got {elite_fraction}")
        if not 0 <= mutation_rate <= 1:
            raise SearchError(f"mutation_rate must lie in [0, 1], got {mutation_rate}")
        if not 0 <= fresh_fraction < 1:
            raise SearchError(f"fresh_fraction must lie in [0, 1), got {fresh_fraction}")
        self.space = space
        self.evaluator = evaluator
        self.objective = objective
        self.constraints = constraints if constraints is not None else SearchConstraints()
        self.population_size = population_size
        self.generations = generations
        self.elite_fraction = elite_fraction
        self.mutation_rate = mutation_rate
        self.fresh_fraction = fresh_fraction
        self._rng = as_rng(seed)

    # -- public API ---------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run the full search and return its result.

        Since the engine refactor this is a thin composition: the loop's
        sampling/selection logic lives in
        :class:`~repro.engine.strategies.EvolutionaryStrategy` (same RNG
        consumption, bit-for-bit identical populations for a given seed) and
        evaluation, caching and history bookkeeping live in
        :class:`~repro.engine.engine.SearchEngine`.  History deduplication is
        by the evaluator's content key, so ``num_evaluations`` stays correct
        even with backends that do not share the evaluator's object cache.
        """
        # Imported here: the engine package depends on this module for the
        # result types, so a module-level import would be circular.
        from ..engine.backends import SerialBackend
        from ..engine.engine import SearchEngine
        from ..engine.strategies import EvolutionaryStrategy

        strategy = EvolutionaryStrategy(
            space=self.space,
            objective=self.objective,
            constraints=self.constraints,
            population_size=self.population_size,
            generations=self.generations,
            elite_fraction=self.elite_fraction,
            mutation_rate=self.mutation_rate,
            fresh_fraction=self.fresh_fraction,
            seed=self._rng,
        )
        engine = SearchEngine(
            evaluator=self.evaluator,
            backend=SerialBackend(self.evaluator),
            constraints=self.constraints,
            objective=self.objective,
            platform=self.space.platform,
        )
        return engine.run(strategy)
