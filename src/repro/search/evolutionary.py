"""What a mapping search returns: per-generation statistics and the result.

The loop itself follows the workflow of Fig. 5 and runs in
:class:`~repro.engine.engine.SearchEngine`: every generation a strategy
(:class:`~repro.engine.strategies.EvolutionaryStrategy` by default) proposes
a population, the engine evaluates it, candidates violating the hard
constraints are filtered out, and the survivors seed the next generation.
When the budget expires, the Pareto set over *all* evaluated configurations
is computed (Sect. V-C) and packed into a :class:`SearchResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .evaluation import EvaluatedConfig

__all__ = ["GenerationStats", "SearchResult"]


@dataclass(frozen=True)
class GenerationStats:
    """Aggregate statistics of one generation, for convergence analysis.

    ``cache_hit_rate`` and ``wall_clock_s`` are engine telemetry: the
    fraction of this generation's evaluations served from the shared
    evaluation cache, and the wall-clock time the generation's evaluation
    took (cache lookups plus scoring the misses).  ``new_configs`` counts
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
