"""The search engine: one evaluation loop for every strategy.

A :class:`~repro.engine.strategies.SearchStrategy` proposes configurations,
and :class:`SearchEngine` resolves them through its content-keyed
:class:`~repro.engine.cache.EvaluationCache`, scores only the uncached
remainder in-process through a :class:`~repro.engine.backends.SerialBackend`,
merges the results back, and records per-generation telemetry (cache
hit-rate, wall-clock) alongside the paper's convergence statistics.

The final :class:`~repro.search.evolutionary.SearchResult` is assembled
exactly as the seed did — history deduplicated (now by content key rather
than object identity), feasibility-filtered pool, Pareto front, best by the
scalar objective — so every downstream consumer keeps working unchanged.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SearchError
from ..search.constraints import SearchConstraints
from ..search.evaluation import ConfigEvaluator, EvaluatedConfig
from ..search.evolutionary import GenerationStats, SearchResult
from ..search.objectives import as_objective_set, nan_guarded, paper_objective
from ..search.pareto import pareto_front
from ..search.space import MappingConfig
from .backends import SerialBackend
from .cache import EvaluationCache
from .strategies import SearchStrategy

__all__ = ["SearchEngine"]


class SearchEngine:
    """Drive a strategy's ask/tell loop through a cache and the evaluator.

    Parameters
    ----------
    evaluator:
        The evaluation pipeline that scores every uncached configuration; also
        provides the content keys the cache and the history deduplication use.
    cache:
        Shared result store; defaults to a fresh in-memory cache.  Pass a
        persistent cache to reuse results across runs.
    constraints, objective:
        Feasibility gate and scalar objective used for the per-generation
        statistics and the final result assembly (strategies receive their
        own copies, typically the same objects).
    objectives:
        :class:`~repro.search.objectives.ObjectiveSet` the final Pareto front
        is computed over.  ``None`` adopts the strategy's own set when it
        declares one (NSGA-II), otherwise the default
        (latency, energy, accuracy) axes.

    Constraints are checked against the evaluator's platform.
    """

    def __init__(
        self,
        evaluator: ConfigEvaluator,
        cache: Optional[EvaluationCache] = None,
        constraints: Optional[SearchConstraints] = None,
        objective: Callable[[EvaluatedConfig], float] = paper_objective,
        objectives=None,
    ) -> None:
        self.evaluator = evaluator
        self.backend = SerialBackend(evaluator)
        self.cache = cache if cache is not None else EvaluationCache()
        self.constraints = constraints if constraints is not None else SearchConstraints()
        self.objective = objective
        self.objectives = None if objectives is None else as_objective_set(objectives)
        self.platform = evaluator.platform

    # -- evaluation --------------------------------------------------------------
    def evaluate_batch(self, configs: Sequence[MappingConfig]) -> List[EvaluatedConfig]:
        """Resolve a batch through the cache, evaluating only the remainder.

        Duplicate configurations inside one batch are evaluated once; results
        come back in the order of ``configs``.
        """
        return self._evaluate_with_digests(configs)[0]

    def _evaluate_with_digests(
        self, configs: Sequence[MappingConfig]
    ) -> Tuple[List[EvaluatedConfig], List[str]]:
        """:meth:`evaluate_batch` plus each result's content digest.

        A lookup is a hit whenever it avoids an evaluation: found in the
        cache, or a duplicate of an earlier config in the same batch
        (resolved or still pending).  Each distinct uncached configuration
        counts as exactly one miss.
        """
        digests = [self.evaluator.content_digest(config) for config in configs]
        # One cache pass for the whole generation: deduplicate the batch
        # (each duplicate is a hit), resolve the distinct digests through
        # get_many, and send only the misses to the backend.
        unique_configs: List[MappingConfig] = []
        unique_digests: List[str] = []
        seen = set()
        for config, digest in zip(configs, digests):
            if digest in seen:
                continue
            seen.add(digest)
            unique_configs.append(config)
            unique_digests.append(digest)
        self.cache.stats.hits += len(digests) - len(unique_digests)
        resolved: Dict[str, EvaluatedConfig] = self.cache.get_many(unique_digests)
        pending = [
            (config, digest)
            for config, digest in zip(unique_configs, unique_digests)
            if digest not in resolved
        ]
        if pending:
            fresh = self.backend.evaluate([config for config, _ in pending])
            fresh_pairs = [(digest, item) for (_, digest), item in zip(pending, fresh)]
            self.cache.store_many(fresh_pairs)
            resolved.update(fresh_pairs)
        return [resolved[digest] for digest in digests], digests

    # -- the loop ----------------------------------------------------------------
    def run(self, strategy: SearchStrategy) -> SearchResult:
        """Run ``strategy`` to exhaustion and assemble the search result."""
        if self.objectives is None:
            # Adopt the strategy's declared set so a custom NSGA-II run gets
            # its final front over the same axes it ranked on.
            self.objectives = getattr(strategy, "objectives", None)
        history: List[EvaluatedConfig] = []
        seen_digests = set()
        stats: List[GenerationStats] = []
        generation = 0
        while True:
            population = strategy.ask()
            if not population:
                break
            window = self.cache.stats.snapshot()
            started = time.perf_counter()
            evaluated, digests = self._evaluate_with_digests(population)
            wall_clock_s = time.perf_counter() - started
            hit_rate = self.cache.stats.window_hit_rate(window)
            new_configs = 0
            for item, digest in zip(evaluated, digests):
                if digest not in seen_digests:
                    seen_digests.add(digest)
                    history.append(item)
                    new_configs += 1
            feasible = [
                item
                for item in evaluated
                if self.constraints.is_feasible(item, platform=self.platform)
            ]
            ranked_pool = feasible if feasible else evaluated
            best = min(ranked_pool, key=nan_guarded(self.objective))
            stats.append(
                GenerationStats(
                    generation=generation,
                    evaluated=len(evaluated),
                    feasible=len(feasible),
                    best_objective=float(self.objective(best)),
                    best_latency_ms=best.latency_ms,
                    best_energy_mj=best.energy_mj,
                    best_accuracy=best.accuracy,
                    cache_hit_rate=hit_rate,
                    wall_clock_s=wall_clock_s,
                    new_configs=new_configs,
                )
            )
            strategy.tell(evaluated)
            generation += 1
        if not history:
            raise SearchError("strategy proposed no configurations to evaluate")
        return self._assemble(history, stats)

    # -- result assembly ---------------------------------------------------------
    def _assemble(
        self, history: List[EvaluatedConfig], stats: List[GenerationStats]
    ) -> SearchResult:
        all_feasible: Tuple[EvaluatedConfig, ...] = tuple(
            item
            for item in history
            if self.constraints.is_feasible(item, platform=self.platform)
        )
        candidate_pool = all_feasible if all_feasible else tuple(history)
        front = tuple(pareto_front(list(candidate_pool), self.objectives))
        best_overall = min(candidate_pool, key=nan_guarded(self.objective))
        return SearchResult(
            history=tuple(history),
            feasible=all_feasible,
            pareto=front,
            best=best_overall,
            generations=tuple(stats),
        )
