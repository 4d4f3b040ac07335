"""Pluggable search-engine subsystem.

The engine decomposes the paper's Fig. 5 loop into orthogonal pieces:

* **strategies** (:mod:`repro.engine.strategies`, :mod:`repro.engine.nsga`)
  propose configurations via an ask/tell protocol — the seed's evolutionary
  loop, NSGA-II non-dominated sorting, and a random-search baseline,
* a **cache** (:mod:`repro.engine.cache`) keyed by configuration + evaluator
  content, with hit/miss telemetry and optional JSON-lines persistence,
* the :class:`~repro.engine.backends.SerialBackend`, which scores each
  generation's cache misses in-process.

:class:`~repro.engine.engine.SearchEngine` wires them together and is what
:meth:`repro.core.framework.MapAndConquer.search` runs on.  It is the one
search path: every proposed configuration is scored by the evaluator's cost
model — the analytical oracle or the paper's per-layer GBDT predictor
(:mod:`repro.perf.predictor`) — never by a model of the search objectives.
"""

from .backends import SerialBackend
from .cache import CacheStats, EvaluationCache
from .engine import SearchEngine
from .nsga import NSGA2Strategy, crowding_distance, non_dominated_sort, objective_matrix
from .strategies import EvolutionaryStrategy, RandomStrategy, SearchStrategy

__all__ = [
    "CacheStats",
    "EvaluationCache",
    "SerialBackend",
    "SearchStrategy",
    "EvolutionaryStrategy",
    "RandomStrategy",
    "NSGA2Strategy",
    "non_dominated_sort",
    "crowding_distance",
    "objective_matrix",
    "SearchEngine",
]
