"""Optimisation framework (Sect. IV and V of the paper).

The search jointly optimises the configuration ``Pi = (P, I, M, theta)``:

* :mod:`repro.search.space` -- the :class:`MappingConfig` encoding of ``Pi``
  and the :class:`SearchSpace` that samples it (Sect. V-A),
* :mod:`repro.search.evaluation` -- the evaluation pipeline turning a
  configuration into hardware + dynamic-inference metrics (Fig. 5's
  "Evaluate" box),
* :mod:`repro.search.objectives` -- the composite objective of Eq. 16,
  latency/energy/serving-oriented scalarisations, and the first-class
  :class:`~repro.search.objectives.ObjectiveSet` layer (named objectives
  with directions, pluggable through the engine and campaigns),
* :mod:`repro.search.constraints` -- the constraint filter of Eq. 15,
* :mod:`repro.search.operators` -- mutation and crossover,
* :mod:`repro.search.pareto` -- non-dominated sorting and Pareto selection,
* :mod:`repro.search.evolutionary` -- the search result and per-generation
  statistics (the loop itself runs in :mod:`repro.engine`),
* :mod:`repro.search.baselines` -- GPU-only / DLA-only / static-partitioned
  baselines used by Fig. 1 and Table II.
"""

from .space import MappingConfig, SearchSpace
from .evaluation import ConfigEvaluator, EvaluatedConfig
from .objectives import (
    DEFAULT_OBJECTIVES,
    ObjectiveSet,
    ObjectiveSpec,
    as_objective_set,
    default_objective_set,
    energy_oriented_objective,
    latency_oriented_objective,
    MeasuredObjectives,
    measured_serving_objectives,
    nan_guarded,
    paper_objective,
    serving_objectives,
    serving_oriented_objective,
)
from .constraints import SearchConstraints
from .operators import crossover, mutate
from .pareto import (
    pareto_front,
    select_energy_oriented,
    select_latency_oriented,
    select_measured_serving,
    select_serving_oriented,
)
from .evolutionary import SearchResult
from .baselines import single_unit_baseline, static_partitioned_baseline

__all__ = [
    "MappingConfig",
    "SearchSpace",
    "ConfigEvaluator",
    "EvaluatedConfig",
    "paper_objective",
    "energy_oriented_objective",
    "latency_oriented_objective",
    "serving_oriented_objective",
    "nan_guarded",
    "ObjectiveSpec",
    "ObjectiveSet",
    "DEFAULT_OBJECTIVES",
    "default_objective_set",
    "serving_objectives",
    "MeasuredObjectives",
    "measured_serving_objectives",
    "as_objective_set",
    "SearchConstraints",
    "mutate",
    "crossover",
    "pareto_front",
    "select_energy_oriented",
    "select_latency_oriented",
    "select_serving_oriented",
    "select_measured_serving",
    "SearchResult",
    "single_unit_baseline",
    "static_partitioned_baseline",
]
