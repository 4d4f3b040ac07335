"""Pareto analysis of evaluated configurations.

Once the search budget expires, the paper computes a Pareto set over all
generated populations and extracts the preferred dynamic mapping from it
(Sect. V-C); Table II then reports the most latency-oriented ("Ours-L") and
most energy-oriented ("Ours-E") Pareto models.  This module provides the
non-dominated sorting and the selection rules.

Which axes are sorted is no longer hardwired: every function takes an
optional :class:`~repro.search.objectives.ObjectiveSet` (or, for backward
compatibility, a sequence of already-minimised key callables) and defaults to
:data:`~repro.search.objectives.DEFAULT_OBJECTIVES` — the seed's
(latency, energy, -accuracy) behaviour, byte for byte.

:func:`pareto_front` reads each candidate's row once and sweeps the rows in
lexicographic order against the front found so far.  A set holding a
:class:`~repro.search.objectives.MeasuredWaitExtractor` is the exception:
each of its reads is a counted serving-cache lookup (the campaign summaries
and cell statistics report them), so its front keeps the pairwise reads it
always made.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import SearchError
from .evaluation import EvaluatedConfig
from .objectives import (
    MeasuredWaitExtractor,
    _accuracy_term,
    as_objective_set,
    energy_oriented_objective,
    latency_oriented_objective,
    nan_guarded,
    serving_oriented_objective,
)

__all__ = [
    "dominates",
    "pareto_front",
    "hypervolume",
    "select_latency_oriented",
    "select_energy_oriented",
    "select_serving_oriented",
    "select_measured_serving",
]


def _dominates(first: Sequence[float], second: Sequence[float]) -> bool:
    """Whether minimised row ``first`` Pareto-dominates row ``second``.

    No entry worse and at least one strictly better, compared pairwise as
    ``all(a <= b) and any(a < b)`` would (a NaN makes ``a <= b`` false, so a
    row holding one neither dominates nor is dominated), stopping at the
    first worse entry.
    """
    better = False
    for a, b in zip(first, second):
        if not a <= b:
            return False
        if a < b:
            better = True
    return better


def dominates(
    first: EvaluatedConfig,
    second: EvaluatedConfig,
    objectives=None,
) -> bool:
    """Whether ``first`` Pareto-dominates ``second`` (all objectives minimised).

    Reads ``objectives.values(first)``, then ``objectives.values(second)``,
    and compares the rows with the same test :func:`pareto_front` applies.
    """
    objective_set = as_objective_set(objectives)
    return _dominates(objective_set.values(first), objective_set.values(second))


def pareto_front(
    evaluated: Sequence[EvaluatedConfig],
    objectives=None,
) -> list:
    """Non-dominated subset of ``evaluated`` under the given objectives, in input order.

    Each position's row is read once through ``objectives.values``, in input
    order.  The rows are then visited in lexicographic order and each is
    tested only against the front found so far; the kept candidates are
    returned in input order.  This keeps exactly the pairwise members: a
    row's dominators all sort strictly before it, and ``values`` maps NaN to
    ``+inf``, so the rows are totally ordered.  Equal rows never dominate
    each other, so duplicate rows, and an object listed twice, are kept or
    dropped together.

    A set whose specs hold a
    :class:`~repro.search.objectives.MeasuredWaitExtractor` keeps the
    pairwise reads instead, because each of its reads is a counted
    serving-cache lookup: each candidate is checked against every other
    candidate in input order, reading ``values(other)`` and then
    ``values(candidate)`` for each pair, until one dominates it.  Either way
    rows are compared with the row test :func:`dominates` uses, without
    calling :func:`dominates`, so that entry point sees no calls from here.
    """
    objective_set = as_objective_set(objectives)
    values = objective_set.values
    if any(isinstance(spec.extractor, MeasuredWaitExtractor) for spec in objective_set.specs):
        front = []
        for candidate in evaluated:
            for other in evaluated:
                if other is not candidate and _dominates(values(other), values(candidate)):
                    break
            else:
                front.append(candidate)
        return front
    items = list(evaluated)
    rows = [values(item) for item in items]
    kept = []
    front_rows = []
    for position in sorted(range(len(rows)), key=rows.__getitem__):
        row = rows[position]
        for member in front_rows:
            if _dominates(member, row):
                break
        else:
            front_rows.append(row)
            kept.append(position)
    kept.sort()
    return [items[position] for position in kept]


def _hv_recursive(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Hypervolume by dimension sweep: slabs along the first objective times
    the recursively computed hypervolume of the remaining objectives."""
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
        total += width * _hv_recursive(slab, reference[1:])
    return total


def hypervolume(
    evaluated: Sequence[EvaluatedConfig],
    reference: Sequence[float],
    objectives=None,
) -> float:
    """Dominated hypervolume of ``evaluated`` against a reference point.

    All objectives are minimised (the default set is latency, energy and
    negated accuracy); ``reference`` is a point in the same minimised space
    that every interesting candidate should dominate — typically slightly
    worse than the worst observed values.  Candidates that fail to dominate
    the reference in some objective contribute nothing and are dropped.  The
    result grows monotonically as a search discovers better fronts, which is
    what the warm-start convergence benchmark measures.
    """
    objective_set = as_objective_set(objectives)
    reference = tuple(float(value) for value in reference)
    if len(reference) != len(objective_set):
        raise SearchError(
            f"reference point has {len(reference)} coordinates for "
            f"{len(objective_set)} objectives"
        )
    points = set()
    for item in evaluated:
        values = tuple(float(value) for value in objective_set.values(item))
        if all(value < bound for value, bound in zip(values, reference)):
            points.add(values)
    return _hv_recursive(sorted(points), reference)


def _filter_by_accuracy_drop(
    evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float]
) -> list:
    if max_accuracy_drop is None:
        return list(evaluated)
    kept = [e for e in evaluated if e.accuracy_drop <= max_accuracy_drop + 1e-9]
    # If nothing satisfies the accuracy gate, fall back to the most accurate
    # candidates rather than failing -- matching how the paper always reports
    # a model per scenario even when hard constraints cost accuracy.
    if not kept:
        best_drop = min(e.accuracy_drop for e in evaluated)
        kept = [e for e in evaluated if e.accuracy_drop <= best_drop + 1e-9]
    return kept


def select_latency_oriented(
    evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float] = None
) -> EvaluatedConfig:
    """Pick the "Ours-L" model: lowest latency subject to the accuracy gate."""
    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)
    return min(candidates, key=latency_oriented_objective)


def select_energy_oriented(
    evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float] = None
) -> EvaluatedConfig:
    """Pick the "Ours-E" model: lowest energy subject to the accuracy gate."""
    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)
    return min(candidates, key=energy_oriented_objective)


def select_serving_oriented(
    evaluated: Sequence[EvaluatedConfig],
    family=None,
    rate_rps: Optional[float] = None,
    max_accuracy_drop: Optional[float] = None,
) -> EvaluatedConfig:
    """Pick the front member that serves a workload family best.

    Sibling of :func:`select_energy_oriented`: minimises the accuracy-penalised
    M/D/1 sojourn time (service latency plus expected queueing wait) at the
    family's peak request rate, so the pick is the member that still answers
    quickly when the family actually bursts — not just the one that looks
    fastest unloaded.  ``rate_rps`` overrides (or replaces) the family's peak
    rate.  Members whose bottleneck saturates score ``inf`` and lose to any
    member that keeps up.
    """
    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    if rate_rps is None:
        if family is None:
            raise SearchError(
                "select_serving_oriented needs a workload family or an explicit rate_rps"
            )
        rate_rps = family.peak_rate_rps
    rate = float(rate_rps)
    if not rate > 0.0:
        raise SearchError(f"rate_rps must be positive, got {rate_rps}")
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)
    return min(candidates, key=lambda item: serving_oriented_objective(item, rate))


def select_measured_serving(
    evaluated: Sequence[EvaluatedConfig],
    platform,
    family,
    duration_ms: float = 400.0,
    seed: int = 0,
    members: int = 3,
    cache=None,
    max_accuracy_drop: Optional[float] = None,
) -> EvaluatedConfig:
    """Pick the front member that *measurably* serves a family best.

    Sibling of :func:`select_serving_oriented` with the M/D/1 proxy replaced
    by the traffic simulator: each candidate is distilled into a deployment
    and the family's busiest member under ``seed`` is replayed through it in
    one shared :class:`~repro.serving.bridge.ReplayScenario`
    (:func:`~repro.serving.bridge.measured_serving_metrics`), minimising the
    accuracy-penalised measured sojourn time — service latency plus the
    *simulated* mean queueing wait.  Passing the
    :class:`~repro.serving.result_cache.ServingResultCache` used by a
    ``measured_serving_objectives`` search makes the selection free: every
    front member was already simulated during the search.
    """
    from ..serving.bridge import ReplayScenario, measured_serving_metrics
    from ..serving.families import WorkloadFamily

    if not evaluated:
        raise SearchError("cannot select from an empty set of configurations")
    if not isinstance(family, WorkloadFamily):
        raise SearchError(
            f"select_measured_serving needs a WorkloadFamily, "
            f"got {type(family).__name__}"
        )
    _, workload, traffic_seed = family.peak_member(
        int(seed), int(members), probe_ms=float(duration_ms)
    )
    scenario = ReplayScenario(platform, workload, float(duration_ms), traffic_seed)
    candidates = _filter_by_accuracy_drop(evaluated, max_accuracy_drop)

    def measured_sojourn(item: EvaluatedConfig) -> float:
        metrics = measured_serving_metrics(
            item, scenario, cache=cache, family_name=family.name
        )
        return (item.latency_ms + metrics.mean_queueing_ms) * _accuracy_term(item)

    return min(candidates, key=nan_guarded(measured_sojourn))
