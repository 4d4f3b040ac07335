"""NSGA-II style multi-objective strategy (non-dominated sorting + crowding).

The paper scalarises its three objectives into Eq. 16 and extracts a Pareto
set post-hoc; NSGA-II instead maintains Pareto pressure *during* the search
by ranking candidates with fast non-dominated sorting and breaking ties with
crowding distance (Deb et al., 2002).  Constraints are handled with Deb's
constrained-domination rule: every feasible candidate outranks every
infeasible one.

The building blocks (:func:`non_dominated_sort`, :func:`crowding_distance`)
are exported separately so they can be validated against the seed's
:func:`~repro.search.pareto.pareto_front` and reused by reports.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SearchError
from ..search.constraints import SearchConstraints
from ..search.evaluation import EvaluatedConfig
from ..search.objectives import as_objective_set
from ..search.operators import crossover, mutate
from ..search.pareto import _dominates
from ..search.space import MappingConfig, SearchSpace
from .strategies import SearchStrategy

__all__ = ["objective_matrix", "non_dominated_sort", "crowding_distance", "NSGA2Strategy"]


def objective_matrix(
    evaluated: Sequence[EvaluatedConfig], objectives=None
) -> np.ndarray:
    """Stack the objective set as rows of minimised values.

    The default set's columns are (latency, energy, -accuracy), matching the
    keys the seed's Pareto analysis minimises; a custom
    :class:`~repro.search.objectives.ObjectiveSet` adds or replaces columns.
    """
    return as_objective_set(objectives).matrix(evaluated)


def non_dominated_sort(values: np.ndarray) -> List[List[int]]:
    """Partition row indices of ``values`` into successive Pareto fronts.

    ``values`` holds one row per candidate, all objectives minimised.  The
    first front contains exactly the non-dominated rows; removing it, the
    second front is the non-dominated remainder, and so on.

    The matrix is converted to Python floats once and each pair of rows is
    compared with the Pareto analysis's dominance test
    (:func:`~repro.search.pareto.dominates`), which answers as numpy's
    ``all(first <= second) and any(first < second)`` would, NaN and
    infinities included.
    """
    rows = np.asarray(values).tolist()
    count = len(rows)
    dominated_by: List[List[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    for i in range(count):
        first = rows[i]
        for j in range(i + 1, count):
            second = rows[j]
            if _dominates(first, second):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif _dominates(second, first):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: List[List[int]] = []
    current = [i for i in range(count) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        upcoming: List[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    upcoming.append(j)
        current = upcoming
    return fronts


def crowding_distance(values: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of ``values`` within its front.

    Boundary candidates of every objective get infinite distance so they are
    always preferred; interior candidates get the normalised side length of
    the cuboid spanned by their neighbours.
    """
    count, num_objectives = values.shape
    distance = np.zeros(count)
    if count <= 2:
        return np.full(count, np.inf)
    for objective in range(num_objectives):
        column = values[:, objective]
        if not np.all(np.isfinite(column)):
            # Saturated serving objectives legitimately score inf; clamping
            # the non-finite entries to the finite range keeps every gap and
            # gap/spread below well defined (inf - inf or inf/inf would put
            # NaN into the survivor sort).  The clamped entries still sort to
            # the column's ends and collect infinite boundary distance.
            finite = column[np.isfinite(column)]
            if finite.size == 0:
                continue
            column = np.clip(column, finite.min(), finite.max())
        order = np.argsort(column, kind="stable")
        spread = column[order[-1]] - column[order[0]]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if spread <= 0:
            continue
        for position in range(1, count - 1):
            index = order[position]
            gap = column[order[position + 1]] - column[order[position - 1]]
            distance[index] += gap / spread
    return distance


class NSGA2Strategy(SearchStrategy):
    """NSGA-II over the joint mapping space, at the paper's budget shape.

    Every generation proposes ``population_size`` offspring bred from the
    current parents by binary tournament on (front rank, crowding distance),
    then keeps the best ``population_size`` of parents + offspring.  The
    total evaluation budget therefore matches the evolutionary strategy:
    ``generations x population_size`` proposals.
    """

    def __init__(
        self,
        space: SearchSpace,
        constraints: Optional[SearchConstraints] = None,
        population_size: int = 60,
        generations: int = 200,
        mutation_rate: float = 0.8,
        seed: "int | np.random.Generator | None" = 0,
        initial_population: Optional[Sequence[MappingConfig]] = None,
        objectives=None,
    ) -> None:
        super().__init__(space, population_size, generations, seed, initial_population)
        if not 0 <= mutation_rate <= 1:
            raise SearchError(f"mutation_rate must lie in [0, 1], got {mutation_rate}")
        self.constraints = constraints if constraints is not None else SearchConstraints()
        self.mutation_rate = mutation_rate
        self.objectives = as_objective_set(objectives)
        self._parents: List[EvaluatedConfig] = []
        # Selection-time (rank, crowding) of the surviving parents, reused by
        # the next _breed so the domination sort runs once per generation.
        self._parent_ranks = np.zeros(0, dtype=int)
        self._parent_crowding = np.zeros(0)

    # -- ask/tell ----------------------------------------------------------------
    def ask(self) -> List[MappingConfig]:
        if self._generation >= self.generations:
            return []
        if not self._parents:
            return self._first_population()
        return self._breed()

    def tell(self, evaluated: List[EvaluatedConfig]) -> None:
        self._generation += 1
        combined = self._parents + list(evaluated)
        (
            self._parents,
            self._parent_ranks,
            self._parent_crowding,
        ) = self._select_survivors(combined, self.population_size)

    # -- internals ---------------------------------------------------------------
    def _is_feasible(self, item: EvaluatedConfig) -> bool:
        return self.constraints.is_feasible(item, platform=self.space.platform)

    def _rank(
        self, items: Sequence[EvaluatedConfig]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-item (front rank, crowding distance) with constrained domination.

        Feasible candidates are front-sorted among themselves; infeasible
        candidates are pushed behind every feasible front, ordered by their
        own non-dominated sorting so a barely infeasible region still keeps
        gradient.
        """
        ranks = np.zeros(len(items), dtype=int)
        crowding = np.zeros(len(items))
        feasible_idx = [i for i, item in enumerate(items) if self._is_feasible(item)]
        feasible_set = set(feasible_idx)
        infeasible_idx = [i for i in range(len(items)) if i not in feasible_set]
        offset = 0
        for group in (feasible_idx, infeasible_idx):
            if not group:
                continue
            values = objective_matrix([items[i] for i in group], self.objectives)
            fronts = non_dominated_sort(values)
            for front_rank, front in enumerate(fronts):
                front_values = values[front]
                front_crowding = crowding_distance(front_values)
                for local, member in enumerate(front):
                    ranks[group[member]] = offset + front_rank
                    crowding[group[member]] = front_crowding[local]
            offset += len(fronts)
        return ranks, crowding

    def _select_survivors(
        self, items: List[EvaluatedConfig], capacity: int
    ) -> Tuple[List[EvaluatedConfig], np.ndarray, np.ndarray]:
        """Best ``capacity`` of ``items`` plus their selection-time scores."""
        ranks, crowding = self._rank(items)
        # Sort by (rank asc, crowding desc); stable so earlier items win ties.
        order = sorted(
            range(len(items)), key=lambda i: (ranks[i], -crowding[i])
        )
        chosen = order[:capacity]
        return (
            [items[i] for i in chosen],
            ranks[chosen],
            crowding[chosen],
        )

    def _tournament(self, ranks: np.ndarray, crowding: np.ndarray) -> int:
        first = int(self._rng.integers(0, len(ranks)))
        second = int(self._rng.integers(0, len(ranks)))
        if (ranks[first], -crowding[first]) <= (ranks[second], -crowding[second]):
            return first
        return second

    def _breed(self) -> List[MappingConfig]:
        ranks, crowding = self._parent_ranks, self._parent_crowding
        offspring: List[MappingConfig] = []
        while len(offspring) < self.population_size:
            parent_a = self._parents[self._tournament(ranks, crowding)]
            parent_b = self._parents[self._tournament(ranks, crowding)]
            child = crossover(parent_a.config, parent_b.config, self.space, self._rng)
            if self._rng.random() < self.mutation_rate:
                child = mutate(child, self.space, self._rng)
            offspring.append(child)
        return offspring
