"""Variation operators for the evolutionary search (mutation & crossover).

The operators work directly on :class:`~repro.search.space.MappingConfig`
instances and always return valid configurations: partition columns stay
normalised, indicator matrices respect the search space's reuse cap, the
stage-to-unit assignment stays a permutation without repeats, and DVFS
indices stay within each unit's table.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import SearchError
from ..nn.partition import IndicatorMatrix, PartitionMatrix
from ..utils import as_rng
from .space import MappingConfig, SearchSpace

__all__ = ["mutate", "crossover"]


def _mutate_partition(
    config: MappingConfig, space: SearchSpace, rng: np.random.Generator
) -> MappingConfig:
    """Resample the partition ratios of one random layer column."""
    values = config.partition.values.copy()
    layer = int(rng.integers(0, space.num_layers))
    raw = space._draw_ratios(rng, space.num_stages)
    values[:, layer] = raw / raw.sum()
    return replace(config, partition=PartitionMatrix(values))


def _mutate_indicator(
    config: MappingConfig, space: SearchSpace, rng: np.random.Generator
) -> MappingConfig:
    """Flip one reuse bit of a non-final stage, then repair to the reuse cap."""
    if space.num_stages < 2:
        return config
    values = config.indicator.values.copy()
    stage = int(rng.integers(0, space.num_stages - 1))
    layer = int(rng.integers(0, space.num_layers))
    values[stage, layer] = 1 - values[stage, layer]
    indicator = space.repair_indicator(IndicatorMatrix(values), rng)
    return replace(config, indicator=indicator)


def _mutate_mapping(
    config: MappingConfig, space: SearchSpace, rng: np.random.Generator
) -> MappingConfig:
    """Remap one stage to a random unit (swapping if that unit is taken)."""
    stage = int(rng.integers(0, space.num_stages))
    unit = space.platform.compute_units[int(rng.integers(0, space.platform.num_units))]
    return space.replace_unit(config, stage, unit.name)


def _mutate_dvfs(
    config: MappingConfig, space: SearchSpace, rng: np.random.Generator
) -> MappingConfig:
    """Random-walk the DVFS operating point of one stage by one step."""
    stage = int(rng.integers(0, space.num_stages))
    unit = space.platform.unit(config.unit_names[stage])
    # The draw rng.choice([-1, 1]) makes, without building an array.
    step = (-1, 1)[rng.integers(0, 2)]
    indices = list(config.dvfs_indices)
    indices[stage] = min(max(indices[stage] + step, 0), unit.num_dvfs_points() - 1)
    return replace(config, dvfs_indices=tuple(indices))


_MUTATIONS = (_mutate_partition, _mutate_indicator, _mutate_mapping, _mutate_dvfs)


def mutate(
    config: MappingConfig,
    space: SearchSpace,
    rng: int | np.random.Generator | None = None,
    num_mutations: int = 1,
) -> MappingConfig:
    """Apply ``num_mutations`` random elementary mutations to ``config``.

    Raises :class:`~repro.errors.SearchError` when ``num_mutations`` is below one.
    """
    if num_mutations < 1:
        raise SearchError(f"num_mutations must be >= 1, got {num_mutations}")
    generator = as_rng(rng)
    mutated = config
    for _ in range(num_mutations):
        operator = _MUTATIONS[int(generator.integers(0, len(_MUTATIONS)))]
        mutated = operator(mutated, space, generator)
    return mutated


def crossover(
    parent_a: MappingConfig,
    parent_b: MappingConfig,
    space: SearchSpace,
    rng: int | np.random.Generator | None = None,
) -> MappingConfig:
    """Uniform layer-wise crossover of two parents.

    Partition and indicator columns are inherited per layer from either
    parent with equal probability; the stage-to-unit mapping and DVFS vector
    are taken together from one parent so they stay mutually consistent.
    """
    generator = as_rng(rng)
    take_b = generator.random(space.num_layers) < 0.5
    partition = np.where(take_b, parent_b.partition.values, parent_a.partition.values)
    indicator = np.where(take_b, parent_b.indicator.values, parent_a.indicator.values)
    mapping_parent = parent_a if generator.random() < 0.5 else parent_b
    child = MappingConfig(
        partition=PartitionMatrix(partition),
        indicator=space.repair_indicator(IndicatorMatrix(indicator), generator),
        unit_names=mapping_parent.unit_names,
        dvfs_indices=mapping_parent.dvfs_indices,
    )
    return child
