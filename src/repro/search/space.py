"""Search-space encoding and sampling (Sect. V-A).

A candidate solution is the full configuration ``Pi = (P, I, M, theta)``:
the partition matrix, the indicator matrix, the stage-to-CU mapping and the
per-stage DVFS operating point.  :class:`MappingConfig` is the immutable
encoding of one candidate; :class:`SearchSpace` knows the discrete choices
available for each component (derived from the network's layer widths and the
platform's hardware composition) and can sample, repair and size the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, MappingError
from ..nn.graph import NetworkGraph
from ..nn.partition import RATIO_CHOICES, IndicatorMatrix, PartitionMatrix, backbone_layers
from ..soc.platform import Platform
from ..utils import as_rng

__all__ = ["MappingConfig", "SearchSpace"]


@dataclass(frozen=True)
class MappingConfig:
    """One point ``Pi = (P, I, M, theta)`` of the joint search space.

    Attributes
    ----------
    partition:
        The ``P`` matrix (stage x layer width fractions).
    indicator:
        The ``I`` matrix (stage x layer feature-reuse bits).
    unit_names:
        Compute unit hosting each stage, in stage order (the ``M`` vector of
        Eq. 7); entries must be distinct.
    dvfs_indices:
        Index into the hosting unit's DVFS table for each stage (``theta``).

    Configurations compare and hash by content (the matrices by shape and
    bytes), so equal candidates deduplicate in sets and dicts.
    """

    partition: PartitionMatrix
    indicator: IndicatorMatrix
    unit_names: Tuple[str, ...]
    dvfs_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_names", tuple(self.unit_names))
        object.__setattr__(self, "dvfs_indices", tuple(map(int, self.dvfs_indices)))
        num_stages = self.partition.num_stages
        if self.indicator.values.shape != self.partition.values.shape:
            raise ConfigurationError("P and I must have identical shapes")
        if len(self.unit_names) != num_stages:
            raise MappingError(
                f"expected {num_stages} unit names, got {len(self.unit_names)}"
            )
        if len(set(self.unit_names)) != len(self.unit_names):
            raise MappingError(f"stages must map to distinct units, got {self.unit_names}")
        if len(self.dvfs_indices) != num_stages:
            raise MappingError(
                f"expected {num_stages} DVFS indices, got {len(self.dvfs_indices)}"
            )
        if min(self.dvfs_indices) < 0:
            raise MappingError("DVFS indices must be non-negative")

    @property
    def num_stages(self) -> int:
        """Number of inference stages ``M``."""
        return self.partition.num_stages

    @property
    def num_layers(self) -> int:
        """Number of backbone layers ``n``."""
        return self.partition.num_layers

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps reused."""
        return self.indicator.reuse_fraction()

    def describe(self) -> str:
        """Compact one-line description used in reports and logs."""
        mapping = ", ".join(
            f"S{index + 1}->{name}@{dvfs}"
            for index, (name, dvfs) in enumerate(zip(self.unit_names, self.dvfs_indices))
        )
        return (
            f"{self.num_stages} stages [{mapping}], "
            f"reuse={self.reuse_fraction():.0%}"
        )


class SearchSpace:
    """Discrete search space of mapping configurations for one network/platform.

    Parameters
    ----------
    network:
        The pretrained network to transform and map.
    platform:
        Target MPSoC; its number of compute units bounds the number of stages.
    num_stages:
        Number of inference stages ``M``; defaults to the number of compute
        units, as in the paper (one stage per CU).
    ratio_choices:
        Discrete per-layer width-fraction choices used when sampling ``P``
        (the paper uses 8 ratios); each must be positive and finite.
    reuse_prior:
        Probability that a forwardable feature map is reused when sampling
        ``I`` unconstrained.
    max_reuse_fraction:
        Optional hard cap on the sampled reuse fraction (the 75 % / 50 %
        constraint scenarios of Fig. 6); sampled indicators are repaired to
        satisfy it.
    """

    def __init__(
        self,
        network: NetworkGraph,
        platform: Platform,
        num_stages: Optional[int] = None,
        ratio_choices: Sequence[float] = RATIO_CHOICES,
        reuse_prior: float = 0.7,
        max_reuse_fraction: Optional[float] = None,
    ) -> None:
        self.network = network
        self.platform = platform
        self.num_stages = platform.num_units if num_stages is None else int(num_stages)
        if not 1 <= self.num_stages <= platform.num_units:
            raise ConfigurationError(
                f"num_stages must lie in [1, {platform.num_units}], got {self.num_stages}"
            )
        self.backbone = backbone_layers(network)
        self.num_layers = len(self.backbone)
        self.ratio_choices = tuple(float(r) for r in ratio_choices)
        # Written so that a NaN fails it too.
        if not self.ratio_choices or not all(0 < r < math.inf for r in self.ratio_choices):
            raise ConfigurationError("ratio_choices must be non-empty, positive and finite")
        # What a drawn choice index selects; see sample_partition.
        self._ratios = np.array(self.ratio_choices)
        if not 0 <= reuse_prior <= 1:
            raise ConfigurationError(f"reuse_prior must lie in [0, 1], got {reuse_prior}")
        self.reuse_prior = float(reuse_prior)
        if max_reuse_fraction is not None and not 0 <= max_reuse_fraction <= 1:
            raise ConfigurationError(
                f"max_reuse_fraction must lie in [0, 1], got {max_reuse_fraction}"
            )
        self.max_reuse_fraction = max_reuse_fraction
        # Ensure the granularity of every layer admits the requested number of
        # non-empty stages (e.g. a 6-head attention layer cannot feed 7 stages).
        for layer in self.backbone:
            if layer.width // layer.partition_granularity < self.num_stages:
                raise ConfigurationError(
                    f"layer {layer.name!r} cannot be split into {self.num_stages} stages"
                )

    # -- sampling ---------------------------------------------------------------
    def _draw_ratios(self, rng: np.random.Generator, *shape: int) -> np.ndarray:
        """Ratio choices drawn uniformly, one per entry of ``shape``.

        One draw of choice indices: ``rng.choice(self.ratio_choices, size)``
        draws exactly these, in the same order, from the same stream.
        """
        return self._ratios[rng.integers(0, len(self._ratios), size=shape)]

    def sample_partition(self, rng: np.random.Generator) -> PartitionMatrix:
        """Sample a ``P`` matrix from the discrete ratio choices.

        Column by column: each layer's stage ratios are drawn together, then
        divided by their own sum.  The ``(layers, stages)`` draw takes them
        from the generator in that order, and its rows sum along the
        contiguous axis, as each column's 1-D sum did.
        """
        raw = self._draw_ratios(rng, self.num_layers, self.num_stages)
        columns = raw / raw.sum(axis=1, keepdims=True)
        return PartitionMatrix(columns.T.copy())

    def sample_indicator(self, rng: np.random.Generator) -> IndicatorMatrix:
        """Sample an ``I`` matrix, repaired to satisfy the reuse cap if set."""
        values = (rng.random((self.num_stages, self.num_layers)) < self.reuse_prior).astype(int)
        # The last stage has no successor; its bits are irrelevant but kept 0
        # for a canonical encoding.
        values[-1, :] = 0
        indicator = IndicatorMatrix(values)
        return self.repair_indicator(indicator, rng)

    def repair_indicator(
        self, indicator: IndicatorMatrix, rng: np.random.Generator
    ) -> IndicatorMatrix:
        """Clear random reuse bits until the configured cap is satisfied."""
        if self.max_reuse_fraction is None or self.num_stages < 2:
            return indicator
        values = indicator.values.copy()
        values[-1, :] = 0
        budget = int(math.floor(self.max_reuse_fraction * (self.num_stages - 1) * self.num_layers))
        active = np.argwhere(values[:-1, :] == 1)
        if len(active) > budget:
            drop_count = len(active) - budget
            drop_rows = rng.choice(len(active), size=drop_count, replace=False)
            for row in drop_rows:
                stage, layer = active[row]
                values[stage, layer] = 0
        return IndicatorMatrix(values)

    def sample_mapping(self, rng: np.random.Generator) -> Tuple[str, ...]:
        """Sample a stage-to-unit assignment (distinct units, Eq. 7)."""
        chosen = rng.choice(self.platform.num_units, size=self.num_stages, replace=False)
        return tuple(self.platform.compute_units[int(index)].name for index in chosen)

    def sample_dvfs(self, rng: np.random.Generator, unit_names: Sequence[str]) -> Tuple[int, ...]:
        """Sample a DVFS operating point index for each stage's unit."""
        indices = []
        for name in unit_names:
            unit = self.platform.unit(name)
            indices.append(int(rng.integers(0, unit.num_dvfs_points())))
        return tuple(indices)

    def sample(self, seed: int | np.random.Generator | None = None) -> MappingConfig:
        """Sample one complete configuration ``Pi``."""
        generator = as_rng(seed)
        unit_names = self.sample_mapping(generator)
        return MappingConfig(
            partition=self.sample_partition(generator),
            indicator=self.sample_indicator(generator),
            unit_names=unit_names,
            dvfs_indices=self.sample_dvfs(generator, unit_names),
        )

    def population(self, size: int, seed: int | np.random.Generator | None = None) -> list:
        """Sample an initial population of ``size`` configurations."""
        if size < 1:
            raise ConfigurationError(f"population size must be >= 1, got {size}")
        generator = as_rng(seed)
        return [self.sample(generator) for _ in range(size)]

    # -- cardinality ------------------------------------------------------------
    def dvfs_cardinality(self) -> int:
        """Joint number of DVFS settings across the platform's units."""
        return self.platform.dvfs_space_size()

    def mapping_cardinality(self) -> int:
        """Number of distinct stage-to-unit assignments (ordered, no repeats)."""
        return math.perm(self.platform.num_units, self.num_stages)

    def per_layer_cardinality(self) -> int:
        """Size of the mapping space contributed by a single layer.

        This is the quantity the paper reports in Sect. V-A: the partition
        choices of one layer (``|ratios| ** M``) times the stage-to-unit
        assignments times the joint DVFS settings.  For Visformer with 8
        ratios, ``M = 3`` and ~50 DVFS combinations this is O(1.5e5).
        """
        partition_choices = len(self.ratio_choices) ** self.num_stages
        return partition_choices * self.mapping_cardinality() * self.dvfs_cardinality()

    def total_cardinality(self) -> float:
        """Loose upper bound on the size of the full joint space.

        Partition and indicator choices multiply across layers, so the space
        is astronomically large -- the reason the paper uses an evolutionary
        search rather than enumeration.  Returned as a float because it
        overflows 64-bit integers for deep networks.
        """
        partition_choices = float(len(self.ratio_choices)) ** (self.num_stages * self.num_layers)
        indicator_choices = 2.0 ** ((self.num_stages - 1) * self.num_layers)
        return (
            partition_choices
            * indicator_choices
            * self.mapping_cardinality()
            * self.dvfs_cardinality()
        )

    def replace_unit(self, config: MappingConfig, stage: int, unit_name: str) -> MappingConfig:
        """Return a copy of ``config`` with ``stage`` remapped to ``unit_name``.

        If another stage already occupies ``unit_name`` the two stages swap
        units, keeping the assignment a valid permutation.
        """
        if unit_name not in self.platform.unit_names:
            raise MappingError(f"unknown unit {unit_name!r}")
        names = list(config.unit_names)
        dvfs = list(config.dvfs_indices)
        if unit_name in names:
            other = names.index(unit_name)
            names[other], names[stage] = names[stage], names[other]
        else:
            names[stage] = unit_name
        # Clamp every DVFS index to its (possibly new) unit's table size.
        dvfs = [
            min(index, self.platform.unit(name).num_dvfs_points() - 1)
            for index, name in zip(dvfs, names)
        ]
        return replace(config, unit_names=tuple(names), dvfs_indices=tuple(dvfs))
