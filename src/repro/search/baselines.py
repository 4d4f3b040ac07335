"""Baseline mapping strategies used throughout the evaluation.

Fig. 1 and Table II compare Map-and-Conquer against:

* **GPU-only / DLA-only** -- the whole unmodified network on one compute unit
  (:func:`single_unit_baseline`),
* **static partitioned mapping** -- width-partitioned across all units with
  every feature map exchanged, but no early exits: every input runs all
  stages (:func:`static_partitioned_baseline`).

The random-search optimiser baseline runs through the search engine like
every other strategy: ``MapAndConquer.search(strategy="random")``.

Baselines use an accuracy model without exit penalties/bonuses so the
single-unit rows report exactly the pretrained baseline accuracy, as in
Table II.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..dynamics.accuracy import AccuracyModel
from ..errors import SearchError
from ..nn.graph import NetworkGraph
from ..nn.partition import IndicatorMatrix, PartitionMatrix, backbone_layers
from ..perf.layer_cost import CostModel
from ..soc.platform import Platform
from .evaluation import ConfigEvaluator, EvaluatedConfig
from .space import MappingConfig

__all__ = ["single_unit_baseline", "static_partitioned_baseline"]


def _baseline_evaluator(
    network: NetworkGraph,
    platform: Platform,
    cost_model: Optional[CostModel],
    seed: int,
) -> ConfigEvaluator:
    """Evaluator whose accuracy model reproduces the pretrained baseline."""
    return ConfigEvaluator(
        network=network,
        platform=platform,
        cost_model=cost_model,
        accuracy_model=AccuracyModel(exit_bonus=0.0, exit_penalty=0.0),
        seed=seed,
    )


def single_unit_baseline(
    network: NetworkGraph,
    platform: Platform,
    unit_name: str,
    cost_model: Optional[CostModel] = None,
    dvfs_index: Optional[int] = None,
    seed: int = 0,
) -> EvaluatedConfig:
    """Map the whole (static) network onto a single compute unit.

    This is the "GPU-Only" / "DLA-Only" row of Fig. 1 and Table II: one
    stage owning 100 % of every layer, no feature reuse, no early exits
    (a single-stage cascade always terminates at its only exit).
    """
    unit = platform.unit(unit_name)
    num_layers = len(backbone_layers(network))
    config = MappingConfig(
        partition=PartitionMatrix(np.ones((1, num_layers))),
        indicator=IndicatorMatrix(np.zeros((1, num_layers), dtype=int)),
        unit_names=(unit_name,),
        dvfs_indices=(unit.num_dvfs_points() - 1 if dvfs_index is None else int(dvfs_index),),
    )
    evaluator = _baseline_evaluator(network, platform, cost_model, seed)
    return evaluator.evaluate(config)


def static_partitioned_baseline(
    network: NetworkGraph,
    platform: Platform,
    cost_model: Optional[CostModel] = None,
    unit_names: Optional[Tuple[str, ...]] = None,
    seed: int = 0,
) -> EvaluatedConfig:
    """Width-partition the network across units with full feature exchange.

    This is the "static mapping" strategy of the motivational example
    (Fig. 1): the model is split uniformly along its width and distributed
    over the compute units, every intermediate feature map is exchanged, and
    there are no early exits -- so the relevant metrics are the *worst-case*
    latency and energy of the returned configuration (all stages always run).
    """
    names = tuple(unit_names) if unit_names is not None else platform.unit_names
    if len(set(names)) != len(names):
        raise SearchError(f"unit names must be distinct, got {names}")
    num_stages = len(names)
    num_layers = len(backbone_layers(network))
    indicator = np.ones((num_stages, num_layers), dtype=int)
    indicator[-1, :] = 0
    config = MappingConfig(
        partition=PartitionMatrix.uniform(num_stages, num_layers),
        indicator=IndicatorMatrix(indicator),
        unit_names=names,
        dvfs_indices=tuple(
            platform.unit(name).num_dvfs_points() - 1 for name in names
        ),
    )
    evaluator = _baseline_evaluator(network, platform, cost_model, seed)
    return evaluator.evaluate(config)
