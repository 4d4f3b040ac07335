"""Static-to-dynamic transformation: one candidate's multi-exit network (Eq. 5-6).

Stage ``S_i`` is the chain of its sub-layers ``l^j_i`` with an exit
classifier at its tail, so it can end the inference early.  A
:class:`DynamicNetwork` is the view of one candidate: its ``(P, I)`` pair and
the one-row :class:`~repro.nn.partition.NetworkArrays` of what every
sub-layer and exit head receives, which the hardware model in
:mod:`repro.perf` schedules.  The exit coverages the accuracy model in
:mod:`repro.dynamics` reads come from the same arrays
(:func:`stage_coverage_arrays`), for one candidate or a whole generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .channels import ChannelRanking
from .graph import NetworkGraph
from .layers import Layer
from .partition import (
    IndicatorMatrix,
    NetworkArrays,
    PartitionMatrix,
    backbone_layers,
    network_arrays,
)

__all__ = ["DynamicNetwork", "build_dynamic_network"]


@dataclass(frozen=True)
class DynamicNetwork:
    """The dynamic multi-exit network ``NN_dyn`` of one candidate, as a view.

    ``arrays`` is the candidate's one-row
    :class:`~repro.nn.partition.NetworkArrays`, derived from the other
    fields by :func:`build_dynamic_network`; it takes no part in ``==``.
    """

    network: NetworkGraph
    partition: PartitionMatrix
    indicator: IndicatorMatrix
    arrays: NetworkArrays = field(compare=False)
    ranking: Optional[ChannelRanking] = None
    reordered: bool = True

    @property
    def num_stages(self) -> int:
        """Number of inference stages ``M``."""
        return self.partition.num_stages

    @property
    def num_layers(self) -> int:
        """Number of backbone layers per stage."""
        return self.partition.num_layers

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps reused (Table II column)."""
        return self.indicator.reuse_fraction()

    def stored_feature_bytes(self) -> int:
        """Shared-memory footprint of forwarded features (Eq. 15 constraint)."""
        return int(self.arrays.stored_bytes[0])

    def stage_coverage(self, stage: int) -> float:
        """Importance mass available to stage ``stage``'s exit, in ``[0, 1]``.

        For every backbone layer we take the channels computed by this stage
        plus the channels of earlier stages whose features are reused, measure
        the channel-importance mass of that set, and average over layers.
        With channel reordering on, stage ranges are contiguous blocks of the
        importance-sorted ordering, so stage 0 holds the most valuable
        channels; with reordering off, mass reduces to the plain width
        fraction -- the quantity that makes the reordering ablation visible.
        """
        if not 0 <= stage < self.num_stages:
            raise ConfigurationError(f"stage index {stage} out of range [0, {self.num_stages})")
        return self._coverages()[stage]

    def _coverages(self) -> List[float]:
        """Every stage's :meth:`stage_coverage`, from the one-row arrays."""
        backbone = backbone_layers(self.network)
        curves = None
        if self.reordered and self.ranking is not None:
            curves = importance_curves(self.ranking, backbone)
        return stage_coverage_arrays(self.arrays, backbone, curves)[0].tolist()


def build_dynamic_network(
    network: NetworkGraph,
    partition: PartitionMatrix,
    indicator: IndicatorMatrix,
    ranking: Optional[ChannelRanking] = None,
    reorder: bool = True,
) -> DynamicNetwork:
    """The dynamic multi-exit network of a ``(P, I)`` choice, as a view.

    Parameters
    ----------
    network:
        The pretrained static network to transform.
    partition, indicator:
        The ``P`` and ``I`` matrices of Eq. 4, sized for the network backbone.
    ranking:
        Channel-importance ranking used for the Sect. V-D reordering and the
        accuracy coverage computation.  Optional; without it coverage falls
        back to plain width fractions.
    reorder:
        Whether to apply importance reordering (the paper's default).  The
        ablation benches set this to ``False``.
    """
    arrays = network_arrays(network, backbone_layers(network), [partition], [indicator])
    return DynamicNetwork(
        network=network,
        partition=partition,
        indicator=indicator,
        arrays=arrays,
        ranking=ranking,
        reordered=reorder and ranking is not None,
    )


def importance_curves(
    ranking: ChannelRanking, layers: Sequence[Layer]
) -> Tuple[np.ndarray, np.ndarray]:
    """Each layer's cumulative importance curve, led by a zero, laid end to end.

    Entry ``c`` of a layer's curve is the importance mass of its ``c`` most
    important channels, so a channel range ``[start, end)`` of the
    importance-sorted order holds ``curve[end] - curve[start]``.  Returns the
    curves and the offset at which each starts, ``(flat, offsets)``.

    Raises
    ------
    ConfigurationError
        If the ranking scores a layer with more or fewer channels than the
        layer is wide: its curve would read into its neighbour's.
    """
    curves = []
    for layer in layers:
        curve = ranking.cumulative_curve(layer.name)
        if curve.size != layer.width:
            raise ConfigurationError(
                f"the ranking scores {curve.size} channels of layer {layer.name!r}, "
                f"which is {layer.width} wide"
            )
        curves.append([0.0] + curve.tolist())
    offsets = np.cumsum([0] + [len(curve) for curve in curves[:-1]])
    return np.concatenate(curves), offsets


def stage_coverage_arrays(
    arrays: NetworkArrays,
    backbone: Sequence[Layer],
    curves: Optional[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Every stage's :meth:`DynamicNetwork.stage_coverage`, ``(candidates, stages)``.

    ``curves`` is the backbone's :func:`importance_curves` when channels are
    reordered by importance, ``None`` for plain width fractions.  Stage by
    stage, each mass takes the stage's own block, then each reused earlier
    block, and the layer mean reduces each row along the contiguous last
    axis.
    """
    channels, reused = arrays.channels, arrays.reused
    if curves is None:
        # Plain width fractions: a stage's own channels plus reused ones.
        blocks = channels
    else:
        # Stage k's block of layer j holds curve[end] - curve[start] of the
        # importance mass: stage 0 owns the most important channels, stage 1
        # the next, and so on.
        flat, offsets = curves
        ends = np.cumsum(channels, axis=1)
        blocks = flat[offsets + ends] - flat[offsets + ends - channels]
    widths = [layer.width for layer in backbone]
    rows = np.empty(channels.shape)
    for stage in range(channels.shape[1]):
        mass = blocks[:, stage, :]
        for k in range(stage):
            mass = np.where(reused[:, k, :], mass + blocks[:, k, :], mass)
        if curves is None:
            mass = mass / widths
        # min(1.0, mass): 1.0 unless the mass is smaller.
        rows[:, stage, :] = np.where(mass < 1.0, mass, 1.0)
    return rows.mean(axis=2)
