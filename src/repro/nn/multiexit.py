"""Static-to-dynamic transformation: stages, sub-layers and exit heads.

Given a network, a :class:`~repro.nn.partition.PartitionScheme` and a channel
ranking, this module materialises the dynamic multi-exit network of Eq. 5-6:
every stage ``S_i`` is the chain of its sub-layers ``l^j_i`` augmented with an
exit classifier at its tail, so the stage can terminate the inference when the
runtime controller deems its prediction sufficient.

The produced :class:`DynamicNetwork` is still symbolic; it records, for every
sub-layer, the input width actually available (own channels plus reused
features from earlier stages), its FLOPs / parameters / feature-map bytes, and
the cross-stage bytes that must move between compute units.  These numbers
feed the hardware model in :mod:`repro.perf` and the accuracy model in
:mod:`repro.dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .channels import ChannelRanking
from .graph import NetworkGraph
from .layers import Layer, LinearLayer
from .partition import IndicatorMatrix, PartitionMatrix, PartitionScheme

__all__ = ["SubLayer", "Stage", "DynamicNetwork", "build_dynamic_network"]


@dataclass(frozen=True)
class SubLayer:
    """One sub-layer ``l^j_i``: stage ``i``'s slice of backbone layer ``j``."""

    base: Layer
    stage_index: int
    layer_index: int
    in_units: int
    out_units: int
    reused_input_bytes: int

    @property
    def name(self) -> str:
        """Qualified name ``<layer>@stage<i>``."""
        return f"{self.base.name}@stage{self.stage_index}"

    def flops(self) -> float:
        """FLOPs of this sub-layer for one input sample."""
        return self.base.flops(in_units=self.in_units, out_units=self.out_units)

    def params(self) -> float:
        """Parameters held by this sub-layer."""
        return self.base.params(in_units=self.in_units, out_units=self.out_units)

    def output_bytes(self) -> int:
        """Bytes of the feature map this sub-layer produces."""
        return self.base.output_bytes(self.out_units)

    def output_elements(self) -> int:
        """Elements of the feature map this sub-layer produces."""
        return self.base.output_elements(self.out_units)


@dataclass(frozen=True)
class Stage:
    """One inference stage ``S_i``: a sub-layer chain plus its exit head."""

    index: int
    sublayers: Tuple[SubLayer, ...]
    exit_head: LinearLayer

    def __post_init__(self) -> None:
        if not self.sublayers:
            raise ConfigurationError(f"stage {self.index} must contain at least one sub-layer")

    @property
    def num_sublayers(self) -> int:
        """Number of backbone sub-layers (excluding the exit head)."""
        return len(self.sublayers)

    def flops(self) -> float:
        """Total FLOPs of the stage, including its exit head."""
        return sum(sub.flops() for sub in self.sublayers) + self.exit_head.flops()

    def params(self) -> float:
        """Total parameters of the stage, including its exit head."""
        return sum(sub.params() for sub in self.sublayers) + self.exit_head.params()

    def imported_bytes(self) -> int:
        """Bytes of features imported from earlier stages across all layers."""
        return sum(sub.reused_input_bytes for sub in self.sublayers)


@dataclass(frozen=True)
class DynamicNetwork:
    """The dynamic multi-exit network ``NN_dyn`` deployed on the MPSoC."""

    network: NetworkGraph
    scheme: PartitionScheme
    stages: Tuple[Stage, ...]
    ranking: Optional[ChannelRanking] = None
    reordered: bool = True

    def __post_init__(self) -> None:
        if len(self.stages) != self.scheme.num_stages:
            raise ConfigurationError(
                f"expected {self.scheme.num_stages} stages, got {len(self.stages)}"
            )

    @property
    def num_stages(self) -> int:
        """Number of inference stages ``M``."""
        return len(self.stages)

    @property
    def num_layers(self) -> int:
        """Number of backbone layers per stage."""
        return self.scheme.num_layers

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps reused (Table II column)."""
        return self.scheme.reuse_fraction()

    def stored_feature_bytes(self) -> int:
        """Shared-memory footprint of forwarded features (Eq. 15 constraint).

        :meth:`PartitionScheme.stored_feature_bytes
        <repro.nn.partition.PartitionScheme.stored_feature_bytes>` through the
        same helper, starting from the last stage's imported bytes, which the
        build has already sized.
        """
        return self.scheme._stored_bytes(self.stages[-1].imported_bytes())

    def total_flops_through(self, stage: int) -> float:
        """FLOPs spent when the inference terminates at ``stage`` (inclusive)."""
        self._check_stage(stage)
        return float(sum(self.stages[k].flops() for k in range(stage + 1)))

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
        self._check_stage(stage)
        return stage_coverages(self.scheme, (stage,), self._importance_curves())[0]

    def _importance_curves(self) -> Optional[List[List[float]]]:
        """The backbone's :func:`importance_curves`, ``None`` when not reordered."""
        if self.reordered and self.ranking is not None:
            return importance_curves(self.ranking, self.scheme.backbone)
        return None

    def summary(self) -> str:
        """Multi-line human-readable summary of stages and their costs."""
        lines = [
            f"dynamic {self.network.name}: {self.num_stages} stages, "
            f"{self.num_layers} backbone layers, reuse={self.reuse_fraction():.1%}"
        ]
        for stage in self.stages:
            lines.append(
                f"  stage {stage.index}: {stage.flops() / 1e9:.3f} GFLOPs, "
                f"{stage.params() / 1e6:.3f} M params, "
                f"imports {stage.imported_bytes() / 1e3:.1f} KB"
            )
        return "\n".join(lines)

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise ConfigurationError(f"stage index {stage} out of range [0, {self.num_stages})")


def build_dynamic_network(
    network: NetworkGraph,
    partition: PartitionMatrix,
    indicator: IndicatorMatrix,
    ranking: Optional[ChannelRanking] = None,
    reorder: bool = True,
    *,
    splits: Optional[Dict[tuple, Tuple[int, ...]]] = None,
) -> DynamicNetwork:
    """Materialise the dynamic multi-exit network for a ``(P, I)`` choice.

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
    splits:
        Optional split table handed to :class:`~repro.nn.partition.PartitionScheme`,
        so a caller building many networks splits each distinct column of
        ``P`` once (:class:`~repro.search.evaluation.ConfigEvaluator` keeps
        one per evaluator).  It changes no result: the network is the same
        with or without it.
    """
    scheme = PartitionScheme(
        network=network, partition=partition, indicator=indicator, splits=splits
    )
    backbone = scheme.backbone
    channels, reused = scheme._lists()
    # The exit head classifies from every feature available to its stage at
    # the final backbone layer (own channels plus reused ones).
    inputs, exit_units = scheme._inputs(channels, reused)
    stages = []
    for stage_index, (own, stage_inputs) in enumerate(zip(channels, inputs)):
        sublayers = tuple(
            SubLayer(
                base=layer,
                stage_index=stage_index,
                layer_index=layer_index,
                in_units=in_units,
                out_units=out_units,
                reused_input_bytes=imported,
            )
            for layer_index, (layer, out_units, (in_units, imported)) in enumerate(
                zip(backbone, own, stage_inputs)
            )
        )
        exit_head = LinearLayer(
            name=f"exit{stage_index}",
            width=network.num_classes,
            in_width=exit_units[stage_index],
            tokens=1,
        )
        stages.append(Stage(index=stage_index, sublayers=sublayers, exit_head=exit_head))
    return DynamicNetwork(
        network=network,
        scheme=scheme,
        stages=tuple(stages),
        ranking=ranking,
        reordered=reorder and ranking is not None,
    )


def importance_curves(ranking: ChannelRanking, layers: Sequence[Layer]) -> List[List[float]]:
    """Each layer's cumulative importance curve, led by a zero, as floats.

    Entry ``c`` of a curve is the importance mass of the layer's ``c`` most
    important channels, so a channel range ``[start, end)`` of the
    importance-sorted order holds ``curve[end] - curve[start]``.
    """
    return [[0.0] + ranking.cumulative_curve(layer.name).tolist() for layer in layers]


def stage_coverages(
    scheme: PartitionScheme,
    stages: Iterable[int],
    curves: Optional[Sequence[Sequence[float]]],
) -> List[float]:
    """Exit coverage of each of ``stages`` (see :meth:`DynamicNetwork.stage_coverage`).

    ``curves`` are the backbone's :func:`importance_curves` when channels are
    reordered by importance, ``None`` for plain width fractions.  A caller
    that scores many schemes of one network computes the curves once.
    """
    channels, reused = scheme._lists()
    num_layers = scheme.num_layers
    if curves is None:
        # Plain width fractions: a stage's own channels plus reused ones.
        blocks = channels
        widths = [layer.width for layer in scheme.backbone]
    else:
        # Stage k's block of layer j holds curve[end] - curve[start] of the
        # importance mass: stage 0 owns the most important channels, stage 1
        # the next, and so on.
        blocks = []
        starts = [0] * num_layers
        for row in channels:
            ends = [start + count for start, count in zip(starts, row)]
            blocks.append(
                [curve[end] - curve[start] for curve, start, end in zip(curves, starts, ends)]
            )
            starts = ends
    rows = []
    for stage in stages:
        per_layer = []
        for layer_index in range(num_layers):
            # The stage's own block first, then each reused earlier block (a
            # mass is never -0.0, so starting from it is starting from 0.0).
            mass = blocks[stage][layer_index]
            for k in range(stage):
                if reused[k][layer_index]:
                    mass += blocks[k][layer_index]
            if curves is None:
                mass /= widths[layer_index]
            per_layer.append(min(1.0, mass))
        rows.append(per_layer)
    if not rows:
        return []
    # One reduction for every stage: the mean along a row of the 2-D array
    # sums that row exactly as the 1-D mean of the row would.
    return np.mean(rows, axis=1).tolist()
