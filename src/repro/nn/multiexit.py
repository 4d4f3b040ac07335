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

A search scores a whole generation at once: :func:`network_arrays` holds the
same numbers for many candidates of one shape as ``(candidates, stages,
layers)`` arrays, and :func:`stage_coverage_arrays` their exit coverages,
each element equal to what :func:`build_dynamic_network` and
:func:`stage_coverages` give for that candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, PartitionError
from .channels import ChannelRanking
from .graph import NetworkGraph
from .layers import Layer, LinearLayer
from .partition import (
    IndicatorMatrix,
    PartitionMatrix,
    PartitionScheme,
    _layer_sizes,
    _split_columns,
)

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
        head = exit_head(network, stage_index, exit_units[stage_index])
        stages.append(Stage(index=stage_index, sublayers=sublayers, exit_head=head))
    return DynamicNetwork(
        network=network,
        scheme=scheme,
        stages=tuple(stages),
        ranking=ranking,
        reordered=reorder and ranking is not None,
    )


def exit_head(network: NetworkGraph, stage_index: int, in_units: int) -> LinearLayer:
    """The exit classifier of stage ``stage_index``, reading ``in_units`` units."""
    return LinearLayer(
        name=f"exit{stage_index}", width=network.num_classes, in_width=in_units, tokens=1
    )


class NetworkArrays(NamedTuple):
    """Dynamic networks of one shape, as ``(candidates, stages, layers)`` arrays.

    Row ``c`` holds the numbers :func:`build_dynamic_network` records for
    candidate ``c``: every sub-layer's own output units (``channels``), its
    indicator bit (``reused``) and its available input units (``in_units``);
    every exit head's input units (``exit_units``) and every stage's
    :meth:`Stage.imported_bytes` (``imported_bytes``); and the network's
    :meth:`DynamicNetwork.stored_feature_bytes` (``stored_bytes``).
    """

    channels: np.ndarray
    reused: np.ndarray
    in_units: np.ndarray
    exit_units: np.ndarray
    imported_bytes: np.ndarray
    stored_bytes: np.ndarray


def network_arrays(
    network: NetworkGraph,
    backbone: Sequence[Layer],
    partitions: Sequence[PartitionMatrix],
    indicators: Sequence[IndicatorMatrix],
    splits: Dict[tuple, Tuple[int, ...]],
    output_bytes: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> NetworkArrays:
    """:func:`build_dynamic_network` of many ``(P, I)`` pairs with one stage count.

    ``backbone`` is ``network``'s, ``splits`` a split table, and
    ``output_bytes(positions, units)`` sizes the output of each backbone
    position at each unit count, as ``backbone[position].output_bytes(units)``
    would.  The shape checks of :class:`~repro.nn.partition.PartitionScheme`
    run per candidate, every column is split through the table, and the rest
    is integer arithmetic, so the arrays hold exactly the build's numbers.
    """
    for partition, indicator in zip(partitions, indicators):
        if partition.num_layers != len(backbone):
            raise PartitionError(
                f"P has {partition.num_layers} layers but the backbone of "
                f"{network.name!r} has {len(backbone)}"
            )
        if indicator.values.shape != partition.values.shape:
            raise PartitionError(
                f"P and I must have the same shape, got {partition.values.shape} "
                f"and {indicator.values.shape}"
            )
    sizes = _layer_sizes(backbone)
    columns = np.array([partition.values for partition in partitions]).transpose(0, 2, 1)
    shares = [_split_columns(sizes, candidate, splits) for candidate in columns.tolist()]
    # (candidates, layers, stages) shares to (candidates, stages, layers).
    channels = np.ascontiguousarray(np.array(shares, dtype=np.int64).transpose(0, 2, 1))
    reused = np.array([indicator.values for indicator in indicators]) != 0
    # What each stage forwards, and what the stages before it forwarded
    # (Eq. 8's dependency set): stage i reads its own previous-layer output
    # plus every earlier stage's forwarded one.
    forwarded = channels * reused
    available = channels + np.cumsum(forwarded, axis=1) - forwarded
    in_units = np.empty_like(channels)
    in_units[:, :, 0] = backbone[0].in_width
    in_units[:, :, 1:] = available[:, :, :-1]
    # Every forwarded output is sized once; the last layer's feeds no later
    # layer, only the stored features.
    positions = np.broadcast_to(np.arange(len(backbone)), channels.shape)
    forwarded_bytes = np.zeros_like(channels)
    forwarded_bytes[reused] = output_bytes(positions[reused], channels[reused])
    per_stage = forwarded_bytes[:, :, :-1].sum(axis=2)
    return NetworkArrays(
        channels=channels,
        reused=reused,
        in_units=in_units,
        exit_units=available[:, :, -1],
        imported_bytes=np.cumsum(per_stage, axis=1) - per_stage,
        stored_bytes=forwarded_bytes[:, :-1, :].sum(axis=(1, 2)),
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


def stage_coverage_arrays(
    arrays: NetworkArrays,
    widths: Sequence[int],
    curves: Optional[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """:func:`stage_coverages` of every stage of a batch, shape ``(candidates, stages)``.

    ``widths`` are the backbone's layer widths.  ``curves`` is ``None`` for
    plain width fractions, or the backbone's :func:`importance_curves` laid
    end to end with the offset of each curve, ``(flat, offsets)``.  Stage by
    stage, each mass takes the same additions in the same order, and the
    layer mean reduces each row along the contiguous last axis, as the 2-D
    mean of one candidate does.
    """
    channels, reused = arrays.channels, arrays.reused
    if curves is None:
        blocks = channels
    else:
        flat, offsets = curves
        ends = np.cumsum(channels, axis=1)
        blocks = flat[offsets + ends] - flat[offsets + ends - channels]
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
