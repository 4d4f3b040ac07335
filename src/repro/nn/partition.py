"""Width partitioning: the ``P`` and ``I`` parameter matrices (Sect. III-A).

The paper characterises the static-to-dynamic transformation with two
matrices (Eq. 4):

* the **partitioning matrix** ``P`` (M stages x n layers), where ``p[i, j]``
  is the fraction of layer ``j``'s width-units assigned to stage ``i`` --
  every column distributes a whole layer, so columns sum to one;
* the **indicator matrix** ``I`` (M stages x n layers), where ``I[i, j] = 1``
  means the intermediate features produced by stage ``i`` at layer ``j`` are
  forwarded to (and reused by) all subsequent stages at layer ``j + 1``.

This module provides validated wrappers for both matrices plus the integer
channel-splitting arithmetic (largest-remainder rounding constrained to each
layer's partition granularity) that converts fractions into concrete channel
ranges.  The actual construction of per-stage sub-models lives in
:mod:`repro.nn.multiexit`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitionError
from .graph import NetworkGraph
from .layers import Layer, LinearLayer

__all__ = [
    "PartitionMatrix",
    "IndicatorMatrix",
    "PartitionScheme",
    "backbone_layers",
    "split_units",
]

#: Discrete partition-ratio choices used by the search space (Sect. V-A uses
#: "8 channel partitioning ratios" per layer).
RATIO_CHOICES: Tuple[float, ...] = tuple((k + 1) / 8 for k in range(8))

#: How far a distribution of width fractions may sum from one: ``P``'s
#: columns and :func:`split_units`'s fractions share it.
SUM_TOLERANCE = 1e-6


def backbone_layers(network: NetworkGraph) -> Tuple[Layer, ...]:
    """Return the partitionable backbone of ``network``.

    The trailing classifier head (a :class:`LinearLayer` whose width equals
    the number of classes) is excluded: in the dynamic transformation every
    stage receives its *own* exit head, so the original head is replaced
    rather than partitioned.
    """
    layers = network.layers
    last = layers[-1]
    if isinstance(last, LinearLayer) and last.width == network.num_classes:
        layers = layers[:-1]
    if not layers:
        raise PartitionError(f"network {network.name!r} has no partitionable backbone layers")
    return layers


def split_units(width: int, fractions: Sequence[float], granularity: int = 1) -> Tuple[int, ...]:
    """Split ``width`` units into integer shares proportional to ``fractions``.

    Every share is at least one granule of ``granularity`` units, shares sum
    exactly to ``width``, and the largest-remainder method keeps the result
    as close as possible to the requested fractions.

    Raises
    ------
    PartitionError
        If ``width`` cannot accommodate one granule per share, or if the
        fractions are not a valid distribution.
    """
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size == 0:
        raise PartitionError("fractions must be a non-empty 1-D sequence")
    values = fractions.tolist()
    # Written so that a NaN fails it too: NaN shares are no distribution.
    if any(value < 0 for value in values) or not (
        abs(float(fractions.sum()) - 1.0) <= SUM_TOLERANCE
    ):
        raise PartitionError(f"fractions must be non-negative and sum to 1, got {fractions}")
    return _largest_remainder(width, values, granularity)


def _largest_remainder(width: int, values: list, granularity: int) -> Tuple[int, ...]:
    """:func:`split_units` of a distribution already validated, as floats."""
    if granularity < 1 or width % granularity != 0:
        raise PartitionError(
            f"granularity must divide the width ({width} % {granularity} != 0)"
        )
    num_shares = len(values)
    granules = width // granularity
    if granules < num_shares:
        raise PartitionError(
            f"cannot split {width} units ({granules} granules of {granularity}) "
            f"into {num_shares} non-empty shares"
        )
    # Largest-remainder rounding in granule space with a floor of one granule,
    # on plain floats and ints: the shares are a handful of numbers, and
    # max() and index() pick the first of equal candidates as numpy's argmax
    # would.
    ideal = [value * granules for value in values]
    # The floor of a non-negative float, and at least one granule.
    shares = [int(value) or 1 for value in ideal]
    surplus = sum(shares) - granules
    # Remove any excess introduced by the floor-of-one, taking from the
    # largest shares first.
    while surplus > 0:
        victim = max(
            (index for index in range(num_shares) if shares[index] > 1),
            key=lambda index: shares[index] - ideal[index],
        )
        shares[victim] -= 1
        surplus -= 1
    # Distribute any remaining granules to the largest remainders.
    remainder = [value - share for value, share in zip(ideal, shares)]
    while surplus < 0:
        winner = remainder.index(max(remainder))
        shares[winner] += 1
        remainder[winner] -= 1.0
        surplus += 1
    return tuple(share * granularity for share in shares)


@dataclass(frozen=True)
class PartitionMatrix:
    """The ``P`` matrix: per-stage, per-layer width fractions.

    ``values`` is a validated, read-only copy of the array it was given.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        # A read-only copy: the scheme splits P on the strength of this
        # validation, so no later write, to the caller's array or to
        # ``values``, may reach P.
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise PartitionError("P must be a non-empty 2-D array (stages x layers)")
        # Written so that a NaN fails it too.
        if not ((values >= 0) & (values <= 1)).all():
            raise PartitionError("P entries must lie in [0, 1]")
        column_sums = values.sum(axis=0)
        if not (np.abs(column_sums - 1.0) <= SUM_TOLERANCE).all():
            raise PartitionError(
                f"every column of P must sum to 1 (got column sums {column_sums})"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __setstate__(self, state: dict) -> None:
        # Unpickling and deep copies rebuild the array writeable.
        self.__dict__.update(state)
        self.values.flags.writeable = False

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return int(self.values.shape[0])

    @property
    def num_layers(self) -> int:
        """Number of backbone layers ``n``."""
        return int(self.values.shape[1])

    def fraction(self, stage: int, layer: int) -> float:
        """Fraction ``p[stage, layer]`` of layer ``layer`` owned by ``stage``."""
        return float(self.values[stage, layer])

    @classmethod
    def uniform(cls, num_stages: int, num_layers: int) -> "PartitionMatrix":
        """Equal split: every stage owns ``1/M`` of every layer."""
        if num_stages < 1 or num_layers < 1:
            raise PartitionError("num_stages and num_layers must be >= 1")
        return cls(np.full((num_stages, num_layers), 1.0 / num_stages))

    @classmethod
    def from_stage_fractions(cls, fractions: Sequence[float], num_layers: int) -> "PartitionMatrix":
        """Same per-stage split replicated across all layers."""
        column = np.asarray(fractions, dtype=float)
        return cls(np.tile(column[:, None], (1, num_layers)))


@dataclass(frozen=True)
class IndicatorMatrix:
    """The ``I`` matrix: whether a stage's features are reused downstream."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 2 or values.size == 0:
            raise PartitionError("I must be a non-empty 2-D array (stages x layers)")
        if not ((values == 0) | (values == 1)).all():
            raise PartitionError("I entries must be 0 or 1")
        object.__setattr__(self, "values", values.astype(int))

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return int(self.values.shape[0])

    @property
    def num_layers(self) -> int:
        """Number of backbone layers ``n``."""
        return int(self.values.shape[1])

    def reused(self, stage: int, layer: int) -> bool:
        """Whether stage ``stage``'s features at ``layer`` feed later stages."""
        return bool(self.values[stage, layer])

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps that are actually reused.

        Only stages ``1 .. M-1`` can forward features (the last stage has no
        successor), so the denominator is ``(M - 1) * n``.  This is the
        "Fmap. reuse (%)" column of Table II.
        """
        if self.num_stages < 2:
            return 0.0
        # A count of set bits over a count of entries: both exact integers,
        # so the quotient is the one numpy's mean of the bits would give.
        relevant = self.values[:-1, :].tolist()
        return sum(map(sum, relevant)) / (len(relevant) * self.num_layers)

    @classmethod
    def full(cls, num_stages: int, num_layers: int) -> "IndicatorMatrix":
        """All features reused -- the static-mapping behaviour of Fig. 1."""
        if num_stages < 1 or num_layers < 1:
            raise PartitionError("num_stages and num_layers must be >= 1")
        return cls(np.ones((num_stages, num_layers), dtype=int))

    @classmethod
    def none(cls, num_stages: int, num_layers: int) -> "IndicatorMatrix":
        """No cross-stage feature reuse (fully independent stages)."""
        if num_stages < 1 or num_layers < 1:
            raise PartitionError("num_stages and num_layers must be >= 1")
        return cls(np.zeros((num_stages, num_layers), dtype=int))


@dataclass(frozen=True)
class PartitionScheme:
    """A validated ``(P, I)`` pair bound to a concrete network backbone.

    The scheme converts the fractional ``P`` matrix into integer channel
    counts per (stage, layer), respecting each layer's partition granularity
    (whole attention heads), and exposes the quantities needed downstream:
    per-stage channel ranges in importance order, available input widths
    including reused features, and the reuse fraction.

    ``P`` was validated when its :class:`PartitionMatrix` was built, so its
    columns are split straight from one list conversion.  The scheme holds
    nothing beyond its fields but the backbone and the channel matrix: the
    oracle reads a candidate's channel and indicator lists from
    :meth:`_lists` and every stage's sub-layer inputs from :meth:`_inputs`,
    each derived in one pass when asked.

    ``splits`` is an optional split table, an init-only argument the scheme
    does not keep: a dict from ``(width, granularity, *column)`` to the
    column's integer shares.  A column met before is read from it, a new one
    split and stored.  The split reads nothing else, so the channels are the
    same with or without a table, and one table may serve any number of
    schemes and networks; ``None`` splits every column.
    """

    network: NetworkGraph
    partition: PartitionMatrix
    indicator: IndicatorMatrix
    splits: InitVar[Optional[Dict[tuple, Tuple[int, ...]]]] = None

    def __post_init__(self, splits: Optional[Dict[tuple, Tuple[int, ...]]]) -> None:
        backbone = backbone_layers(self.network)
        if self.partition.num_layers != len(backbone):
            raise PartitionError(
                f"P has {self.partition.num_layers} layers but the backbone of "
                f"{self.network.name!r} has {len(backbone)}"
            )
        if self.indicator.values.shape != self.partition.values.shape:
            raise PartitionError(
                f"P and I must have the same shape, got {self.partition.values.shape} "
                f"and {self.indicator.values.shape}"
            )
        if splits is None:
            splits = {}
        shares = []
        for layer, column in zip(backbone, self.partition.values.T.tolist()):
            width, granularity = layer.width, layer.partition_granularity
            key = (width, granularity, *column)
            share = splits.get(key)
            if share is None:
                share = splits[key] = _largest_remainder(width, column, granularity)
            shares.append(share)
        object.__setattr__(self, "_backbone", backbone)
        object.__setattr__(self, "_channels", np.array(list(zip(*shares)), dtype=int))

    # -- basic shape -----------------------------------------------------------
    @property
    def backbone(self) -> Tuple[Layer, ...]:
        """Partitionable backbone layers of the bound network."""
        return self._backbone

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return self.partition.num_stages

    @property
    def num_layers(self) -> int:
        """Number of backbone layers ``n``."""
        return self.partition.num_layers

    # -- channel arithmetic ----------------------------------------------------
    @property
    def channels(self) -> np.ndarray:
        """Integer channel counts, shape ``(num_stages, num_layers)``."""
        return self._channels.copy()

    def stage_channels(self, stage: int, layer: int) -> int:
        """Channels of ``layer`` owned by ``stage``."""
        return int(self._channels[stage, layer])

    def stage_range(self, stage: int, layer: int) -> Tuple[int, int]:
        """Half-open channel range owned by ``stage`` in importance order.

        Stage 0 owns the most important channels, stage 1 the next block, and
        so on -- the reordering policy of Sect. V-D.
        """
        start = int(self._channels[:stage, layer].sum())
        return start, start + self.stage_channels(stage, layer)

    def _lists(self) -> Tuple[List[List[int]], List[List[int]]]:
        """The channel and indicator matrices as nested lists of ints."""
        return self._channels.tolist(), self.indicator.values.tolist()

    def _inputs(
        self, channels: List[List[int]], reused: List[List[int]]
    ) -> Tuple[List[List[Tuple[int, int]]], List[int]]:
        """Every stage's sub-layer inputs, and the input units of its exit head.

        ``channels`` and ``reused`` are :meth:`_lists`.  One pass over the
        layers: each earlier stage's reused output is sized once and shared
        by every later stage, which receives ``(own + reused units,
        reused bytes)`` (see :meth:`sublayer_inputs`).  The exit head of a
        stage sees what a layer after the last one would.
        """
        backbone = self._backbone
        num_stages = len(channels)
        last = len(backbone) - 1
        inputs = [[(backbone[0].in_width, 0)] for _ in range(num_stages)]
        exit_units = [0] * num_stages
        for previous, producer in enumerate(backbone):
            shared_units = 0
            shared_bytes = 0
            for stage in range(num_stages):
                own = channels[stage][previous]
                if previous == last:
                    exit_units[stage] = own + shared_units
                else:
                    inputs[stage].append((own + shared_units, shared_bytes))
                if reused[stage][previous]:
                    shared_units += own
                    if previous != last:
                        shared_bytes += producer.output_bytes(own)
        return inputs, exit_units

    def sublayer_inputs(self, stage: int) -> Tuple[Tuple[int, int], ...]:
        """``(available_in_units, reused_input_bytes)`` of every layer of ``stage``.

        Computed in one pass over the channel and indicator matrices; the
        dynamic-network build takes its sub-layers' inputs from the same pass.
        """
        self._check_stage_layer(stage, 0)
        inputs, _ = self._inputs(*self._lists())
        return tuple(inputs[stage])

    def available_in_units(self, stage: int, layer: int) -> int:
        """Input width available to stage ``stage`` at backbone layer ``layer``.

        Layer 0 consumes the raw model input, which every stage receives in
        full.  For later layers the available input is the stage's own
        previous-layer output plus the previous-layer outputs of every earlier
        stage whose indicator bit is set (Eq. 8's dependency set).
        """
        self._check_stage_layer(stage, layer)
        return self.sublayer_inputs(stage)[layer][0]

    def reused_input_bytes(self, stage: int, layer: int) -> int:
        """Bytes of previous-layer features imported from earlier stages.

        These are the feature maps that have to cross compute units (the
        transfer overhead ``u_{k->i}`` of Eq. 8) and to live in shared memory
        (the ``size(F, I) < M`` constraint of Eq. 15).
        """
        self._check_stage_layer(stage, layer)
        return self.sublayer_inputs(stage)[layer][1]

    def stored_feature_bytes(self) -> int:
        """Total bytes of forwarded feature maps held in shared memory.

        Every (stage, layer) whose indicator bit is set must keep its output
        available for subsequent stages for the duration of the inference
        (Fig. 4), so the memory-constraint term sums their sizes.
        """
        inputs, _ = self._inputs(*self._lists())
        return self._stored_bytes(sum(imported for _, imported in inputs[-1]))

    def _stored_bytes(self, imported: int) -> int:
        """:meth:`stored_feature_bytes` from the last stage's imported bytes.

        The last stage imports, at layers ``1 .. n-1``, every reused output
        of the earlier stages at layers ``0 .. n-2``, so ``imported`` (the sum
        of its sub-layers' reused input bytes) already holds those sizes.
        Only the earlier stages' reused outputs of the last layer, which no
        stage imports, are sized here: at most ``M - 1`` of them.
        """
        channels, reused = self._lists()
        last = len(self._backbone) - 1
        producer = self._backbone[last]
        total = imported
        for stage in range(len(channels) - 1):
            if reused[stage][last]:
                total += producer.output_bytes(channels[stage][last])
        return int(total)

    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps reused (Table II column)."""
        return self.indicator.reuse_fraction()

    # -- per-stage aggregate costs ----------------------------------------------
    def stage_flops(self, stage: int) -> float:
        """FLOPs executed by ``stage`` over its whole sub-layer chain."""
        inputs = self.sublayer_inputs(stage)
        total = 0.0
        for layer_index, layer in enumerate(self._backbone):
            total += layer.flops(
                in_units=inputs[layer_index][0],
                out_units=self.stage_channels(stage, layer_index),
            )
        return total

    def cumulative_width_fraction(self, stage: int, layer: int) -> float:
        """Fraction of layer width available to stage ``stage`` (incl. reuse)."""
        self._check_stage_layer(stage, layer)
        layer_width = self._backbone[layer].width
        own = self.stage_channels(stage, layer)
        reused = sum(
            self.stage_channels(k, layer)
            for k in range(stage)
            if self.indicator.reused(k, layer)
        )
        return float((own + reused) / layer_width)

    def _check_stage_layer(self, stage: int, layer: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise PartitionError(f"stage index {stage} out of range [0, {self.num_stages})")
        if not 0 <= layer < self.num_layers:
            raise PartitionError(f"layer index {layer} out of range [0, {self.num_layers})")
