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
ranges, and what every sub-layer then receives, computed on
``(candidates, stages, layers)`` arrays for one scheme or a whole generation
(:class:`NetworkArrays`).  The actual construction of per-stage sub-models
lives in :mod:`repro.nn.multiexit`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    _check_granules(width, granularity, len(values))
    shares = _split_rows(np.array([width]), np.array([granularity]), np.array([values], dtype=float))
    return tuple(shares[0].tolist())


def _check_granules(width: int, granularity: int, num_shares: int) -> None:
    """Raise unless ``width`` splits into ``num_shares`` whole granules of ``granularity``."""
    if granularity < 1 or width % granularity != 0:
        raise PartitionError(
            f"granularity must divide the width ({width} % {granularity} != 0)"
        )
    granules = width // granularity
    if granules < num_shares:
        raise PartitionError(
            f"cannot split {width} units ({granules} granules of {granularity}) "
            f"into {num_shares} non-empty shares"
        )


def _split_rows(widths: np.ndarray, granularities: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The largest-remainder shares of every row of ``values``, ``(rows, shares)``.

    Row ``r`` splits ``widths[r]`` units in whole granules of
    ``granularities[r]`` (both checked by :func:`_check_granules`) in
    proportion to its fractions, with a floor of one granule.  Every row
    takes the float operations of the plain loop over its shares, all rows
    round by round: the floor-of-one surplus is taken, one granule a round,
    from the first share ``> 1`` with the largest ``share - ideal``
    (recomputed each round, so one share may give several), and a deficit
    goes, one granule a round, to the first largest running remainder
    (``remainder - 1.0`` once served).  ``np.argmax`` picks the first of
    equal keys, as ``max`` and ``list.index`` do.
    """
    granules = widths // granularities
    ideal = values * granules[:, None]
    # The floor of a non-negative float, and at least one granule.
    shares = ideal.astype(np.int64)
    shares[shares == 0] = 1
    surplus = shares.sum(axis=1) - granules
    rows = np.flatnonzero(surplus > 0)
    while rows.size:
        keys = np.where(shares[rows] > 1, shares[rows] - ideal[rows], -np.inf)
        shares[rows, keys.argmax(axis=1)] -= 1
        surplus[rows] -= 1
        rows = rows[surplus[rows] > 0]
    remainder = ideal - shares
    rows = np.flatnonzero(surplus < 0)
    while rows.size:
        winners = remainder[rows].argmax(axis=1)
        shares[rows, winners] += 1
        remainder[rows, winners] -= 1.0
        surplus[rows] += 1
        rows = rows[surplus[rows] < 0]
    return shares * granularities[:, None]


def _split_columns(
    sizes: Sequence[Tuple[int, int]],
    columns: np.ndarray,
    splits: Dict[tuple, Tuple[int, ...]],
) -> np.ndarray:
    """The integer shares of every column of validated ``P`` matrices.

    ``sizes`` holds each layer's ``(width, partition_granularity)``,
    ``columns`` the columns of one or more ``P`` as ``(candidates, layers,
    stages)`` floats, and ``splits`` is a split table (see
    :class:`PartitionScheme`): a column met before is read from it, and the
    new ones are split together (:func:`_split_rows`), each distinct one
    once, and stored.  Returns the shares, ``(candidates, layers, stages)``.
    A column that cannot be split raises as :func:`split_units` would, once
    the new columns before it are stored.
    """
    num_candidates, num_layers, num_stages = columns.shape
    keys = [
        (width, granularity, *column)
        for candidate in columns.tolist()
        for (width, granularity), column in zip(sizes, candidate)
    ]
    get = splits.get
    shares = [get(key) for key in keys]
    missing: dict = {}
    failure: Optional[PartitionError] = None
    for index in [index for index, share in enumerate(shares) if share is None]:
        key = keys[index]
        if key not in missing:
            try:
                _check_granules(key[0], key[1], num_stages)
            except PartitionError as error:
                failure = error
                break
            missing[key] = []
        missing[key].append(index)
    if missing:
        new = list(missing)
        split = _split_rows(
            np.array([key[0] for key in new]),
            np.array([key[1] for key in new]),
            np.array([key[2:] for key in new], dtype=float),
        )
        for key, row in zip(new, split.tolist()):
            share = splits[key] = tuple(row)
            for index in missing[key]:
                shares[index] = share
    if failure is not None:
        raise failure
    flat = np.fromiter(chain.from_iterable(shares), dtype=np.int64, count=len(keys) * num_stages)
    return flat.reshape(num_candidates, num_layers, num_stages)


def _layer_sizes(layers: Sequence[Layer]) -> List[Tuple[int, int]]:
    """Each layer's ``(width, partition_granularity)``, what a split reads of it."""
    return [(layer.width, layer.partition_granularity) for layer in layers]


class _ContentMatrix:
    """A read-only matrix compared and hashed by content: shape and bytes.

    Two matrices of one kind are equal when they hold the same entries, so
    configurations built from them compare, hash and deduplicate by value.
    """

    values: np.ndarray

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.values.shape == other.values.shape
            and self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.values.shape, self.values.tobytes()))

    def __setstate__(self, state: dict) -> None:
        # Unpickling and deep copies rebuild the array writeable.
        self.__dict__.update(state)
        self.values.flags.writeable = False


@dataclass(frozen=True, eq=False)
class PartitionMatrix(_ContentMatrix):
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
        # min and max carry a NaN through, so a NaN fails this too.
        if not (values.min() >= 0 and values.max() <= 1):
            raise PartitionError("P entries must lie in [0, 1]")
        column_sums = values.sum(axis=0)
        # The entries are finite now, so the largest deviation bounds them all.
        if not np.abs(column_sums - 1.0).max() <= SUM_TOLERANCE:
            raise PartitionError(
                f"every column of P must sum to 1 (got column sums {column_sums})"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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


@dataclass(frozen=True, eq=False)
class IndicatorMatrix(_ContentMatrix):
    """The ``I`` matrix: whether a stage's features are reused downstream.

    ``values`` is a validated, read-only integer copy of the array it was
    given.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 2 or values.size == 0:
            raise PartitionError("I must be a non-empty 2-D array (stages x layers)")
        if not ((values == 0) | (values == 1)).all():
            raise PartitionError("I entries must be 0 or 1")
        values = values.astype(int)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
        return reuse_fractions(self.values[None] != 0).item()

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
    nothing beyond its fields but the backbone and the channel matrix: every
    stage's sub-layer inputs come from :meth:`_arrays`, derived when asked.

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
        _check_shapes(self.network, backbone, self.partition, self.indicator)
        shares = _split_columns(
            _layer_sizes(backbone),
            self.partition.values.T[None],
            {} if splits is None else splits,
        )
        object.__setattr__(self, "_backbone", backbone)
        object.__setattr__(self, "_channels", np.ascontiguousarray(shares[0].T, dtype=int))

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

    def _arrays(self) -> NetworkArrays:
        """This scheme as a one-candidate :class:`NetworkArrays`."""
        reused = self.indicator.values[None] != 0
        return _arrays(self._backbone, self._channels[None], reused, None)

    def sublayer_inputs(self, stage: int) -> Tuple[Tuple[int, int], ...]:
        """``(available_in_units, reused_input_bytes)`` of every layer of ``stage``.

        Read off :meth:`_arrays`, as the dynamic-network build reads its
        sub-layers' inputs.
        """
        self._check_stage_layer(stage, 0)
        arrays = self._arrays()
        return tuple(
            zip(arrays.in_units[0, stage].tolist(), arrays.imported_bytes[0, stage].tolist())
        )

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
        return int(self._arrays().stored_bytes[0])

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


def _check_shapes(
    network: NetworkGraph,
    backbone: Sequence[Layer],
    partition: PartitionMatrix,
    indicator: IndicatorMatrix,
) -> None:
    """Check that ``P`` spans ``network``'s backbone and ``I`` has ``P``'s shape."""
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


class NetworkArrays(NamedTuple):
    """Partition schemes of one shape, as ``(candidates, stages, layers)`` arrays.

    Row ``c`` holds what candidate ``c``'s sub-layers receive, the numbers
    :func:`~repro.nn.multiexit.build_dynamic_network` records: every
    sub-layer's own output units (``channels``), its indicator bit
    (``reused``), its available input units (``in_units``) and its reused
    input bytes (``imported_bytes``); every exit head's input units
    (``exit_units``); and the scheme's :meth:`PartitionScheme.stored_feature_bytes`
    (``stored_bytes``).
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
    """The :class:`NetworkArrays` of many ``(P, I)`` pairs with one stage count.

    ``backbone`` is ``network``'s, ``splits`` a split table, and
    ``output_bytes(positions, units)`` sizes the output of each backbone
    position at each unit count, as ``backbone[position].output_bytes(units)``
    does.  Each pair is checked as :class:`PartitionScheme` checks it, and
    every column is split through the table, all of the new ones in one
    pass; the rest is :meth:`PartitionScheme._arrays`'s integer arithmetic.
    """
    for partition, indicator in zip(partitions, indicators):
        _check_shapes(network, backbone, partition, indicator)
    columns = np.array([partition.values for partition in partitions]).transpose(0, 2, 1)
    shares = _split_columns(_layer_sizes(backbone), columns, splits)
    # (candidates, layers, stages) shares to (candidates, stages, layers).
    channels = np.ascontiguousarray(shares.transpose(0, 2, 1))
    reused = np.array([indicator.values for indicator in indicators]) != 0
    return _arrays(backbone, channels, reused, output_bytes)


def reuse_fractions(reused: np.ndarray) -> np.ndarray:
    """:meth:`IndicatorMatrix.reuse_fraction` of every candidate's indicator bits.

    ``reused`` holds the bits, ``(candidates, stages, layers)``.  A count of
    set bits over a count of entries: both exact integers, so each quotient
    is the one numpy's mean of the bits would give.
    """
    num_candidates, num_stages, num_layers = reused.shape
    if num_stages < 2:
        return np.zeros(num_candidates)
    return reused[:, :-1, :].sum(axis=(1, 2)) / ((num_stages - 1) * num_layers)


def _arrays(
    backbone: Sequence[Layer],
    channels: np.ndarray,
    reused: np.ndarray,
    output_bytes: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]],
) -> NetworkArrays:
    """The :class:`NetworkArrays` of split ``channels`` and indicator bits ``reused``.

    ``output_bytes`` is :func:`network_arrays`'s, or ``None`` to size each
    output through its layer.
    """
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
    positions = np.broadcast_to(np.arange(len(backbone)), channels.shape)[reused]
    counts = channels[reused]
    forwarded_bytes = np.zeros_like(channels)
    if output_bytes is None:
        forwarded_bytes[reused] = [
            backbone[position].output_bytes(count)
            for position, count in zip(positions.tolist(), counts.tolist())
        ]
    else:
        forwarded_bytes[reused] = output_bytes(positions, counts)
    imported = np.zeros_like(channels)
    imported[:, :, 1:] = (np.cumsum(forwarded_bytes, axis=1) - forwarded_bytes)[:, :, :-1]
    return NetworkArrays(
        channels=channels,
        reused=reused,
        in_units=in_units,
        exit_units=available[:, :, -1],
        imported_bytes=imported,
        stored_bytes=forwarded_bytes[:, :-1, :].sum(axis=(1, 2)),
    )
