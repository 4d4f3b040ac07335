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
``(candidates, stages, layers)`` arrays for one candidate or a whole
generation (:func:`network_arrays`).  A batch splits every column of its
``P`` matrices in one pass and keeps no split for the next batch.  The view
of one candidate's dynamic network lives in :mod:`repro.nn.multiexit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitionError
from .graph import NetworkGraph
from .layers import Layer, LinearLayer

__all__ = [
    "PartitionMatrix",
    "IndicatorMatrix",
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


def _split_columns(layers: Sequence[Layer], columns: np.ndarray) -> np.ndarray:
    """The integer shares of every column of validated ``P`` matrices.

    ``columns`` holds the columns of one or more ``P`` over ``layers`` as
    ``(candidates, layers, stages)`` floats.  Every column is split in one
    :func:`_split_rows` pass, each by its layer's width and partition
    granularity.  Returns the shares, ``(candidates, layers, stages)``.  A
    column that cannot be split raises as :func:`split_units` would: the
    first one in candidate, then layer order.
    """
    num_candidates, num_layers, num_stages = columns.shape
    sizes = [(layer.width, layer.partition_granularity) for layer in layers]
    widths, granularities = np.array(sizes).T
    # A column splits when whole granules fit it, one per stage; every
    # candidate of the batch has the same stage count.
    whole = np.maximum(granularities, 1)
    fits = (granularities >= 1) & (widths % whole == 0) & (widths // whole >= num_stages)
    if not fits.all():
        _check_granules(*sizes[int(fits.argmin())], num_stages)
    shares = _split_rows(
        np.tile(widths, num_candidates),
        np.tile(granularities, num_candidates),
        columns.reshape(-1, num_stages),
    )
    return shares.astype(np.int64, copy=False).reshape(num_candidates, num_layers, num_stages)


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
        # A read-only copy: P's columns are split on the strength of this
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
    """Candidates of one stage count, as ``(candidates, stages, layers)`` arrays.

    Row ``c`` holds what candidate ``c``'s sub-layers receive: every
    sub-layer's own output units (``channels``), its indicator bit
    (``reused``), its available input units (``in_units``) and its reused
    input bytes (``imported_bytes``); every exit head's input units
    (``exit_units``); and the bytes of forwarded feature maps the candidate
    holds in shared memory (``stored_bytes``, the ``size(F, I)`` of Eq. 15).
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
    output_bytes: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> NetworkArrays:
    """The :class:`NetworkArrays` of many ``(P, I)`` pairs with one stage count.

    ``backbone`` is ``network``'s.  ``output_bytes(positions, units)`` sizes
    the output of each backbone position at each unit count, as
    ``backbone[position].output_bytes(units)`` does; ``None`` sizes each
    output through its layer.  Each pair is checked against the backbone
    (``P`` spans it, ``I`` has ``P``'s shape), and every column of every
    ``P`` is split in one pass (:func:`_split_columns`).

    Layer 0 of every stage reads the raw model input in full.  Later layers
    read the stage's own previous-layer output plus the previous-layer
    outputs of every earlier stage whose indicator bit is set (Eq. 8's
    dependency set); those imported feature maps are the bytes that cross
    compute units, and every reused output but the last stage's is held in
    shared memory for the duration of the inference (Fig. 4).
    """
    for partition, indicator in zip(partitions, indicators):
        _check_shapes(network, backbone, partition, indicator)
    columns = np.array([partition.values for partition in partitions]).transpose(0, 2, 1)
    shares = _split_columns(backbone, columns)
    # (candidates, layers, stages) shares to (candidates, stages, layers).
    channels = np.ascontiguousarray(shares.transpose(0, 2, 1))
    reused = np.array([indicator.values for indicator in indicators]) != 0
    # What each stage forwards, and what the stages before it forwarded:
    # stage i reads its own previous-layer output plus every earlier stage's
    # forwarded one.
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
