"""Concurrent execution model with inter-stage dependencies (Eq. 8-9).

Stages run concurrently on their assigned compute units, but a sub-layer
``l^j_i`` may only start once all of its required inputs are local: its own
previous sub-layer output plus the previous-layer features of every earlier
stage whose indicator bit is set, each of which incurs a shared-memory
transfer ``u_{k->i}``.  The cumulative latency recursion of Eq. 8,

    T^j_i = tau^j_i + max( T^{j-1}_i,
                           max_{k<i, I_k=1} ( T^{j-1}_k + u^{j-1}_{k->i} ) ),

is evaluated layer by layer; the latency of a stage is the cumulative latency
of its last layer plus its exit head (Eq. 9), and the stall time (the waiting
visible in Fig. 3) is reported separately for analysis.

The raw latencies ``tau`` and transfers ``u`` come from a :class:`SliceTable`,
which on the exact oracle prices each distinct layer slice of a batch once,
in one vectorised roofline pass, and keeps no latency between batches.

Candidates of one shape are scheduled together, a search's whole generation
or one profiled network alike (:func:`schedule_batch`):
:meth:`SliceTable.latencies` prices their slices, and :func:`schedule_arrays`
runs Eq. 8 stage by stage and layer by layer, vectorised over the
candidates.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..nn.graph import NetworkGraph
from ..nn.layers import Layer, LinearLayer
from ..nn.partition import NetworkArrays, backbone_layers
from ..soc.compute_unit import ComputeUnit
from ..soc.interconnect import Interconnect
from .layer_cost import (
    AnalyticalCostModel,
    CostModel,
    LayerArrays,
    LayerWorkload,
    workload_arrays,
)

__all__: list = []


class SliceTable:
    """Costs of the layer slices of one backbone.

    A slice is a backbone layer position (the exit head takes the position
    after the last layer) run with ``in_units``/``out_units`` width-units;
    its key packs those integers, and the small integer ``unit_key`` of the
    (unit, DVFS point) it runs on, into one int.  Transfers of a layer's
    output are keyed by ``(position, out_units)`` the same way, and each is
    costed once for the life of the table.

    Only an exact :class:`AnalyticalCostModel` is priced on arrays
    (``array_pricing``): each call prices the distinct slices it is given in
    one vectorised roofline pass (one formula call per layer kind, on the
    layers' attributes the table gathers once), and a slice's energy is its
    latency times the unit's power (:func:`stage_energy_arrays`).  Every
    other cost model (noisy, learned, or a subclass) is called for each
    slice on each use, in key order.
    """

    def __init__(
        self,
        cost_model: CostModel,
        interconnect: Interconnect,
        backbone: Sequence[Layer],
        max_units: int,
    ) -> None:
        self.cost_model = cost_model
        self.interconnect = interconnect
        self.array_pricing = type(cost_model) is AnalyticalCostModel
        self._backbone = tuple(backbone)
        self._span = int(max_units) + 1
        self._slices = (len(backbone) + 1) * self._span * self._span
        self._transfers: Dict[int, float] = {}
        # What pricing reads of the layers it was last given, and of each
        # (unit key, layer kind).
        self._gathered: Optional[LayerArrays] = None
        self._rates: Dict[Tuple[int, str], Tuple[float, float, float]] = {}
        # Output bytes of (position, units), -1 until sized.
        self._sizes: Optional[np.ndarray] = None

    @classmethod
    def for_network(
        cls, cost_model: CostModel, interconnect: Interconnect, network: NetworkGraph
    ) -> "SliceTable":
        """A table wide enough for every slice of ``network``'s dynamic networks."""
        backbone = backbone_layers(network)
        max_units = max(max(layer.width, layer.in_width) for layer in backbone)
        return cls(cost_model, interconnect, backbone, max(max_units, network.num_classes))

    def latencies(
        self,
        keys: np.ndarray,
        layers: Sequence[Layer],
        units: Dict[int, Tuple[ComputeUnit, float]],
    ) -> np.ndarray:
        """The latency of every element of ``keys``, an int array of this table's keys.

        ``layers[position]`` is the layer at each slice position (the exit
        head one past the backbone; the slice fixes its units) and
        ``units[unit_key]`` the ``(unit, scale)`` of each unit key.  On the
        exact oracle each distinct key is priced once, all in one vectorised
        roofline pass; a per-call model is asked for every key, in order.
        """
        flat = keys.ravel()
        if not self.array_pricing:
            values = [
                float(self.cost_model.latency_ms(*self._slice(key, layers, units)))
                for key in flat.tolist()
            ]
            return np.array(values).reshape(keys.shape)
        distinct, inverse = np.unique(flat, return_inverse=True)
        return self._price(distinct, layers, units)[inverse].reshape(keys.shape)

    def energies(
        self,
        keys: np.ndarray,
        layers: Sequence[Layer],
        units: Dict[int, Tuple[ComputeUnit, float]],
    ) -> np.ndarray:
        """A per-call model's energy of each row of ``keys`` (see :meth:`latencies`).

        The model is asked for every key, in order, and each row's energies
        are summed left to right from 0.0 (Eq. 11-12).
        """
        energies = []
        for row in keys.reshape(-1, keys.shape[-1]).tolist():
            energy = 0.0
            for key in row:
                energy += self.cost_model.energy_mj(*self._slice(key, layers, units))
            energies.append(energy)
        return np.array(energies).reshape(keys.shape[:-1])

    def _slice(
        self, key: int, layers: Sequence[Layer], units: Dict[int, Tuple[ComputeUnit, float]]
    ) -> Tuple[LayerWorkload, ComputeUnit, float]:
        """The workload, unit and scale of slice ``key`` (see :meth:`latencies`)."""
        unit_key, slice_key = divmod(key, self._slices)
        position, pair = divmod(slice_key, self._span * self._span)
        in_units, out_units = divmod(pair, self._span)
        unit, scale = units[unit_key]
        return LayerWorkload.from_layer(layers[position], in_units, out_units), unit, scale

    def _price(
        self,
        keys: np.ndarray,
        layers: Sequence[Layer],
        units: Dict[int, Tuple[ComputeUnit, float]],
    ) -> np.ndarray:
        """Latencies of the sorted, distinct ``keys`` (see :meth:`latencies`)."""
        span = self._span
        unit_keys, slice_keys = np.divmod(keys, self._slices)
        # Each distinct slice's workload once.
        slice_keys, slice_of = np.unique(slice_keys, return_inverse=True)
        positions, pairs = np.divmod(slice_keys, span * span)
        in_units, out_units = np.divmod(pairs, span)
        gathered = self._gathered
        layers = tuple(layers)
        if gathered is None or gathered.layers != layers:
            gathered = self._gathered = LayerArrays(layers)
        flops, total_bytes = workload_arrays(gathered, positions, in_units, out_units)
        # Each distinct (unit key, layer kind)'s rates, read once per table.
        kinds = gathered.kinds
        kind_of = gathered.kind_codes[positions[slice_of]]
        codes, rate_of = np.unique(unit_keys * len(kinds) + kind_of, return_inverse=True)
        known = self._rates
        rates = []
        for code in codes.tolist():
            unit_key, kind = divmod(code, len(kinds))
            rate = known.get((unit_key, kinds[kind]))
            if rate is None:
                unit, scale = units[unit_key]
                rate = known[unit_key, kinds[kind]] = self.cost_model.unit_rates(
                    unit, kinds[kind], scale
                )
            rates.append(rate)
        gflops, bandwidth_gbs, overhead_ms = np.array(rates)[rate_of].T
        return self.cost_model.latencies_ms(
            flops[slice_of], total_bytes[slice_of], gflops, bandwidth_gbs, overhead_ms
        )

    def output_bytes(self, positions: np.ndarray, units: np.ndarray) -> np.ndarray:
        """``backbone[position].output_bytes(units)`` of each pair; each distinct one sized once."""
        if self._sizes is None:
            self._sizes = np.full(len(self._backbone) * self._span, -1, dtype=np.int64)
        keys = positions * self._span + units
        sizes = self._sizes[keys]
        unsized = keys[sizes < 0]
        if unsized.size:
            for key in np.unique(unsized).tolist():
                position, count = divmod(key, self._span)
                self._sizes[key] = self._backbone[position].output_bytes(count)
            sizes = self._sizes[keys]
        return sizes

    def transfers(self, positions: np.ndarray, units: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Shared-memory transfer latency of each ``(position, units)`` output, ``sizes`` bytes."""
        table = self._transfers
        keys = (positions * self._span + units).tolist()
        get = table.get
        # A transfer latency is finite, so NaN (numpy's None) marks a new key.
        values = np.array([get(key) for key in keys], dtype=float)
        holes = np.flatnonzero(np.isnan(values))
        if holes.size:
            sizes = sizes.tolist()
            for index in holes.tolist():
                key = keys[index]
                value = get(key)
                if value is None:
                    value = table[key] = self.interconnect.transfer_latency_ms(sizes[index])
                values[index] = value
        return values


class BatchSchedule(NamedTuple):
    """Eq. 8-9 of candidates of one shape (see :func:`schedule_batch`).

    ``keys`` holds the slice key of every stage's sub-layers and then its
    exit head, ``(candidates, stages, layers + 1)``, and ``layers`` the
    layer at each slice position.  The rest are the sub-layer latencies
    ``taus`` and the cumulative latencies ``cumulative``, ``(candidates,
    stages, layers)``, and each stage's exit-head latency, stall and moved
    transfer time, ``(candidates, stages)``.
    """

    keys: np.ndarray
    layers: Tuple[Layer, ...]
    taus: np.ndarray
    exit_latencies: np.ndarray
    cumulative: np.ndarray
    stalls: np.ndarray
    moved: np.ndarray


def schedule_batch(
    table: SliceTable,
    network: NetworkGraph,
    arrays: NetworkArrays,
    unit_keys: np.ndarray,
    units: Dict[int, Tuple[ComputeUnit, float]],
) -> BatchSchedule:
    """Price and schedule ``network``'s candidates ``arrays`` through ``table``.

    ``unit_keys`` holds each stage's (unit, DVFS point) key, ``(candidates,
    stages)``, and ``units[unit_key]`` its ``(unit, scale)``.  The slices are
    priced in the order a per-call cost model is asked for them, candidate
    by candidate: every sub-layer, stage by stage, then every exit head.
    """
    num_candidates, num_stages, num_layers = arrays.channels.shape
    span = table._span
    backbone = table._backbone
    sublayers = (np.arange(num_layers) * span + arrays.in_units) * span + arrays.channels
    exits = (num_layers * span + arrays.exit_units) * span + network.num_classes
    keys = np.concatenate([sublayers, exits[:, :, None]], axis=2)
    keys += (unit_keys * table._slices)[:, :, None]
    # Every exit head takes the position past the backbone; its key fixes its units.
    head = LinearLayer(name="exit0", width=network.num_classes, in_width=backbone[-1].width)
    layers = (*backbone, head)
    ordered = np.concatenate(
        [keys[:, :, :-1].reshape(num_candidates, -1), keys[:, :, -1]], axis=1
    )
    latencies = table.latencies(ordered, layers, units)
    taus = latencies[:, :-num_stages].reshape(num_candidates, num_stages, num_layers)
    exit_latencies = latencies[:, -num_stages:]

    # Transfer latency of stage k's layer-j output when imported by a later
    # stage (Eq. 8's u term).  All stages live on different CUs, so a reused
    # feature always crosses the shared memory.  Only the outputs the
    # recursion imports are costed: those of every stage but the last, at
    # every layer but the last, whose indicator bit is set.
    imported = arrays.reused.copy()
    imported[:, -1, :] = False
    imported[:, :, -1] = False
    positions = np.broadcast_to(np.arange(num_layers), imported.shape)[imported]
    channels = arrays.channels[imported]
    transfers = np.zeros(taus.shape)
    transfers[imported] = table.transfers(
        positions, channels, table.output_bytes(positions, channels)
    )
    cumulative, stalls, moved = schedule_arrays(taus, transfers, arrays.reused)
    return BatchSchedule(keys, layers, taus, exit_latencies, cumulative, stalls, moved)


def schedule_arrays(
    taus: np.ndarray, transfers: np.ndarray, reused: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 8 for a batch of candidates of one shape.

    ``taus`` are the sub-layer latencies and ``transfers`` the costs of the
    outputs the recursion imports (zero elsewhere), ``reused`` the indicator
    bits, all ``(candidates, stages, layers)``.  Returns every sub-layer's
    cumulative latency ``T^j_i``, ``(candidates, stages, layers)``, and each
    stage's stall and moved transfer time, ``(candidates, stages)``.  Stage
    by stage and layer by layer, each candidate takes Eq. 8's float
    operations in the recursion's order: a layer starts from its own
    previous output and waits on each earlier stage's import in stage
    order, ``max`` keeps its first argument unless the second is larger
    (so the first of equal arrivals), and running sums go left to right
    from 0.0 (``cumsum``).
    """
    num_candidates, num_stages, num_layers = taus.shape
    # Layer-major: one vector of candidates per (stage, layer).
    taus = taus.transpose(1, 2, 0)
    transfers = transfers.transpose(1, 2, 0)
    reused = reused.transpose(1, 2, 0)
    zero = np.zeros(num_candidates)
    rows = []
    stalls = []
    moved = []
    for stage in range(num_stages):
        tau = taus[stage]
        if stage == 0:
            # Nothing to wait on: the running sum of the stage's latencies
            # (+ 0.0, as the recursion starts from it).
            rows.append(np.cumsum(tau, axis=0) + 0.0)
            stalls.append(zero)
            moved.append(zero)
            continue
        # When each earlier stage's layer-j output reaches this stage (-inf
        # where none is imported): the latest such arrival.
        arrival = None
        for k in range(stage):
            ready = np.where(reused[k], rows[k] + transfers[k], -np.inf)
            arrival = ready if arrival is None else np.where(ready > arrival, ready, arrival)
        own = tau[0] + 0.0
        row = [own]
        gaps = [zero]
        for layer in range(1, num_layers):
            other = arrival[layer - 1]
            ready = np.where(other > own, other, own)
            # ready >= own, so this is max(0.0, ready - own).
            gaps.append(ready - own)
            own = tau[layer] + ready
            row.append(own)
        rows.append(np.array(row))
        # Both running sums start from 0.0; the imports go layer by layer,
        # then stage by stage.
        stalls.append(np.cumsum(gaps, axis=0)[-1])
        imports = transfers[:stage, :-1].transpose(1, 0, 2).reshape(-1, num_candidates)
        moved.append(np.cumsum(np.vstack([zero, imports]), axis=0)[-1])
    return np.array(rows).transpose(2, 0, 1), np.array(stalls).T, np.array(moved).T


def stage_energy_arrays(
    taus: np.ndarray, exit_latencies: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """Compute energy of every stage of a batch on the exact oracle, ``(candidates, stages)``.

    The latency times the unit's power of each stage's sub-layers, summed
    left to right from 0.0, then its exit head's (Eq. 11-12).
    """
    running = np.cumsum(taus * powers[:, :, None], axis=2)[:, :, -1] + 0.0
    return running + exit_latencies * powers
