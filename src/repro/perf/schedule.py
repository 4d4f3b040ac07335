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
which costs each distinct layer slice once for as long as the table lives:
one call of :func:`simulate_schedule`, or the whole life of the
:class:`~repro.perf.evaluator.MappingEvaluator` a search evaluator owns.

A generation of candidates of one shape is scheduled at once on the exact
oracle: :meth:`SliceTable.latencies` reads a batch's slices and prices all of
its misses in one vectorised pass, and :func:`schedule_arrays` runs Eq. 8
stage by stage and layer by layer, vectorised over the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from ..nn.layers import Layer
from ..nn.multiexit import DynamicNetwork, Stage
from ..soc.compute_unit import ComputeUnit
from ..soc.interconnect import Interconnect
from .layer_cost import AnalyticalCostModel, CostModel, LayerWorkload, workload_arrays

__all__ = ["StageSchedule", "ScheduleResult", "simulate_schedule"]


@dataclass(frozen=True)
class StageSchedule:
    """Timing breakdown of one stage under the concurrent execution model."""

    stage_index: int
    unit_name: str
    scale: float
    sublayer_latencies_ms: Tuple[float, ...]
    cumulative_latencies_ms: Tuple[float, ...]
    exit_latency_ms: float
    transfer_latency_ms: float
    stall_ms: float

    @property
    def total_latency_ms(self) -> float:
        """Stage completion time ``T_{S_i}`` (Eq. 9), including the exit head."""
        return self.cumulative_latencies_ms[-1] + self.exit_latency_ms

    @property
    def busy_latency_ms(self) -> float:
        """Time the compute unit is actually executing (no stalls, no waits)."""
        return float(sum(self.sublayer_latencies_ms)) + self.exit_latency_ms


@dataclass(frozen=True)
class ScheduleResult:
    """Schedules of all stages plus the derived makespan."""

    stages: Tuple[StageSchedule, ...]

    @property
    def makespan_ms(self) -> float:
        """Latency of the whole concurrent execution (Eq. 13)."""
        return max(stage.total_latency_ms for stage in self.stages)

    def stage(self, index: int) -> StageSchedule:
        """Schedule of stage ``index``."""
        return self.stages[index]


class SliceTable:
    """Costs of the layer slices of one backbone, each computed once.

    A slice is a backbone layer position (the exit head takes the position
    after the last layer) run with ``in_units``/``out_units`` width-units;
    its key packs those integers into one int.  Each distinct slice's
    :class:`~repro.perf.layer_cost.LayerWorkload` is built once, under that
    key, and shared by every compute unit and DVFS point it is costed on.
    A costed slice adds the small integer ``unit_key`` of its (unit, DVFS
    point) to the key, and its value is the cost model's latency; transfers
    of a layer's output are keyed by ``(position, out_units)`` the same way.

    Only an exact :class:`AnalyticalCostModel` is memoised.  Its energy is
    the latency times the unit's power, so :meth:`stage_energy_mj` reuses the
    schedule's latencies and performs the same two float operations
    ``energy_mj`` would.  Every other cost model (noisy, learned, or a
    subclass) is called for each slice on each use, in the order the
    schedule needs the costs, exactly as without a table.

    A memoised table also answers whole batches: :meth:`latencies`,
    :meth:`transfers` and :meth:`output_bytes` read and write the same keys
    and floats as the per-slice methods.
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
        self.memo = type(cost_model) is AnalyticalCostModel
        self._backbone = tuple(backbone)
        self._span = int(max_units) + 1
        self._slices = (len(backbone) + 1) * self._span * self._span
        self._workloads: Dict[int, LayerWorkload] = {}
        self._latencies: Dict[int, float] = {}
        self._transfers: Dict[int, float] = {}
        # Output bytes of (position, units), -1 until sized; batches only.
        self._sizes: Optional[np.ndarray] = None

    @classmethod
    def for_network(
        cls, cost_model: CostModel, interconnect: Interconnect, dynamic_network: DynamicNetwork
    ) -> "SliceTable":
        """A table wide enough for every slice of ``dynamic_network``."""
        backbone = dynamic_network.scheme.backbone
        layers = list(backbone) + [stage.exit_head for stage in dynamic_network.stages]
        return cls(
            cost_model,
            interconnect,
            backbone,
            max(max(layer.width, layer.in_width) for layer in layers),
        )

    def latency_ms(
        self,
        unit_key: int,
        position: int,
        layer: Layer,
        in_units: int,
        out_units: int,
        unit: ComputeUnit,
        scale: float,
    ) -> float:
        """Latency of ``layer`` sliced to ``(in_units, out_units)`` on ``unit``."""
        if not self.memo:
            workload = LayerWorkload.from_layer(layer, in_units, out_units)
            return float(self.cost_model.latency_ms(workload, unit, scale))
        span = self._span
        slice_key = (position * span + in_units) * span + out_units
        key = unit_key * self._slices + slice_key
        value = self._latencies.get(key)
        if value is None:
            workload = self._workloads.get(slice_key)
            if workload is None:
                workload = LayerWorkload.from_layer(layer, in_units, out_units)
                self._workloads[slice_key] = workload
            value = float(self.cost_model.latency_ms(workload, unit, scale))
            self._latencies[key] = value
        return value

    def transfer_ms(self, position: int, layer: Layer, out_units: int) -> float:
        """Shared-memory transfer latency of ``layer``'s ``out_units`` output."""
        if not self.memo:
            return self.interconnect.transfer_latency_ms(layer.output_bytes(out_units))
        key = position * self._span + out_units
        value = self._transfers.get(key)
        if value is None:
            value = self.interconnect.transfer_latency_ms(layer.output_bytes(out_units))
            self._transfers[key] = value
        return value

    def latencies(
        self,
        keys: np.ndarray,
        layers: Sequence[Layer],
        units: Dict[int, Tuple[ComputeUnit, float]],
    ) -> np.ndarray:
        """:meth:`latency_ms` of every element of ``keys``, an int array of this table's keys.

        ``layers[position]`` is the layer at each slice position (the exit
        head one past the backbone; the slice fixes its units) and
        ``units[unit_key]`` the ``(unit, scale)`` of each unit key.  Known
        keys are read; every missing one is priced in one vectorised roofline
        pass and stored, under the key and float :meth:`latency_ms` would.
        """
        flat = keys.ravel()
        get = self._latencies.get
        # A latency is finite, so NaN (numpy's None) marks a missing key.
        values = np.array([get(key) for key in flat.tolist()], dtype=float)
        holes = np.isnan(values)
        if holes.any():
            missing = np.unique(flat[holes])
            priced = self._price(missing, layers, units)
            self._latencies.update(zip(missing.tolist(), priced.tolist()))
            values[holes] = priced[np.searchsorted(missing, flat[holes])]
        return values.reshape(keys.shape)

    def _price(
        self,
        keys: np.ndarray,
        layers: Sequence[Layer],
        units: Dict[int, Tuple[ComputeUnit, float]],
    ) -> np.ndarray:
        """Latencies of the sorted, distinct, unknown ``keys`` (see :meth:`latencies`)."""
        span = self._span
        unit_keys, slice_keys = np.divmod(keys, self._slices)
        # Each distinct slice's workload once.
        slice_keys, slice_of = np.unique(slice_keys, return_inverse=True)
        positions, pairs = np.divmod(slice_keys, span * span)
        in_units, out_units = np.divmod(pairs, span)
        flops, total_bytes = workload_arrays(layers, positions, in_units, out_units)
        # Each distinct (unit key, layer kind)'s rates once.
        kinds = sorted({layer.kind for layer in layers})
        kind_of = np.array([kinds.index(layer.kind) for layer in layers])[positions[slice_of]]
        codes, rate_of = np.unique(unit_keys * len(kinds) + kind_of, return_inverse=True)
        rates = []
        for code in codes.tolist():
            unit_key, kind = divmod(code, len(kinds))
            unit, scale = units[unit_key]
            rates.append(self.cost_model.unit_rates(unit, kinds[kind], scale))
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
        """:meth:`transfer_ms` of each ``(position, units)`` output of ``sizes`` bytes."""
        table = self._transfers
        values = []
        for key, size in zip((positions * self._span + units).tolist(), sizes.tolist()):
            value = table.get(key)
            if value is None:
                value = table[key] = self.interconnect.transfer_latency_ms(size)
            values.append(value)
        return np.array(values, dtype=float)

    def stage_energy_mj(
        self, stage: Stage, schedule: StageSchedule, unit: ComputeUnit, scale: float
    ) -> float:
        """Compute energy of ``stage``: its sub-layers, then its exit head (Eq. 11-12)."""
        energy = 0.0
        if self.memo:
            power = unit.power_w(scale)
            for sub in stage.sublayers:
                energy += schedule.sublayer_latencies_ms[sub.layer_index] * power
            energy += schedule.exit_latency_ms * power
            return energy
        for sub in stage.sublayers:
            energy += self.cost_model.energy_mj(LayerWorkload.from_sublayer(sub), unit, scale)
        energy += self.cost_model.energy_mj(LayerWorkload.from_layer(stage.exit_head), unit, scale)
        return energy


def simulate_schedule(
    dynamic_network: DynamicNetwork,
    units: Sequence[ComputeUnit],
    scales: Sequence[float],
    cost_model: CostModel,
    interconnect: Interconnect,
) -> ScheduleResult:
    """Evaluate Eq. 8-9 for a dynamic network mapped onto ``units``.

    Parameters
    ----------
    dynamic_network:
        The partitioned multi-exit network.
    units:
        Compute unit hosting each stage (stage order); must be distinct per
        the mapping constraint of Eq. 7.
    scales:
        DVFS scaling factor ``theta`` chosen for each stage's unit.
    cost_model:
        Per-layer latency oracle or surrogate.
    interconnect:
        Shared-memory transfer model providing the ``u_{k->i}`` terms.
    """
    table = SliceTable.for_network(cost_model, interconnect, dynamic_network)
    return tabled_schedule(dynamic_network, units, scales, range(len(units)), table)


def tabled_schedule(
    dynamic_network: DynamicNetwork,
    units: Sequence[ComputeUnit],
    scales: Sequence[float],
    unit_keys: Sequence[int],
    table: SliceTable,
) -> ScheduleResult:
    """:func:`simulate_schedule` costed through ``table``.

    ``unit_keys[i]`` is the table's key for stage ``i``'s (unit, DVFS point).
    """
    num_stages = dynamic_network.num_stages
    if len(units) != num_stages or len(scales) != num_stages:
        raise MappingError(
            f"expected {num_stages} units and scales, got {len(units)} and {len(scales)}"
        )
    names = [unit.name for unit in units]
    if len(set(names)) != len(names):
        raise MappingError(f"stages must map to distinct compute units, got {names}")

    scheme = dynamic_network.scheme
    backbone = scheme.backbone
    num_layers = dynamic_network.num_layers
    channels, reused = scheme._lists()

    # Per-stage, per-layer raw latencies tau^j_i.
    taus = [[0.0] * num_layers for _ in range(num_stages)]
    for stage in dynamic_network.stages:
        index = stage.index
        unit, scale, unit_key, row = units[index], scales[index], unit_keys[index], taus[index]
        for sub in stage.sublayers:
            row[sub.layer_index] = table.latency_ms(
                unit_key, sub.layer_index, sub.base, sub.in_units, sub.out_units, unit, scale
            )

    # Transfer latency of stage k's layer-j output when imported by a later
    # stage (Eq. 8's u term).  All stages live on different CUs, so a reused
    # feature always crosses the shared memory.  Only the outputs the
    # recursion imports are costed: those of every stage but the last, at
    # every layer but the last, whose indicator bit is set.
    transfer = [[0.0] * num_layers for _ in range(num_stages)]
    for stage_index in range(num_stages - 1):
        for layer_index in range(num_layers - 1):
            if reused[stage_index][layer_index]:
                transfer[stage_index][layer_index] = table.transfer_ms(
                    layer_index, backbone[layer_index], channels[stage_index][layer_index]
                )

    # Eq. 8 stage by stage: stage i at layer j waits only on layer j - 1 of
    # itself and of earlier stages, so each stage's row is complete once the
    # rows before it are.  Per (stage, layer) the float operations are the
    # layer-by-layer recursion's, in its order.
    cumulative = []
    stalls = [0.0] * num_stages
    transfer_totals = [0.0] * num_stages
    for stage_index in range(num_stages):
        tau = taus[stage_index]
        row = [0.0] * num_layers
        row[0] = tau[0] + 0.0
        stall = 0.0
        moved = 0.0
        for layer_index in range(1, num_layers):
            previous = layer_index - 1
            own_ready = row[previous]
            dependency_ready = own_ready
            for k in range(stage_index):
                if reused[k][previous]:
                    ready = cumulative[k][previous] + transfer[k][previous]
                    moved += transfer[k][previous]
                    dependency_ready = max(dependency_ready, ready)
            stall += max(0.0, dependency_ready - own_ready)
            row[layer_index] = tau[layer_index] + dependency_ready
        cumulative.append(row)
        stalls[stage_index] = stall
        transfer_totals[stage_index] = moved

    exit_position = num_layers
    schedules = []
    for stage in dynamic_network.stages:
        index = stage.index
        head = stage.exit_head
        exit_latency = table.latency_ms(
            unit_keys[index], exit_position, head, head.in_width, head.width,
            units[index], scales[index],
        )
        schedules.append(
            StageSchedule(
                stage_index=index,
                unit_name=units[index].name,
                scale=float(scales[index]),
                sublayer_latencies_ms=tuple(taus[index]),
                cumulative_latencies_ms=tuple(cumulative[index]),
                exit_latency_ms=exit_latency,
                transfer_latency_ms=float(transfer_totals[index]),
                stall_ms=float(stalls[index]),
            )
        )
    return ScheduleResult(stages=tuple(schedules))


def schedule_arrays(
    taus: np.ndarray, transfers: np.ndarray, reused: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 8 of :func:`tabled_schedule` for a batch of candidates of one shape.

    ``taus`` are the sub-layer latencies and ``transfers`` the costs of the
    outputs the recursion imports (zero elsewhere), ``reused`` the indicator
    bits, all ``(candidates, stages, layers)``.  Returns each stage's
    cumulative latency at its last layer, its stall and its moved transfer
    time, ``(candidates, stages)``.  Stage by stage and layer by layer, each
    candidate takes the scalar recursion's float operations in its order:
    ``max`` keeps its first argument unless the second is larger, running
    sums go left to right (``cumsum``), and a stage waits on the latest of
    its earlier stages' arrivals, the first of equals as the loop keeps it.
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
            # (+ 0.0, as the loop starts from it).
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
        # Both running sums start from 0.0, as the loop's do; the imports go
        # layer by layer, then stage by stage.
        stalls.append(np.cumsum(gaps, axis=0)[-1])
        imports = transfers[:stage, :-1].transpose(1, 0, 2).reshape(-1, num_candidates)
        moved.append(np.cumsum(np.vstack([zero, imports]), axis=0)[-1])
    finish = np.array([row[-1] for row in rows]).T
    return finish, np.array(stalls).T, np.array(moved).T


def stage_energy_arrays(
    taus: np.ndarray, exit_latencies: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """:meth:`SliceTable.stage_energy_mj` of a batch on the exact oracle, ``(candidates, stages)``.

    Each stage's sub-layer energies summed left to right from 0.0, then its
    exit head's.
    """
    running = np.cumsum(taus * powers[:, :, None], axis=2)[:, :, -1] + 0.0
    return running + exit_latencies * powers
