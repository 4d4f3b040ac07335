"""Per-stage and overall hardware characterisation (Eq. 11-14).

:class:`MappingEvaluator` binds a platform and a per-layer cost model (oracle
or learned surrogate) and turns a dynamic network plus a mapping/DVFS choice
into a :class:`HardwareProfile`:

* per-stage latency ``T_{S_i}`` from the concurrent schedule of Eq. 8-9,
* per-stage energy ``E_{S_i}`` as the sum of its sub-layer energies
  (Eq. 11-12) plus the interconnect energy of imported features,
* the overall latency ``max_i T_{S_i}`` (Eq. 13) and the cumulative energy
  ``E_{S_{1:i}}`` of instantiating the first ``i`` stages (Eq. 14).

A search evaluator profiles a whole generation at once on the exact oracle
(:meth:`MappingEvaluator._profile_arrays`): the same checks and the same
floats as :meth:`MappingEvaluator.profile`, from arrays instead of a
:class:`~repro.nn.multiexit.DynamicNetwork` per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from ..nn.graph import NetworkGraph
from ..nn.multiexit import DynamicNetwork, NetworkArrays, exit_head
from ..nn.partition import backbone_layers
from ..soc.compute_unit import ComputeUnit
from ..soc.platform import Platform
from .layer_cost import AnalyticalCostModel, CostModel
from .schedule import (
    ScheduleResult,
    SliceTable,
    schedule_arrays,
    stage_energy_arrays,
    tabled_schedule,
)

__all__ = ["StagePerformance", "HardwareProfile", "MappingEvaluator"]


@dataclass(frozen=True)
class StagePerformance:
    """Latency/energy characterisation of one stage on its compute unit."""

    stage_index: int
    unit_name: str
    dvfs_scale: float
    latency_ms: float
    busy_ms: float
    stall_ms: float
    transfer_ms: float
    compute_energy_mj: float
    transfer_energy_mj: float

    @property
    def energy_mj(self) -> float:
        """Total stage energy ``E_{S_i}`` (compute plus data movement)."""
        return self.compute_energy_mj + self.transfer_energy_mj


@dataclass(frozen=True)
class HardwareProfile:
    """Full hardware characterisation of one mapping configuration."""

    stages: Tuple[StagePerformance, ...]
    stored_feature_bytes: int

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return len(self.stages)

    @property
    def latency_ms(self) -> float:
        """Overall latency under concurrent execution (Eq. 13)."""
        return max(stage.latency_ms for stage in self.stages)

    @property
    def total_energy_mj(self) -> float:
        """Energy when every stage is instantiated (Eq. 14 with M' = M)."""
        return sum(stage.energy_mj for stage in self.stages)

    def stage_latency_ms(self, stage: int) -> float:
        """Latency ``T_{S_i}`` of stage ``stage``."""
        return self.stages[stage].latency_ms

    def cumulative_latency_ms(self, stage: int) -> float:
        """Latency when the inference terminates at ``stage``.

        Under concurrent execution the elapsed time is the maximum completion
        time among the instantiated stages ``S_1 .. S_i``.
        """
        self._check_stage(stage)
        return max(self.stages[k].latency_ms for k in range(stage + 1))

    def cumulative_energy_mj(self, stage: int) -> float:
        """Energy ``E_{S_{1:i}}`` of instantiating stages up to ``stage`` (Eq. 14)."""
        self._check_stage(stage)
        return sum(self.stages[k].energy_mj for k in range(stage + 1))

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise MappingError(f"stage index {stage} out of range [0, {self.num_stages})")


class MappingEvaluator:
    """Evaluate mapping configurations on a platform with a given cost model.

    Each :meth:`profile` call costs its slices through a
    :class:`~repro.perf.schedule.SliceTable` that lives for that call, unless
    the evaluator keeps one for the call's network (see
    :meth:`_keep_slice_table`): then every slice is costed once for the life
    of the evaluator.
    """

    def __init__(self, platform: Platform, cost_model: Optional[CostModel] = None) -> None:
        self.platform = platform
        self.cost_model = cost_model if cost_model is not None else AnalyticalCostModel()
        # A (unit, DVFS point) pair packs into one slice-table key.
        self._dvfs_stride = max(unit.num_dvfs_points() for unit in platform.compute_units)
        self._table_network: Optional[NetworkGraph] = None
        self._table: Optional[SliceTable] = None

    def _keep_slice_table(self, network: NetworkGraph) -> None:
        """Cost ``network``'s slices once for the life of this evaluator."""
        backbone = backbone_layers(network)
        max_units = max(max(layer.width, layer.in_width) for layer in backbone)
        self._table_network = network
        self._table = SliceTable(
            self.cost_model,
            self.platform.interconnect,
            backbone,
            max(max_units, network.num_classes),
        )

    def profile(
        self,
        dynamic_network: DynamicNetwork,
        unit_names: Sequence[str],
        dvfs_indices: Sequence[int],
    ) -> HardwareProfile:
        """Characterise ``dynamic_network`` under a mapping and DVFS choice.

        Parameters
        ----------
        dynamic_network:
            The partitioned multi-exit network to deploy.
        unit_names:
            Compute unit assigned to each stage, in stage order.  Units must
            be distinct (Eq. 7) and exist on the platform.
        dvfs_indices:
            Index into each assigned unit's DVFS table, in stage order.
        """
        num_stages = dynamic_network.num_stages
        if len(unit_names) != num_stages or len(dvfs_indices) != num_stages:
            raise MappingError(
                f"expected {num_stages} unit names and DVFS indices, got "
                f"{len(unit_names)} and {len(dvfs_indices)}"
            )
        units = [self.platform.unit(name) for name in unit_names]
        scales = [
            unit.scale_for_point(int(index)) for unit, index in zip(units, dvfs_indices)
        ]
        unit_keys = [
            self.platform.unit_index(name) * self._dvfs_stride + int(index)
            for name, index in zip(unit_names, dvfs_indices)
        ]
        if dynamic_network.network is self._table_network:
            table = self._table
        else:
            table = SliceTable.for_network(
                self.cost_model, self.platform.interconnect, dynamic_network
            )
        schedule = tabled_schedule(dynamic_network, units, scales, unit_keys, table)
        return self._profile_from_schedule(dynamic_network, schedule, units, scales, table)

    def _profile_arrays(
        self,
        arrays: NetworkArrays,
        unit_names: Sequence[Sequence[str]],
        dvfs_indices: Sequence[Sequence[int]],
    ) -> List[HardwareProfile]:
        """:meth:`profile` of a batch of the kept network, one profile per candidate.

        For the exact analytical oracle on the kept slice table (see
        :meth:`_keep_slice_table`).  Each candidate's mapping is checked as
        :meth:`profile` checks it; its slices are read from (and priced into)
        the table in one pass, Eq. 8 runs on arrays
        (:func:`~repro.perf.schedule.schedule_arrays`), and each stage's
        busy time is the built-in sum of its floats, as on the per-candidate
        path.
        """
        table = self._table
        _, num_stages, num_layers = arrays.channels.shape
        mappings = self._mapping_points(unit_names, dvfs_indices, num_stages)
        unit_keys = np.array([[point[0] for point in mapping] for mapping in mappings])
        powers = np.array([[point[3] for point in mapping] for mapping in mappings])

        # Every sub-layer's slice key, then every exit head's, as tabled_schedule keys them.
        span = table._span
        backbone = table._backbone
        sublayers = (np.arange(num_layers) * span + arrays.in_units) * span + arrays.channels
        exits = (num_layers * span + arrays.exit_units) * span + self._table_network.num_classes
        keys = np.concatenate([sublayers, exits[:, :, None]], axis=2)
        keys += (unit_keys * table._slices)[:, :, None]
        layers = (*backbone, exit_head(self._table_network, 0, backbone[-1].width))
        units = {
            unit_key: (unit, scale)
            for mapping in mappings
            for unit_key, unit, scale, _ in mapping
        }
        latencies = table.latencies(keys, layers, units)
        taus = latencies[:, :, :-1]
        exit_latencies = latencies[:, :, -1]

        # The outputs Eq. 8 imports: every stage's but the last, at every
        # layer but the last, whose indicator bit is set.
        imported = arrays.reused.copy()
        imported[:, -1, :] = False
        imported[:, :, -1] = False
        positions = np.broadcast_to(np.arange(num_layers), imported.shape)[imported]
        channels = arrays.channels[imported]
        transfers = np.zeros(taus.shape)
        transfers[imported] = table.transfers(
            positions, channels, table.output_bytes(positions, channels)
        )
        finish, stalls, moved = schedule_arrays(taus, transfers, arrays.reused)
        energies = stage_energy_arrays(taus, exit_latencies, powers)

        interconnect = self.platform.interconnect
        columns = np.stack([finish + exit_latencies, exit_latencies, stalls, moved, energies], 2)
        profiles = []
        for mapping, stage_rows, tau_rows, imported_bytes, stored in zip(
            mappings,
            columns.tolist(),
            taus.tolist(),
            arrays.imported_bytes.tolist(),
            arrays.stored_bytes.tolist(),
        ):
            stages = []
            for index, ((_, unit, scale, _), row, tau_row, stage_imports) in enumerate(
                zip(mapping, stage_rows, tau_rows, imported_bytes)
            ):
                latency, exit_latency, stall, moved_ms, energy = row
                stages.append(
                    StagePerformance(
                        stage_index=index,
                        unit_name=unit.name,
                        dvfs_scale=float(scale),
                        latency_ms=latency,
                        busy_ms=float(sum(tau_row)) + exit_latency,
                        stall_ms=stall,
                        transfer_ms=moved_ms,
                        compute_energy_mj=energy,
                        transfer_energy_mj=interconnect.transfer_energy_mj(stage_imports),
                    )
                )
            profiles.append(HardwareProfile(stages=tuple(stages), stored_feature_bytes=stored))
        return profiles

    def _mapping_points(
        self,
        unit_names: Sequence[Sequence[str]],
        dvfs_indices: Sequence[Sequence[int]],
        num_stages: int,
    ) -> List[List[Tuple[int, ComputeUnit, float, float]]]:
        """Each candidate's ``(unit key, unit, scale, power)`` per stage.

        Checked as :meth:`profile` and :func:`~repro.perf.schedule.tabled_schedule`
        check a mapping; each distinct (unit, DVFS point) is looked up once.
        """
        points: dict = {}
        mappings = []
        for names, indices in zip(unit_names, dvfs_indices):
            if len(names) != num_stages or len(indices) != num_stages:
                raise MappingError(
                    f"expected {num_stages} unit names and DVFS indices, got "
                    f"{len(names)} and {len(indices)}"
                )
            if len(set(names)) != len(names):
                raise MappingError(f"stages must map to distinct compute units, got {list(names)}")
            mapping = []
            for name, index in zip(names, indices):
                point = points.get((name, index))
                if point is None:
                    unit = self.platform.unit(name)
                    scale = unit.scale_for_point(int(index))
                    unit_key = self.platform.unit_index(name) * self._dvfs_stride + int(index)
                    point = points[name, index] = (unit_key, unit, scale, unit.power_w(scale))
                mapping.append(point)
            mappings.append(mapping)
        return mappings

    # -- internals ---------------------------------------------------------------
    def _profile_from_schedule(
        self,
        dynamic_network: DynamicNetwork,
        schedule: ScheduleResult,
        units: Sequence[ComputeUnit],
        scales: Sequence[float],
        table: SliceTable,
    ) -> HardwareProfile:
        interconnect = self.platform.interconnect
        performances = []
        for stage, stage_schedule in zip(dynamic_network.stages, schedule.stages):
            unit = units[stage.index]
            scale = scales[stage.index]
            compute_energy = table.stage_energy_mj(stage, stage_schedule, unit, scale)
            transfer_energy = interconnect.transfer_energy_mj(stage.imported_bytes())
            performances.append(
                StagePerformance(
                    stage_index=stage.index,
                    unit_name=unit.name,
                    dvfs_scale=float(scale),
                    latency_ms=stage_schedule.total_latency_ms,
                    busy_ms=stage_schedule.busy_latency_ms,
                    stall_ms=stage_schedule.stall_ms,
                    transfer_ms=stage_schedule.transfer_latency_ms,
                    compute_energy_mj=compute_energy,
                    transfer_energy_mj=transfer_energy,
                )
            )
        return HardwareProfile(
            stages=tuple(performances),
            stored_feature_bytes=dynamic_network.stored_feature_bytes(),
        )
