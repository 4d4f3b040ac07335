"""Per-stage and overall hardware characterisation (Eq. 11-14).

:class:`MappingEvaluator` binds a platform and a per-layer cost model (oracle
or learned surrogate) and turns a dynamic network plus a mapping/DVFS choice
into a :class:`HardwareProfile`:

* per-stage latency ``T_{S_i}`` from the concurrent schedule of Eq. 8-9,
* per-stage energy ``E_{S_i}`` as the sum of its sub-layer energies
  (Eq. 11-12) plus the interconnect energy of imported features,
* the overall latency ``max_i T_{S_i}`` (Eq. 13) and the cumulative energy
  ``E_{S_{1:i}}`` of instantiating the first ``i`` stages (Eq. 14).

Every profile is computed on ``(candidates, stages, layers)`` arrays
(:meth:`MappingEvaluator._profile_arrays`): a search evaluator's whole
generation at once, or the one network of :meth:`MappingEvaluator.profile`.
On the exact oracle a batch's distinct slices are priced from its own
arrays, and no latency is kept from one batch to the next
(:class:`~repro.perf.schedule.SliceTable`).  Energy totals add left to right
from zero (:func:`~repro.utils._left_sum`), whichever Python runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from ..nn.graph import NetworkGraph
from ..nn.multiexit import DynamicNetwork
from ..nn.partition import NetworkArrays
from ..soc.compute_unit import ComputeUnit
from ..soc.platform import Platform
from ..utils import _left_sum
from .layer_cost import AnalyticalCostModel, CostModel
from .schedule import SliceTable, schedule_batch, stage_energy_arrays

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
        return _left_sum(stage.energy_mj for stage in self.stages)

    def stage_latency_ms(self, stage: int) -> float:
        """Latency ``T_{S_i}`` of stage ``stage``."""
        self._check_stage(stage)
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
        return _left_sum(self.stages[k].energy_mj for k in range(stage + 1))

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise MappingError(f"stage index {stage} out of range [0, {self.num_stages})")


class BatchProfile(NamedTuple):
    """The profiles of a batch of candidates and their stages' totals.

    ``latencies`` and ``energies`` hold every stage's ``T_{S_i}`` and
    ``E_{S_i}`` (:attr:`StagePerformance.latency_ms` and
    :attr:`StagePerformance.energy_mj`), ``(candidates, stages)``.
    """

    profiles: List[HardwareProfile]
    latencies: np.ndarray
    energies: np.ndarray


class MappingEvaluator:
    """Evaluate mapping configurations on a platform with a given cost model.

    Each :meth:`profile` call costs its slices through a
    :class:`~repro.perf.schedule.SliceTable` that lives for that call, unless
    the evaluator keeps one for the call's network (see
    :meth:`_keep_slice_table`): then every transfer, output size and unit
    rate is costed once for the life of the evaluator.
    """

    def __init__(self, platform: Platform, cost_model: Optional[CostModel] = None) -> None:
        self.platform = platform
        self.cost_model = cost_model if cost_model is not None else AnalyticalCostModel()
        # A (unit, DVFS point) pair packs into one slice-table key.
        self._dvfs_stride = max(unit.num_dvfs_points() for unit in platform.compute_units)
        self._table_network: Optional[NetworkGraph] = None
        self._table: Optional[SliceTable] = None

    def _keep_slice_table(self, network: NetworkGraph) -> None:
        """Keep one slice table for ``network`` for the life of this evaluator."""
        self._table_network = network
        self._table = SliceTable.for_network(self.cost_model, self.platform.interconnect, network)

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
            The partitioned multi-exit network to deploy, whose one-row
            arrays are scheduled.
        unit_names:
            Compute unit assigned to each stage, in stage order.  Units must
            be distinct (Eq. 7) and exist on the platform.
        dvfs_indices:
            Index into each assigned unit's DVFS table, in stage order.
        """
        network = dynamic_network.network
        if network is self._table_network:
            table = self._table
        else:
            table = SliceTable.for_network(self.cost_model, self.platform.interconnect, network)
        batch = self._profile_arrays(
            network, table, dynamic_network.arrays, [unit_names], [dvfs_indices]
        )
        return batch.profiles[0]

    def _profile_arrays(
        self,
        network: NetworkGraph,
        table: SliceTable,
        arrays: NetworkArrays,
        unit_names: Sequence[Sequence[str]],
        dvfs_indices: Sequence[Sequence[int]],
    ) -> BatchProfile:
        """:meth:`profile` of a batch of ``network``'s candidates, one profile per candidate.

        Each candidate's mapping is checked as :meth:`profile` documents it;
        its slices are priced through ``table`` and scheduled
        (:func:`~repro.perf.schedule.schedule_batch`).  Every stage's numbers
        are computed on ``(candidates, stages)`` arrays, each the float
        operations of one stage's: its busy time is the left-to-right sum of
        its sub-layer latencies from 0.0, then its exit head's, and its
        transfer energy that of its imported bytes.  The profiles are built
        from their rows.
        """
        _, num_stages, _ = arrays.channels.shape
        mappings = self._mapping_points(unit_names, dvfs_indices, num_stages)
        unit_keys = np.array([[point[0] for point in mapping] for mapping in mappings])
        units = {
            unit_key: (unit, scale)
            for mapping in mappings
            for unit_key, unit, scale, _ in mapping
        }
        batch = schedule_batch(table, network, arrays, unit_keys, units)
        if table.array_pricing:
            powers = np.array([[point[3] for point in mapping] for mapping in mappings])
            energies = stage_energy_arrays(batch.taus, batch.exit_latencies, powers)
        else:
            energies = table.energies(batch.keys, batch.layers, units)

        exit_latencies = batch.exit_latencies
        latencies = batch.cumulative[:, :, -1] + exit_latencies
        busy = (np.cumsum(batch.taus, axis=2)[:, :, -1] + 0.0) + exit_latencies
        transfer_energies = self.platform.interconnect._transfer_energies_mj(
            arrays.imported_bytes.sum(axis=2)
        )
        # Every stage's numbers in StagePerformance's field order, from
        # latency_ms on.
        columns = np.stack(
            [latencies, busy, batch.stalls, batch.moved, energies, transfer_energies], 2
        )
        profiles = [
            HardwareProfile(
                tuple(
                    StagePerformance(index, unit.name, float(scale), *row)
                    for index, ((_, unit, scale, _), row) in enumerate(zip(mapping, stage_rows))
                ),
                stored,
            )
            for mapping, stage_rows, stored in zip(
                mappings, columns.tolist(), arrays.stored_bytes.tolist()
            )
        ]
        return BatchProfile(profiles, latencies, energies + transfer_energies)

    def _mapping_points(
        self,
        unit_names: Sequence[Sequence[str]],
        dvfs_indices: Sequence[Sequence[int]],
        num_stages: int,
    ) -> List[List[Tuple[int, ComputeUnit, float, float]]]:
        """Each candidate's ``(unit key, unit, scale, power)`` per stage.

        A candidate is checked in :meth:`profile`'s order: the number of
        stages, then every unit name, then every DVFS point, then that the
        units are distinct.  Each distinct (unit, DVFS point) is looked up
        once.
        """
        points: dict = {}
        mappings = []
        for names, indices in zip(unit_names, dvfs_indices):
            if len(names) != num_stages or len(indices) != num_stages:
                raise MappingError(
                    f"expected {num_stages} unit names and DVFS indices, got "
                    f"{len(names)} and {len(indices)}"
                )
            units = [self.platform.unit(name) for name in names]
            mapping = []
            for name, unit, index in zip(names, units, indices):
                point = points.get((name, index))
                if point is None:
                    scale = unit.scale_for_point(int(index))
                    unit_key = self.platform.unit_index(name) * self._dvfs_stride + int(index)
                    point = points[name, index] = (unit_key, unit, scale, unit.power_w(scale))
                mapping.append(point)
            if len(set(names)) != len(names):
                raise MappingError(f"stages must map to distinct compute units, got {list(names)}")
            mappings.append(mapping)
        return mappings
