"""Unit tests for the concurrent schedule model (Eq. 8-9) and the evaluator."""

from __future__ import annotations

import pytest

from repro.errors import MappingError
from repro.nn.multiexit import build_dynamic_network
from repro.nn.partition import IndicatorMatrix, PartitionMatrix


def make_dynamic(network, ranking, reuse=True):
    num_layers = 3
    indicator = IndicatorMatrix.full(3, num_layers) if reuse else IndicatorMatrix.none(3, num_layers)
    if reuse:
        values = indicator.values.copy()
        values[-1, :] = 0
        indicator = IndicatorMatrix(values)
    return build_dynamic_network(
        network,
        partition=PartitionMatrix.uniform(3, num_layers),
        indicator=indicator,
        ranking=ranking,
    )


def top_points(platform, unit_names):
    """Every unit's fastest DVFS point (scale 1.0)."""
    return tuple(platform.unit(name).num_dvfs_points() - 1 for name in unit_names)


class TestConcurrentSchedule:
    """Eq. 8-9 as a profile reports it: per-stage latency, busy, stall and transfer time."""

    @pytest.fixture()
    def profile(self, tiny_dynamic, mapping_evaluator, platform):
        names = ("gpu", "dla0", "dla1")
        return mapping_evaluator.profile(tiny_dynamic, names, top_points(platform, names))

    def test_stage_latency_is_busy_plus_stall_time(self, profile):
        # A sub-layer starts once its inputs are ready, so a stage ends after
        # its own work, exit head included, plus every wait.
        for stage in profile.stages:
            assert stage.latency_ms == pytest.approx(stage.busy_ms + stage.stall_ms)
            assert stage.latency_ms >= stage.busy_ms > 0

    def test_makespan_is_max_stage_latency(self, profile):
        assert profile.latency_ms == max(stage.latency_ms for stage in profile.stages)
        assert profile.latency_ms == profile.cumulative_latency_ms(2)

    def test_first_stage_never_stalls(self, profile):
        assert profile.stages[0].stall_ms == 0.0
        assert profile.stages[0].transfer_ms == 0.0
        assert profile.stages[2].transfer_ms > 0.0

    def test_later_stages_wait_for_slow_producers(
        self, tiny_network, tiny_ranking, mapping_evaluator, platform
    ):
        # Stage 0 on the slow DLA with reuse means stage 1 (on the fast GPU)
        # must stall waiting for stage 0's features.
        dynamic = make_dynamic(tiny_network, tiny_ranking, reuse=True)
        names = ("dla0", "gpu", "dla1")
        profile = mapping_evaluator.profile(dynamic, names, top_points(platform, names))
        assert profile.stages[1].stall_ms > 0.0

    def test_no_reuse_means_no_transfers_or_stalls(
        self, tiny_network, tiny_ranking, mapping_evaluator, platform
    ):
        dynamic = make_dynamic(tiny_network, tiny_ranking, reuse=False)
        names = ("dla0", "gpu", "dla1")
        profile = mapping_evaluator.profile(dynamic, names, top_points(platform, names))
        for stage in profile.stages:
            assert stage.transfer_ms == 0.0
            assert stage.stall_ms == 0.0
            assert stage.transfer_energy_mj == 0.0

    def test_lower_dvfs_increases_latency(self, tiny_dynamic, mapping_evaluator, platform):
        names = ("gpu", "dla0", "dla1")
        fast = mapping_evaluator.profile(tiny_dynamic, names, top_points(platform, names))
        slow = mapping_evaluator.profile(tiny_dynamic, names, (0, 0, 0))
        assert slow.latency_ms > fast.latency_ms

    def test_duplicate_units_rejected(self, tiny_dynamic, mapping_evaluator):
        with pytest.raises(MappingError):
            mapping_evaluator.profile(tiny_dynamic, ("gpu", "gpu", "dla0"), (0, 0, 0))


class TestMappingEvaluator:
    def test_profile_shape(self, tiny_dynamic, mapping_evaluator, platform):
        profile = mapping_evaluator.profile(
            tiny_dynamic, ("gpu", "dla0", "dla1"), (9, 5, 5)
        )
        assert profile.num_stages == 3
        assert profile.latency_ms > 0
        assert profile.total_energy_mj > 0

    def test_cumulative_energy_monotone(self, tiny_dynamic, mapping_evaluator):
        profile = mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (0, 0, 0))
        energies = [profile.cumulative_energy_mj(i) for i in range(3)]
        assert energies[0] < energies[1] < energies[2]
        assert energies[-1] == pytest.approx(profile.total_energy_mj)

    def test_cumulative_latency_monotone(self, tiny_dynamic, mapping_evaluator):
        profile = mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (0, 0, 0))
        latencies = [profile.cumulative_latency_ms(i) for i in range(3)]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))
        assert latencies[-1] == pytest.approx(profile.latency_ms)

    def test_stage_energy_composition(self, tiny_dynamic, mapping_evaluator):
        profile = mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (0, 0, 0))
        for stage in profile.stages:
            assert stage.energy_mj == pytest.approx(
                stage.compute_energy_mj + stage.transfer_energy_mj
            )
        # Later stages import features, so they pay transfer energy.
        assert profile.stages[0].transfer_energy_mj == 0.0
        assert profile.stages[2].transfer_energy_mj > 0.0

    def test_stage_units_and_scales_recorded(self, tiny_dynamic, mapping_evaluator, platform):
        gpu_points = platform.unit("gpu").num_dvfs_points()
        profile = mapping_evaluator.profile(
            tiny_dynamic, ("gpu", "dla0", "dla1"), (gpu_points - 1, 0, 0)
        )
        assert profile.stages[0].unit_name == "gpu"
        assert profile.stages[0].dvfs_scale == pytest.approx(1.0)
        assert profile.stages[1].dvfs_scale < 1.0

    def test_wrong_argument_lengths_rejected(self, tiny_dynamic, mapping_evaluator):
        with pytest.raises(MappingError):
            mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0"), (0, 0))
        with pytest.raises(MappingError):
            mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (0, 0))

    def test_out_of_range_stage_rejected(self, tiny_dynamic, mapping_evaluator):
        profile = mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (0, 0, 0))
        with pytest.raises(MappingError):
            profile.cumulative_energy_mj(5)

    @pytest.mark.parametrize("stage", [-1, 3, 5])
    def test_every_stage_accessor_checks_its_index(self, tiny_dynamic, mapping_evaluator, stage):
        profile = mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (0, 0, 0))
        message = f"stage index {stage} out of range [0, 3)"
        for accessor in (
            profile.stage_latency_ms,
            profile.cumulative_latency_ms,
            profile.cumulative_energy_mj,
        ):
            with pytest.raises(MappingError) as raised:
                accessor(stage)
            assert str(raised.value) == message
        assert profile.stage_latency_ms(2) == profile.stages[2].latency_ms

    def test_stored_feature_bytes_forwarded(self, tiny_dynamic, mapping_evaluator):
        profile = mapping_evaluator.profile(tiny_dynamic, ("gpu", "dla0", "dla1"), (0, 0, 0))
        assert profile.stored_feature_bytes == tiny_dynamic.stored_feature_bytes()
