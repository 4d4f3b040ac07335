"""Unit tests for compute units, interconnect, shared memory and the platform."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.errors import ConfigurationError, PlatformError
from repro.search.objectives import measured_serving_objectives
from repro.serving.bridge import ReplayScenario
from repro.serving.families import SteadyPoissonFamily
from repro.serving.workload import PoissonArrivals
from repro.soc.compute_unit import ComputeUnit, ComputeUnitKind
from repro.soc.dvfs import DvfsTable, PowerModel
from repro.soc.interconnect import Interconnect
from repro.soc.memory import SharedMemory
from repro.soc.platform import Platform, jetson_agx_xavier
from repro.soc.presets import get_platform, platform_names

#: sha256 of ``repr(platform)`` for every preset, recorded before compute
#: units could be hashed: ``serving_digest`` hashes the repr into every
#: serving-cache key, so it must not change.
PRESET_REPR_DIGESTS = {
    "jetson-agx-orin": "397f5ff70c50c961e94a9cf0bb14c4dcdbcf7afa0405e8081104f24eb0999387",
    "jetson-agx-xavier": "4c2b338cf45e7bf49cfd64060b2074fb0c1d826dc9e4e96a0deba84f1952bf36",
    "jetson-nano-class": "28d7ac922ac0a4c0621126b0265be5ebffe8f5878de8c04614aa820cf738dddf",
    "mobile-big-little": "11fbe3ca6532c67f96f5866178fda97564d148783fb648e67620edcef5f8c2f9",
    "server-gpu": "6e58659ca90d8e81ab7ae3725174720d085baa74e4a098cc84b4afbab14ac336",
}


def make_unit(name="gpu", kind=ComputeUnitKind.GPU, peak=40.0):
    return ComputeUnit(
        name=name,
        kind=kind,
        peak_gflops=peak,
        memory_bandwidth_gbs=100.0,
        launch_overhead_ms=0.1,
        power=PowerModel(static_w=2.0, dynamic_w=8.0),
        dvfs=DvfsTable.from_frequencies([300, 600, 1200]),
        utilisation={"conv2d": 1.0, "attention": 0.5},
    )


class TestComputeUnit:
    def test_effective_gflops_scales_with_dvfs(self):
        unit = make_unit()
        assert unit.effective_gflops("conv2d", 1.0) == pytest.approx(40.0)
        assert unit.effective_gflops("conv2d", 0.5) == pytest.approx(20.0)

    def test_effective_gflops_uses_layer_utilisation(self):
        unit = make_unit()
        assert unit.effective_gflops("attention", 1.0) == pytest.approx(20.0)
        # Unknown layer kinds fall back to a conservative default.
        assert unit.effective_gflops("pooling", 1.0) == pytest.approx(40.0 * 0.30)

    def test_bandwidth_derated_by_half_the_scale(self):
        unit = make_unit()
        assert unit.effective_bandwidth_gbs(1.0) == pytest.approx(100.0)
        assert unit.effective_bandwidth_gbs(0.5) == pytest.approx(75.0)

    def test_power_follows_linear_model(self):
        unit = make_unit()
        assert unit.power_w(1.0) == pytest.approx(10.0)
        assert unit.power_w(0.25) == pytest.approx(4.0)

    def test_dvfs_helpers(self):
        unit = make_unit()
        assert unit.num_dvfs_points() == 3
        assert unit.scale_for_point(0) == pytest.approx(0.25)

    def test_invalid_scale_rejected(self):
        unit = make_unit()
        with pytest.raises(ConfigurationError):
            unit.effective_gflops("conv2d", 0.0)
        with pytest.raises(ConfigurationError):
            unit.effective_bandwidth_gbs(1.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            make_unit(peak=-1.0)
        with pytest.raises(ConfigurationError):
            ComputeUnit(
                name="",
                kind=ComputeUnitKind.GPU,
                peak_gflops=1.0,
                memory_bandwidth_gbs=1.0,
                launch_overhead_ms=0.0,
                power=PowerModel(1.0, 1.0),
                dvfs=DvfsTable.from_frequencies([100]),
            )

    def test_kind_coercion_from_string(self):
        unit = ComputeUnit(
            name="dla",
            kind="dla",
            peak_gflops=10.0,
            memory_bandwidth_gbs=40.0,
            launch_overhead_ms=0.2,
            power=PowerModel(0.2, 0.8),
            dvfs=DvfsTable.from_frequencies([500, 1000]),
        )
        assert unit.kind is ComputeUnitKind.DLA

    def test_describe_contains_name(self):
        assert "gpu" in make_unit().describe()


class TestInterconnect:
    def test_zero_bytes_costs_nothing(self):
        link = Interconnect()
        assert link.transfer_latency_ms(0) == 0.0
        assert link.transfer_energy_mj(0) == 0.0

    def test_latency_has_sync_overhead_plus_copy(self):
        link = Interconnect(bandwidth_gbs=100.0, sync_overhead_ms=0.05)
        one_mb = 1_000_000
        expected_copy_ms = 2 * one_mb / (100e9) * 1e3
        assert link.transfer_latency_ms(one_mb) == pytest.approx(0.05 + expected_copy_ms)

    def test_energy_proportional_to_bytes(self):
        link = Interconnect(energy_pj_per_byte=60.0)
        assert link.transfer_energy_mj(2_000_000) == pytest.approx(
            2 * link.transfer_energy_mj(1_000_000)
        )

    def test_latency_monotone_in_bytes(self):
        link = Interconnect()
        assert link.transfer_latency_ms(10_000) < link.transfer_latency_ms(10_000_000)

    def test_negative_bytes_rejected(self):
        link = Interconnect()
        with pytest.raises(ConfigurationError):
            link.transfer_latency_ms(-1)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            Interconnect(bandwidth_gbs=0.0)


class TestSharedMemory:
    def test_fits_within_budget(self):
        memory = SharedMemory(capacity_bytes=1000, feature_budget_bytes=100)
        assert memory.fits(50)
        assert memory.fits(100)
        assert not memory.fits(101)

    def test_utilisation(self):
        memory = SharedMemory(capacity_bytes=1000, feature_budget_bytes=200)
        assert memory.utilisation(100) == pytest.approx(0.5)

    def test_budget_cannot_exceed_capacity(self):
        with pytest.raises(ConfigurationError):
            SharedMemory(capacity_bytes=100, feature_budget_bytes=200)

    def test_negative_usage_rejected(self):
        memory = SharedMemory(capacity_bytes=100, feature_budget_bytes=50)
        with pytest.raises(ConfigurationError):
            memory.fits(-1)


class TestPlatform:
    def test_xavier_composition(self, platform):
        assert platform.num_units == 3
        assert platform.unit_names == ("gpu", "dla0", "dla1")
        assert platform.unit("gpu").kind is ComputeUnitKind.GPU
        assert len(platform.units_of_kind("dla")) == 2

    def test_xavier_with_cpu(self, platform_with_cpu):
        assert platform_with_cpu.num_units == 4
        assert platform_with_cpu.unit("cpu").kind is ComputeUnitKind.CPU

    def test_gpu_faster_but_hungrier_than_dla(self, platform):
        gpu, dla = platform.unit("gpu"), platform.unit("dla0")
        assert gpu.peak_gflops > dla.peak_gflops
        assert gpu.power.max_power_w > dla.power.max_power_w

    def test_dla_weak_on_attention(self, platform):
        dla = platform.unit("dla0")
        assert dla.utilisation_for("attention") < dla.utilisation_for("conv2d")

    def test_unit_lookup_and_index(self, platform):
        assert platform.unit_index("dla1") == 2
        with pytest.raises(PlatformError):
            platform.unit("npu")
        with pytest.raises(PlatformError):
            platform.unit_index("npu")

    def test_dvfs_space_size_is_product(self, platform):
        expected = 1
        for unit in platform.compute_units:
            expected *= unit.num_dvfs_points()
        assert platform.dvfs_space_size() == expected

    def test_describe_lists_all_units(self, platform):
        text = platform.describe()
        for name in platform.unit_names:
            assert name in text

    def test_duplicate_units_rejected(self):
        unit = make_unit()
        with pytest.raises(PlatformError):
            Platform(
                name="bad",
                compute_units=(unit, unit),
                interconnect=Interconnect(),
                shared_memory=SharedMemory(capacity_bytes=100, feature_budget_bytes=10),
            )

    def test_empty_platform_rejected(self):
        with pytest.raises(PlatformError):
            Platform(
                name="bad",
                compute_units=(),
                interconnect=Interconnect(),
                shared_memory=SharedMemory(capacity_bytes=100, feature_budget_bytes=10),
            )

    def test_feature_budget_configurable(self):
        platform = jetson_agx_xavier(feature_budget_mib=2.0)
        assert platform.shared_memory.feature_budget_bytes == 2 * 2**20


class TestHashing:
    @pytest.mark.parametrize("name", sorted(PRESET_REPR_DIGESTS))
    def test_equal_platforms_hash_equal(self, name):
        first, second = get_platform(name), get_platform(name)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert {first: name}[second] == name

    def test_every_preset_is_pinned(self):
        assert set(platform_names()) == set(PRESET_REPR_DIGESTS)

    @pytest.mark.parametrize("name", sorted(PRESET_REPR_DIGESTS))
    def test_repr_is_unchanged(self, name):
        text = repr(get_platform(name))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PRESET_REPR_DIGESTS[name]
        assert "utilisation={'" in text

    def test_unit_hash_follows_equality(self):
        unit = make_unit()
        reordered = dataclasses.replace(unit, utilisation={"attention": 0.5, "conv2d": 1.0})
        assert reordered == unit
        assert hash(reordered) == hash(unit)
        changed = dataclasses.replace(unit, utilisation={"conv2d": 1.0, "attention": 0.4})
        assert changed != unit
        assert hash(changed) != hash(unit)

    def test_replay_scenario_hashes(self):
        scenario = ReplayScenario(jetson_agx_xavier(), PoissonArrivals(30.0), 400.0, seed=3)
        twin = ReplayScenario(jetson_agx_xavier(), PoissonArrivals(30.0), 400.0, seed=3)
        assert scenario == twin
        assert hash(scenario) == hash(twin)
        assert len({scenario, twin}) == 1

    def test_measured_objective_set_hashes(self):
        family = SteadyPoissonFamily(rate_rps=40.0)
        first = measured_serving_objectives(family, jetson_agx_xavier())
        second = measured_serving_objectives(family, jetson_agx_xavier())
        assert first == second
        assert hash(first) == hash(second)
