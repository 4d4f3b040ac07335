"""Property tests for the platform zoo (repro.soc.presets).

Every registry preset must uphold the calibration invariants the mapping
method exploits — these tests are the contract a new preset signs up to.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlatformError
from repro.soc import (
    ComputeUnit,
    ComputeUnitKind,
    DvfsTable,
    Platform,
    PowerModel,
    derive,
    get_platform,
    jetson_agx_xavier,
    platform_names,
    platform_registry,
)

ALL_PRESETS = platform_names()


def conv_throughput(unit: ComputeUnit) -> float:
    """Sustained conv2d GFLOP/s at the top DVFS point."""
    return unit.effective_gflops("conv2d", scale=1.0)


def conv_efficiency(unit: ComputeUnit) -> float:
    """Sustained conv2d GFLOP/s per watt at the top DVFS point."""
    return conv_throughput(unit) / unit.power.max_power_w


class TestRegistry:
    def test_registry_has_xavier_plus_four_new_presets(self):
        assert "jetson-agx-xavier" in ALL_PRESETS
        assert len(ALL_PRESETS) >= 5

    def test_registry_copy_is_safe_to_mutate(self):
        registry = platform_registry()
        registry.clear()
        assert len(platform_registry()) == len(ALL_PRESETS)

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_round_trip_through_get_platform(self, name):
        first = get_platform(name)
        assert first.name == name
        assert first == platform_registry()[name]()
        # Name resolution is case- and separator-insensitive.
        assert get_platform(name.upper().replace("-", "_")) == first

    def test_unknown_preset_raises(self):
        with pytest.raises(PlatformError, match="unknown platform preset"):
            get_platform("jetson-agx-mars")

    def test_xavier_entry_is_the_paper_factory(self):
        assert get_platform("jetson-agx-xavier") == jetson_agx_xavier()


class TestCalibrationInvariants:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_heterogeneous_with_nondegenerate_dvfs(self, name):
        platform = get_platform(name)
        assert platform.num_units >= 2
        assert platform.dvfs_space_size() > 1
        for unit in platform.compute_units:
            assert unit.num_dvfs_points() > 1

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_gpu_is_the_fastest_conv_unit(self, name):
        platform = get_platform(name)
        gpus = platform.units_of_kind(ComputeUnitKind.GPU)
        if not gpus:
            pytest.skip(f"{name} has no GPU in its mapping space")
        fastest = max(platform.compute_units, key=conv_throughput)
        assert fastest.kind == ComputeUnitKind.GPU

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_accelerators_are_most_energy_efficient(self, name):
        platform = get_platform(name)
        accelerators = platform.units_of_kind(ComputeUnitKind.DLA)
        others = [u for u in platform.compute_units if u.kind != ComputeUnitKind.DLA]
        if not accelerators or not others:
            pytest.skip(f"{name} has no accelerator/other split")
        worst_accelerator = min(conv_efficiency(u) for u in accelerators)
        best_other = max(conv_efficiency(u) for u in others)
        assert worst_accelerator > best_other

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_accelerators_are_weak_on_attention(self, name):
        platform = get_platform(name)
        accelerators = platform.units_of_kind(ComputeUnitKind.DLA)
        others = [u for u in platform.compute_units if u.kind != ComputeUnitKind.DLA]
        if not accelerators or not others:
            pytest.skip(f"{name} has no accelerator/other split")
        assert max(u.utilisation_for("attention") for u in accelerators) < min(
            u.utilisation_for("attention") for u in others
        )

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_describe_smoke(self, name):
        platform = get_platform(name)
        text = platform.describe()
        assert name in text
        for unit in platform.compute_units:
            assert unit.name in text

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_platform_survives_pickling(self, name):
        """Presets cross process boundaries inside campaign cell tasks."""
        platform = get_platform(name)
        clone = pickle.loads(pickle.dumps(platform))
        assert clone == platform
        for index, unit in enumerate(clone.compute_units):
            assert clone.unit(unit.name) is unit
            assert clone.unit_index(unit.name) == index


class TestDerive:
    def test_scales_apply_uniformly(self):
        base = get_platform("jetson-agx-xavier")
        variant = derive(base, "xavier-2x", gflops_scale=2.0, power_scale=0.5)
        assert variant.name == "xavier-2x"
        for original, scaled in zip(base.compute_units, variant.compute_units):
            assert scaled.peak_gflops == pytest.approx(2.0 * original.peak_gflops)
            assert scaled.power.max_power_w == pytest.approx(0.5 * original.power.max_power_w)
            assert scaled.dvfs == original.dvfs

    def test_dvfs_resampling(self):
        base = get_platform("jetson-agx-orin")
        variant = derive(base, "orin-coarse", dvfs_points=3)
        for original, scaled in zip(base.compute_units, variant.compute_units):
            assert scaled.num_dvfs_points() == 3
            assert scaled.dvfs.max_frequency_mhz == pytest.approx(
                original.dvfs.max_frequency_mhz
            )

    def test_extra_units_appended(self):
        base = get_platform("jetson-nano-class")
        extra = ComputeUnit(
            name="npu",
            kind=ComputeUnitKind.DLA,
            peak_gflops=8.0,
            memory_bandwidth_gbs=20.0,
            launch_overhead_ms=0.2,
            power=PowerModel(static_w=0.2, dynamic_w=0.6),
            dvfs=DvfsTable.from_frequencies((400, 800)),
            utilisation={"conv2d": 1.0, "attention": 0.2},
        )
        variant = derive(base, "nano-plus-npu", extra_units=(extra,))
        assert variant.num_units == base.num_units + 1
        assert variant.unit("npu") == extra

    def test_invalid_factors_rejected(self):
        base = get_platform("server-gpu")
        with pytest.raises(PlatformError):
            derive(base, "broken", gflops_scale=0.0)
        with pytest.raises(PlatformError):
            derive(base, "broken", feature_budget_scale=0.0)

    def test_degenerate_dvfs_resampling_rejected(self):
        """A single-point ladder would break the non-degenerate-theta invariant."""
        base = get_platform("server-gpu")
        with pytest.raises(PlatformError, match="dvfs_points"):
            derive(base, "broken", dvfs_points=1)

    @settings(max_examples=25, deadline=None)
    @given(
        gflops=st.floats(min_value=0.1, max_value=10.0),
        power=st.floats(min_value=0.1, max_value=10.0),
        bandwidth=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_uniform_scaling_preserves_invariants(self, gflops, power, bandwidth):
        """Any positive uniform scaling keeps the calibration ordering."""
        base = jetson_agx_xavier()
        variant = derive(
            base,
            "xavier-variant",
            gflops_scale=gflops,
            power_scale=power,
            bandwidth_scale=bandwidth,
        )
        assert isinstance(variant, Platform)
        fastest = max(variant.compute_units, key=conv_throughput)
        assert fastest.kind == ComputeUnitKind.GPU
        accelerators = variant.units_of_kind(ComputeUnitKind.DLA)
        others = [u for u in variant.compute_units if u.kind != ComputeUnitKind.DLA]
        assert min(conv_efficiency(u) for u in accelerators) > max(
            conv_efficiency(u) for u in others
        )
        assert variant.dvfs_space_size() == base.dvfs_space_size()
