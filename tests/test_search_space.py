"""Unit tests for the search-space encoding, sampling and cardinality."""

from __future__ import annotations

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError, MappingError
from repro.nn.partition import IndicatorMatrix, PartitionMatrix
from repro.search.space import MappingConfig, SearchSpace


class TestMappingConfig:
    def test_equality_membership_and_hashing(self, tiny_space):
        first, second = tiny_space.sample(3), tiny_space.sample(3)
        other = tiny_space.sample(4)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != other
        assert second in [other, first] and other not in [first, second]
        assert len({first, second, other}) == 2
        assert {first: "kept"}[second] == "kept"
        for clone in (pickle.loads(pickle.dumps(first)), copy.deepcopy(first)):
            assert clone == first and hash(clone) == hash(first)
            assert clone in {first}

    def test_configs_differing_in_one_part_are_unequal(self, tiny_space):
        config = tiny_space.sample(3)
        variants = [
            replace(config, partition=PartitionMatrix.uniform(3, config.num_layers)),
            replace(config, indicator=IndicatorMatrix(1 - config.indicator.values)),
            replace(config, unit_names=config.unit_names[::-1]),
            replace(config, dvfs_indices=tuple(i + 1 for i in config.dvfs_indices)),
        ]
        for variant in variants:
            assert variant != config and variant not in [config]
        assert replace(config, dvfs_indices=config.dvfs_indices) == config

    def test_valid_config(self, tiny_mapping_config):
        assert tiny_mapping_config.num_stages == 3
        assert tiny_mapping_config.num_layers == 3
        assert 0.0 <= tiny_mapping_config.reuse_fraction() <= 1.0

    def test_describe_mentions_units(self, tiny_mapping_config):
        text = tiny_mapping_config.describe()
        assert "gpu" in text and "dla0" in text

    def test_duplicate_units_rejected(self):
        with pytest.raises(MappingError):
            MappingConfig(
                partition=PartitionMatrix.uniform(2, 3),
                indicator=IndicatorMatrix.none(2, 3),
                unit_names=("gpu", "gpu"),
                dvfs_indices=(0, 0),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MappingConfig(
                partition=PartitionMatrix.uniform(2, 3),
                indicator=IndicatorMatrix.none(2, 4),
                unit_names=("gpu", "dla0"),
                dvfs_indices=(0, 0),
            )

    def test_wrong_unit_count_rejected(self):
        with pytest.raises(MappingError):
            MappingConfig(
                partition=PartitionMatrix.uniform(2, 3),
                indicator=IndicatorMatrix.none(2, 3),
                unit_names=("gpu",),
                dvfs_indices=(0, 0),
            )

    def test_negative_dvfs_rejected(self):
        with pytest.raises(MappingError):
            MappingConfig(
                partition=PartitionMatrix.uniform(2, 3),
                indicator=IndicatorMatrix.none(2, 3),
                unit_names=("gpu", "dla0"),
                dvfs_indices=(0, -1),
            )


class TestSearchSpaceSampling:
    def test_sample_is_valid_config(self, tiny_space, platform):
        config = tiny_space.sample(seed=0)
        assert config.num_stages == platform.num_units
        assert set(config.unit_names) <= set(platform.unit_names)
        for name, index in zip(config.unit_names, config.dvfs_indices):
            assert 0 <= index < platform.unit(name).num_dvfs_points()

    def test_sampling_deterministic_per_seed(self, tiny_space):
        first = tiny_space.sample(seed=11)
        second = tiny_space.sample(seed=11)
        np.testing.assert_allclose(first.partition.values, second.partition.values)
        assert first.unit_names == second.unit_names
        assert first.dvfs_indices == second.dvfs_indices

    def test_population_size(self, tiny_space):
        population = tiny_space.population(10, seed=0)
        assert len(population) == 10

    def test_population_invalid_size_rejected(self, tiny_space):
        with pytest.raises(ConfigurationError):
            tiny_space.population(0)

    def test_last_stage_indicator_always_zero(self, tiny_space):
        rng = np.random.default_rng(0)
        for _ in range(10):
            config = tiny_space.sample(rng)
            assert config.indicator.values[-1, :].sum() == 0

    def test_reuse_cap_respected(self, tiny_network, platform):
        space = SearchSpace(tiny_network, platform, max_reuse_fraction=0.5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            config = space.sample(rng)
            assert config.reuse_fraction() <= 0.5 + 1e-9

    def test_zero_reuse_cap_means_no_reuse(self, tiny_network, platform):
        space = SearchSpace(tiny_network, platform, max_reuse_fraction=0.0)
        config = space.sample(seed=0)
        assert config.reuse_fraction() == 0.0

    def test_fewer_stages_than_units(self, visformer_net, platform):
        space = SearchSpace(visformer_net, platform, num_stages=2)
        config = space.sample(seed=0)
        assert config.num_stages == 2
        assert len(set(config.unit_names)) == 2

    def test_invalid_num_stages_rejected(self, visformer_net, platform):
        with pytest.raises(ConfigurationError):
            SearchSpace(visformer_net, platform, num_stages=0)
        with pytest.raises(ConfigurationError):
            SearchSpace(visformer_net, platform, num_stages=5)

    def test_invalid_reuse_prior_rejected(self, visformer_net, platform):
        with pytest.raises(ConfigurationError):
            SearchSpace(visformer_net, platform, reuse_prior=1.5)


class TestCardinality:
    def test_paper_example_order_of_magnitude(self, visformer_net, platform):
        """Sect. V-A: one layer contributes O(1.5e5) = 8^3 x 3! x ~50 choices."""
        space = SearchSpace(visformer_net, platform)
        per_layer = space.per_layer_cardinality()
        # 8 ratios ** 3 stages * 3! mappings * (10 * 6 * 6) DVFS combinations.
        assert per_layer == 8**3 * math.factorial(3) * 360
        assert 1e5 < per_layer < 2e6

    def test_mapping_cardinality_is_permutation_count(self, visformer_net, platform):
        space = SearchSpace(visformer_net, platform, num_stages=2)
        assert space.mapping_cardinality() == math.perm(3, 2)

    def test_total_cardinality_is_astronomical(self, visformer_space):
        assert visformer_space.total_cardinality() > 1e30

    def test_dvfs_cardinality_matches_platform(self, visformer_space, platform):
        assert visformer_space.dvfs_cardinality() == platform.dvfs_space_size()


class TestReplaceUnit:
    def test_swap_keeps_permutation_valid(self, tiny_space):
        config = tiny_space.sample(seed=0)
        stage = 0
        other_unit = [n for n in tiny_space.platform.unit_names if n != config.unit_names[0]][0]
        swapped = tiny_space.replace_unit(config, stage, other_unit)
        assert swapped.unit_names[stage] == other_unit
        assert len(set(swapped.unit_names)) == len(swapped.unit_names)

    def test_dvfs_indices_clamped_after_swap(self, tiny_space, platform):
        config = tiny_space.sample(seed=1)
        for stage in range(config.num_stages):
            for unit in platform.unit_names:
                moved = tiny_space.replace_unit(config, stage, unit)
                for name, index in zip(moved.unit_names, moved.dvfs_indices):
                    assert index < platform.unit(name).num_dvfs_points()

    def test_unknown_unit_rejected(self, tiny_space):
        config = tiny_space.sample(seed=0)
        with pytest.raises(MappingError):
            tiny_space.replace_unit(config, 0, "npu")
