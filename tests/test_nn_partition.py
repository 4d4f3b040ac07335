"""Unit tests for the P / I matrices and the channel-splitting arithmetic."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.framework import MapAndConquer
from repro.errors import PartitionError
from repro.nn.models import resnet20
from repro.nn.partition import (
    RATIO_CHOICES,
    IndicatorMatrix,
    NetworkArrays,
    PartitionMatrix,
    backbone_layers,
    network_arrays,
    split_units,
)
from repro.search.space import MappingConfig
from repro.soc.platform import jetson_agx_xavier


class TestSplitUnits:
    def test_even_split(self):
        assert split_units(96, [1 / 3, 1 / 3, 1 / 3]) == (32, 32, 32)

    def test_shares_sum_to_width(self):
        for fractions in ([0.5, 0.25, 0.25], [0.7, 0.2, 0.1], [0.9, 0.05, 0.05]):
            assert sum(split_units(97, fractions)) == 97

    def test_respects_granularity(self):
        shares = split_units(192, [0.5, 0.3, 0.2], granularity=32)
        assert sum(shares) == 192
        assert all(share % 32 == 0 for share in shares)

    def test_minimum_one_granule_per_share(self):
        shares = split_units(192, [0.98, 0.01, 0.01], granularity=32)
        assert min(shares) >= 32

    def test_proportionality(self):
        shares = split_units(100, [0.6, 0.3, 0.1])
        assert shares == (60, 30, 10)

    def test_too_many_shares_rejected(self):
        with pytest.raises(PartitionError):
            split_units(64, [0.25, 0.25, 0.25, 0.25], granularity=32)

    def test_bad_granularity_rejected(self):
        with pytest.raises(PartitionError):
            split_units(100, [0.5, 0.5], granularity=3)

    def test_bad_fractions_rejected(self):
        with pytest.raises(PartitionError):
            split_units(100, [0.5, 0.4])
        with pytest.raises(PartitionError):
            split_units(100, [-0.1, 1.1])
        with pytest.raises(PartitionError):
            split_units(100, [])
        with pytest.raises(PartitionError):
            split_units(100, [float("nan"), 0.5, 0.5])


class TestPartitionMatrix:
    def test_uniform(self):
        matrix = PartitionMatrix.uniform(3, 5)
        assert matrix.num_stages == 3
        assert matrix.num_layers == 5
        np.testing.assert_allclose(matrix.values.sum(axis=0), 1.0)

    def test_from_stage_fractions(self):
        matrix = PartitionMatrix.from_stage_fractions([0.5, 0.3, 0.2], num_layers=4)
        assert matrix.fraction(0, 3) == pytest.approx(0.5)
        assert matrix.fraction(2, 0) == pytest.approx(0.2)

    def test_columns_must_sum_to_one(self):
        with pytest.raises(PartitionError):
            PartitionMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_entries_must_be_fractions(self):
        with pytest.raises(PartitionError):
            PartitionMatrix(np.array([[1.5, 1.0], [-0.5, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            PartitionMatrix(np.zeros((0, 0)))

    def test_column_sums_share_split_units_tolerance(self):
        # resnet20 with two stages: 0.5 everywhere plus 5e-6 on row 0 sums to
        # 1.000005.  np.allclose's default rtol used to accept that, and
        # evaluate() then failed inside split_units; P now refuses it.
        values = np.full((2, len(backbone_layers(resnet20()))), 0.5)
        values[0] += 5e-6
        with pytest.raises(PartitionError) as raised:
            PartitionMatrix(values)
        assert str(raised.value) == (
            f"every column of P must sum to 1 (got column sums {values.sum(axis=0)})"
        )
        with pytest.raises(PartitionError, match="fractions must be non-negative and sum to 1"):
            split_units(64, values[:, 0])

    def test_column_sums_within_tolerance_evaluate(self):
        network = resnet20()
        values = np.full((2, len(backbone_layers(network))), 0.5)
        values[0] += 5e-7
        values[1] -= 1e-7
        framework = MapAndConquer(network, jetson_agx_xavier(), num_stages=2)
        config = MappingConfig(
            partition=PartitionMatrix(values),
            indicator=IndicatorMatrix.full(2, values.shape[1]),
            unit_names=("gpu", "dla0"),
            dvfs_indices=(0, 0),
        )
        assert framework.evaluate(config).accuracy > 0

    def test_holds_a_copy_of_the_callers_array(self):
        values = np.full((2, 3), 0.5)
        matrix = PartitionMatrix(values)
        values[0, 0] = 7.0
        assert matrix.values[0, 0] == 0.5
        # P's own array is read-only too, also in unpickled and deep copies,
        # so the validation the split relies on cannot go stale.
        clones = [pickle.loads(pickle.dumps(matrix, protocol=p)) for p in (2, 4, 5)]
        for held in [matrix, copy.deepcopy(matrix)] + clones:
            assert np.array_equal(held.values, matrix.values)
            with pytest.raises(ValueError, match="read-only"):
                held.values[0, 0] = 7.0
            assert held.values[0, 0] == 0.5

    def test_nan_entry_fails_the_range_check(self):
        values = np.full((2, 3), 0.5)
        values[1, 2] = np.nan
        with pytest.raises(PartitionError) as raised:
            PartitionMatrix(values)
        assert str(raised.value) == "P entries must lie in [0, 1]"

    def test_ratio_choices_are_eight_fractions(self):
        assert len(RATIO_CHOICES) == 8
        assert RATIO_CHOICES[-1] == 1.0


class TestIndicatorMatrix:
    def test_full_and_none_constructors(self):
        full = IndicatorMatrix.full(3, 4)
        none = IndicatorMatrix.none(3, 4)
        assert full.values.sum() == 12
        assert none.values.sum() == 0

    def test_reuse_fraction_excludes_last_stage(self):
        values = np.zeros((3, 4), dtype=int)
        values[0, :] = 1  # first stage forwards everything
        indicator = IndicatorMatrix(values)
        assert indicator.reuse_fraction() == pytest.approx(0.5)

    def test_reuse_fraction_single_stage_is_zero(self):
        assert IndicatorMatrix(np.zeros((1, 4), dtype=int)).reuse_fraction() == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(PartitionError):
            IndicatorMatrix(np.array([[0, 2], [1, 0]]))

    def test_reused_lookup(self):
        indicator = IndicatorMatrix(np.array([[1, 0], [0, 0]]))
        assert indicator.reused(0, 0) is True
        assert indicator.reused(0, 1) is False

    def test_holds_a_read_only_copy_of_the_callers_array(self):
        values = np.array([[1, 0, 1], [0, 0, 0]])
        matrix = IndicatorMatrix(values)
        values[0, 1] = 1
        assert matrix.values[0, 1] == 0
        # Read-only also in unpickled and deep copies, as P's array is.
        clones = [pickle.loads(pickle.dumps(matrix, protocol=p)) for p in (2, 4, 5)]
        for held in [matrix, copy.deepcopy(matrix)] + clones:
            assert held.values.dtype == np.dtype(int)
            with pytest.raises(ValueError, match="read-only"):
                held.values[0, 1] = 1
            assert held.values[0, 1] == 0


class TestContentEquality:
    """P and I compare and hash by content: their shape and bytes."""

    @pytest.mark.parametrize(
        "build, other",
        [
            (lambda: PartitionMatrix.uniform(2, 3), lambda: PartitionMatrix.uniform(3, 2)),
            (lambda: IndicatorMatrix.full(2, 3), lambda: IndicatorMatrix.none(2, 3)),
            (lambda: IndicatorMatrix.none(2, 3), lambda: IndicatorMatrix.none(3, 2)),
        ],
    )
    def test_equal_content_is_equal(self, build, other):
        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != other()
        assert first in [other(), second] and other() not in [first]
        assert len({first, second, other()}) == 2
        for clone in (copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
            assert clone == first and hash(clone) == hash(first)

    def test_kinds_and_foreign_values_differ(self):
        indicator = IndicatorMatrix.none(2, 3)
        partition = PartitionMatrix(np.zeros((2, 3)) + np.array([[1.0], [0.0]]))
        assert indicator != partition and partition != indicator
        assert indicator != indicator.values.tolist()
        assert IndicatorMatrix(np.array([[True, False]])) == IndicatorMatrix(np.array([[1, 0]]))


class TestBackboneLayers:
    def test_classifier_head_is_stripped(self, tiny_network):
        backbone = backbone_layers(tiny_network)
        assert len(backbone) == 3
        assert backbone[-1].name == "mlp"

    def test_visformer_backbone_excludes_head(self, visformer_net):
        backbone = backbone_layers(visformer_net)
        assert len(backbone) == len(visformer_net) - 1


def one_candidate(network, partition, indicator):
    """The ``NetworkArrays`` of one ``(P, I)`` pair, each field as its one row."""
    arrays = network_arrays(network, backbone_layers(network), [partition], [indicator])
    return NetworkArrays(*(field[0] for field in arrays))


class TestNetworkArrays:
    @pytest.fixture()
    def arrays(self, tiny_network):
        partition = PartitionMatrix.uniform(3, 3)
        indicator_values = np.ones((3, 3), dtype=int)
        indicator_values[-1, :] = 0
        return one_candidate(tiny_network, partition, IndicatorMatrix(indicator_values))

    @pytest.fixture()
    def isolated(self, tiny_network):
        return one_candidate(
            tiny_network, PartitionMatrix.uniform(3, 3), IndicatorMatrix.none(3, 3)
        )

    def test_channels_sum_to_layer_widths(self, arrays, tiny_network):
        backbone = backbone_layers(tiny_network)
        for layer_index, layer in enumerate(backbone):
            assert arrays.channels[:, layer_index].sum() == layer.width

    def test_attention_respects_head_granularity(self, arrays):
        # Layer index 1 is the 4-head attention layer (head_dim 8).
        for stage in range(3):
            assert arrays.channels[stage, 1] % 8 == 0

    def test_first_layer_input_is_model_input(self, arrays, tiny_network):
        for stage in range(3):
            assert arrays.in_units[stage, 0] == tiny_network[0].in_width

    def test_later_layer_input_includes_reused_channels(self, arrays):
        # With full reuse, stage 2's input at layer 1 sees all of layer 0.
        total_layer0 = arrays.channels[:, 0].sum()
        assert arrays.in_units[2, 1] == total_layer0

    def test_no_reuse_limits_input_to_own_channels(self, isolated):
        assert isolated.in_units[2, 1] == isolated.channels[2, 0]

    def test_reused_bytes_zero_for_first_stage(self, arrays):
        for layer in range(3):
            assert arrays.imported_bytes[0, layer] == 0

    def test_reused_bytes_positive_with_reuse(self, arrays):
        assert arrays.imported_bytes[1, 1] > 0
        assert arrays.imported_bytes[2, 1] > arrays.imported_bytes[1, 1]

    def test_stored_feature_bytes_zero_without_reuse(self, isolated):
        assert isolated.stored_bytes == 0

    def test_stage_flops_sum_close_to_static_model(self, isolated, tiny_network):
        # Without reuse the three stages together execute roughly the static
        # backbone (input widths shrink, so the sum is at most the original).
        backbone = backbone_layers(tiny_network)
        static_flops = sum(layer.flops() for layer in backbone)
        total = sum(
            layer.flops(
                in_units=int(isolated.in_units[stage, index]),
                out_units=int(isolated.channels[stage, index]),
            )
            for stage in range(3)
            for index, layer in enumerate(backbone)
        )
        assert total <= static_flops * 1.01

    def test_available_width_fraction_bounds(self, arrays, tiny_network):
        # What a stage holds of each layer (its own channels plus the reused
        # ones) is what the next layer reads, or the exit head at the last.
        backbone = backbone_layers(tiny_network)
        for stage in range(3):
            available = arrays.in_units[stage, 1:].tolist() + [arrays.exit_units[stage]]
            for layer, units in zip(backbone, available):
                assert 0 < units / layer.width <= 1.0
        assert arrays.in_units[2, 2] == backbone[1].width

    def test_shape_mismatch_rejected(self, tiny_network):
        with pytest.raises(PartitionError):
            one_candidate(
                tiny_network, PartitionMatrix.uniform(3, 2), IndicatorMatrix.none(3, 2)
            )
        with pytest.raises(PartitionError):
            one_candidate(
                tiny_network, PartitionMatrix.uniform(3, 3), IndicatorMatrix.none(2, 3)
            )
