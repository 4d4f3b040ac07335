"""Unit tests for the static-to-dynamic multi-exit transformation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.channels import ChannelRanking
from repro.nn.layers import LinearLayer
from repro.nn.multiexit import build_dynamic_network
from repro.nn.partition import IndicatorMatrix, PartitionMatrix, backbone_layers
from repro.search.evaluation import ConfigEvaluator
from repro.search.space import SearchSpace


def build(network, ranking, num_stages=3, reuse=True, reorder=True):
    num_layers = 3
    indicator = (
        IndicatorMatrix.full(num_stages, num_layers)
        if reuse
        else IndicatorMatrix.none(num_stages, num_layers)
    )
    if reuse:
        values = indicator.values.copy()
        values[-1, :] = 0
        indicator = IndicatorMatrix(values)
    return build_dynamic_network(
        network,
        partition=PartitionMatrix.uniform(num_stages, num_layers),
        indicator=indicator,
        ranking=ranking,
        reorder=reorder,
    )


def stage_flops(dynamic, stage):
    """FLOPs of ``stage``'s sub-layer chain and exit head, from the view's arrays."""
    arrays = dynamic.arrays
    total = 0.0
    for index, layer in enumerate(backbone_layers(dynamic.network)):
        total += layer.flops(
            in_units=int(arrays.in_units[0, stage, index]),
            out_units=int(arrays.channels[0, stage, index]),
        )
    head = LinearLayer(
        name="exit",
        width=dynamic.network.num_classes,
        in_width=int(arrays.exit_units[0, stage]),
        tokens=1,
    )
    return total + head.flops()


class TestDynamicNetworkView:
    def test_number_of_stages_and_sublayers(self, tiny_dynamic):
        assert tiny_dynamic.num_stages == 3
        assert tiny_dynamic.num_layers == 3
        assert tiny_dynamic.arrays.channels.shape == (1, 3, 3)

    def test_fields_are_the_candidate_and_its_arrays(self, tiny_dynamic, tiny_network):
        assert tiny_dynamic.network is tiny_network
        assert tiny_dynamic.partition == PartitionMatrix.uniform(3, 3)
        assert tiny_dynamic.indicator.values[:-1].all()
        assert not tiny_dynamic.indicator.values[-1].any()

    def test_equality_ignores_the_derived_arrays(self, tiny_dynamic, tiny_network, tiny_ranking):
        again = build(tiny_network, tiny_ranking)
        assert again == tiny_dynamic
        assert again.arrays is not tiny_dynamic.arrays
        assert build(tiny_network, tiny_ranking, reuse=False) != tiny_dynamic
        clone = pickle.loads(pickle.dumps(tiny_dynamic))
        assert clone.partition == tiny_dynamic.partition
        assert clone.indicator == tiny_dynamic.indicator
        for field, copied in zip(tiny_dynamic.arrays, clone.arrays):
            assert np.array_equal(field, copied)

    def test_exit_head_input_grows_with_stage(self, tiny_dynamic):
        widths = tiny_dynamic.arrays.exit_units[0].tolist()
        assert widths[0] <= widths[1] <= widths[2]
        # The last stage reuses everything, so its exit reads the whole layer.
        assert widths[2] == backbone_layers(tiny_dynamic.network)[-1].width

    def test_imported_bytes_zero_for_first_stage(self, tiny_dynamic):
        imported = tiny_dynamic.arrays.imported_bytes[0].sum(axis=1)
        assert imported[0] == 0
        assert imported[2] > 0

    def test_invalid_stage_index_rejected(self, tiny_dynamic):
        for stage in (-1, 3, 7):
            with pytest.raises(ConfigurationError) as raised:
                tiny_dynamic.stage_coverage(stage)
            assert str(raised.value) == f"stage index {stage} out of range [0, 3)"


class TestStageCoverage:
    def test_coverage_increases_with_stage_under_full_reuse(self, tiny_dynamic):
        coverages = [tiny_dynamic.stage_coverage(i) for i in range(3)]
        assert coverages[0] < coverages[1] < coverages[2]

    def test_last_stage_full_coverage_with_full_reuse(self, tiny_dynamic):
        assert tiny_dynamic.stage_coverage(2) == pytest.approx(1.0, abs=1e-9)

    def test_no_reuse_reduces_late_stage_coverage(self, tiny_network, tiny_ranking):
        reuse = build(tiny_network, tiny_ranking, reuse=True)
        isolated = build(tiny_network, tiny_ranking, reuse=False)
        assert isolated.stage_coverage(2) < reuse.stage_coverage(2)

    def test_reordering_boosts_first_stage_coverage(self, tiny_network, tiny_ranking):
        ordered = build(tiny_network, tiny_ranking, reorder=True)
        unordered = build(tiny_network, tiny_ranking, reorder=False)
        assert ordered.stage_coverage(0) > unordered.stage_coverage(0)

    def test_unordered_coverage_equals_width_fraction(self, tiny_network, tiny_ranking):
        unordered = build(tiny_network, tiny_ranking, reuse=False, reorder=False)
        # Uniform split without reuse: each stage sees ~1/3 of every layer.
        assert unordered.stage_coverage(0) == pytest.approx(1 / 3, abs=0.12)

    def test_coverage_without_ranking_falls_back_to_fractions(self, tiny_network):
        dynamic = build_dynamic_network(
            tiny_network,
            partition=PartitionMatrix.uniform(3, 3),
            indicator=IndicatorMatrix.none(3, 3),
            ranking=None,
        )
        assert dynamic.reordered is False
        assert dynamic.stage_coverage(0) == pytest.approx(1 / 3, abs=0.12)


class TestReuseAccounting:
    def test_reuse_fraction_matches_indicator(self, tiny_network, tiny_ranking):
        dynamic = build(tiny_network, tiny_ranking, reuse=True)
        assert dynamic.reuse_fraction() == pytest.approx(1.0)
        isolated = build(tiny_network, tiny_ranking, reuse=False)
        assert isolated.reuse_fraction() == 0.0

    def test_stored_feature_bytes_sum_the_reused_outputs(self, tiny_dynamic):
        # Stages 0 and 1 forward every layer's output; the last stage nothing.
        channels = tiny_dynamic.arrays.channels[0]
        expected = sum(
            layer.output_bytes(int(channels[stage, index]))
            for stage in range(2)
            for index, layer in enumerate(backbone_layers(tiny_dynamic.network))
        )
        stored = tiny_dynamic.stored_feature_bytes()
        assert type(stored) is int and stored == expected > 0


class TestVisformerDynamic:
    def test_three_stage_visformer(self, visformer_net, visformer_ranking):
        num_layers = len(visformer_net) - 1
        dynamic = build_dynamic_network(
            visformer_net,
            partition=PartitionMatrix.uniform(3, num_layers),
            indicator=IndicatorMatrix.full(3, num_layers),
            ranking=visformer_ranking,
        )
        assert dynamic.num_stages == 3
        assert dynamic.num_layers == num_layers
        # Partitioned stages are each cheaper than the full static model.
        static_flops = visformer_net.total_flops()
        for stage in range(3):
            assert stage_flops(dynamic, stage) < static_flops


def resized_ranking(ranking, layer_name, width):
    """``ranking`` with ``layer_name`` scored over ``width`` channels."""
    raw = np.random.default_rng(0).lognormal(size=width)
    scores = {**ranking.scores, layer_name: raw / raw.sum()}
    order = {**ranking.order, layer_name: np.argsort(-scores[layer_name], kind="stable")}
    return ChannelRanking(ranking.network_name, scores, order)


class TestRankingWidths:
    """A ranking must score every layer over the layer's own width."""

    @pytest.mark.parametrize("width", [16, 48], ids=["narrower", "wider"])
    def test_another_width_raises(self, visformer_net, visformer_ranking, platform, width):
        ranking = resized_ranking(visformer_ranking, "stem", width)
        message = f"the ranking scores {width} channels of layer 'stem', which is 32 wide"
        space = SearchSpace(visformer_net, platform)
        config = space.sample(3)
        evaluator = ConfigEvaluator(visformer_net, platform, ranking=ranking, seed=0)
        with pytest.raises(ConfigurationError) as raised:
            evaluator.evaluate(config)
        assert str(raised.value) == message
        with pytest.raises(ConfigurationError) as raised:
            evaluator.evaluate_many(space.population(3, seed=1))
        assert str(raised.value) == message
        dynamic = build_dynamic_network(
            visformer_net, config.partition, config.indicator, ranking=ranking
        )
        with pytest.raises(ConfigurationError) as raised:
            dynamic.stage_coverage(0)
        assert str(raised.value) == message

    def test_without_reordering_the_scores_are_not_read(
        self, visformer_net, visformer_ranking, platform
    ):
        ranking = resized_ranking(visformer_ranking, "stem", 16)
        config = SearchSpace(visformer_net, platform).sample(3)
        plain = ConfigEvaluator(visformer_net, platform, reorder_channels=False, seed=0)
        resized = ConfigEvaluator(
            visformer_net, platform, ranking=ranking, reorder_channels=False, seed=0
        )
        assert resized.evaluate(config).accuracy == plain.evaluate(config).accuracy
