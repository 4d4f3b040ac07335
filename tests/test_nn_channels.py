"""Unit tests for channel-importance ranking and reordering."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.channels import ChannelRanking, rank_channels
from repro.nn.multiexit import build_dynamic_network
from repro.search.space import SearchSpace


class TestRankChannels:
    def test_scores_cover_every_layer(self, tiny_network):
        ranking = rank_channels(tiny_network, seed=0)
        assert set(ranking.layer_names()) == set(tiny_network.layer_names)

    def test_scores_normalised_per_layer(self, tiny_network):
        ranking = rank_channels(tiny_network, seed=0)
        for layer in tiny_network:
            assert ranking.scores[layer.name].sum() == pytest.approx(1.0)
            assert ranking.scores[layer.name].shape == (layer.width,)

    def test_deterministic_per_seed(self, tiny_network):
        first = rank_channels(tiny_network, seed=42)
        second = rank_channels(tiny_network, seed=42)
        for name in first.layer_names():
            np.testing.assert_allclose(first.scores[name], second.scores[name])

    def test_different_seeds_differ(self, tiny_network):
        first = rank_channels(tiny_network, seed=1)
        second = rank_channels(tiny_network, seed=2)
        assert any(
            not np.allclose(first.scores[name], second.scores[name])
            for name in first.layer_names()
        )

    def test_order_sorts_scores_descending(self, tiny_network):
        ranking = rank_channels(tiny_network, seed=0)
        for name in ranking.layer_names():
            sorted_scores = ranking.scores[name][ranking.order[name]]
            assert np.all(np.diff(sorted_scores) <= 1e-12)

    def test_invalid_sigma_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError):
            rank_channels(tiny_network, sigma=0.0)


class TestCoverage:
    def test_full_fraction_gives_full_mass(self, tiny_ranking, tiny_network):
        for layer in tiny_network:
            assert tiny_ranking.coverage(layer.name, 1.0) == pytest.approx(1.0)

    def test_zero_fraction_gives_zero(self, tiny_ranking):
        assert tiny_ranking.coverage("conv1", 0.0) == 0.0
        assert tiny_ranking.coverage_unordered("conv1", 0.0) == 0.0

    def test_coverage_is_monotone_in_fraction(self, tiny_ranking):
        fractions = np.linspace(0.1, 1.0, 10)
        values = [tiny_ranking.coverage("attn", f) for f in fractions]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_ordered_coverage_dominates_unordered(self, tiny_ranking):
        for fraction in (0.25, 0.5, 0.75):
            ordered = tiny_ranking.coverage("attn", fraction)
            unordered = tiny_ranking.coverage_unordered("attn", fraction)
            assert ordered >= unordered - 1e-12

    def test_ordered_coverage_exceeds_fraction(self, tiny_ranking):
        # Heavy-tailed importance means the top half carries more than half
        # of the total mass -- the property the reordering exploits.
        assert tiny_ranking.coverage("attn", 0.5) > 0.5

    def test_cumulative_curve_shape(self, tiny_ranking, tiny_network):
        curve = tiny_ranking.cumulative_curve("mlp")
        width = tiny_network[tiny_network.layer_index("mlp")].width
        assert curve.shape == (width,)
        assert curve[-1] == pytest.approx(1.0)
        assert np.all(np.diff(curve) >= 0)

    def test_unknown_layer_rejected(self, tiny_ranking):
        with pytest.raises(KeyError):
            tiny_ranking.coverage("nope", 0.5)

    def test_invalid_fraction_rejected(self, tiny_ranking):
        with pytest.raises(ConfigurationError):
            tiny_ranking.coverage("conv1", 1.5)


class TestChannelRankingValidation:
    def test_mismatched_layers_rejected(self):
        scores = {"a": np.array([0.5, 0.5])}
        order = {"b": np.array([0, 1])}
        with pytest.raises(ConfigurationError):
            ChannelRanking(network_name="x", scores=scores, order=order)

    def test_unnormalised_scores_rejected(self):
        scores = {"a": np.array([0.5, 0.6])}
        order = {"a": np.array([1, 0])}
        with pytest.raises(ConfigurationError):
            ChannelRanking(network_name="x", scores=scores, order=order)


class TestChannelRankingContent:
    """A ranking compares and hashes by content, and its arrays cannot change."""

    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deep"]
    )
    def test_a_round_trip_compares_and_hashes_equal(self, visformer_ranking, clone):
        again = clone(visformer_ranking)
        assert again is not visformer_ranking
        assert again == visformer_ranking and hash(again) == hash(visformer_ranking)
        for values in (*again.scores.values(), *again.order.values()):
            assert not values.flags.writeable

    def test_changed_scores_compare_unequal(self, visformer_ranking):
        name = visformer_ranking.layer_names()[3]
        scores = {**visformer_ranking.scores, name: visformer_ranking.scores[name][::-1]}
        changed = ChannelRanking(visformer_ranking.network_name, scores, visformer_ranking.order)
        assert changed != visformer_ranking
        renamed = ChannelRanking("other", visformer_ranking.scores, visformer_ranking.order)
        assert renamed != visformer_ranking
        same = ChannelRanking(
            visformer_ranking.network_name,
            dict(visformer_ranking.scores),
            dict(visformer_ranking.order),
        )
        assert same == visformer_ranking and hash(same) == hash(visformer_ranking)

    def test_arrays_are_read_only_copies(self):
        scores = {"a": np.array([0.25, 0.75])}
        order = {"a": np.array([1, 0])}
        ranking = ChannelRanking(network_name="x", scores=scores, order=order)
        before = hash(ranking)
        scores["a"][:] = [0.75, 0.25]
        order["a"][:] = [0, 1]
        assert ranking.scores["a"].tolist() == [0.25, 0.75]
        assert ranking.order["a"].tolist() == [1, 0]
        assert hash(ranking) == before
        with pytest.raises(ValueError):
            ranking.scores["a"][0] = 1.0

    def test_two_views_of_a_ranking_and_its_copy_compare_equal(
        self, visformer_net, visformer_ranking, platform
    ):
        config = SearchSpace(visformer_net, platform).sample(0)
        views = [
            build_dynamic_network(
                visformer_net, config.partition, config.indicator, ranking=ranking
            )
            for ranking in (visformer_ranking, pickle.loads(pickle.dumps(visformer_ranking)))
        ]
        assert views[0] == views[1]
