"""Tests for the evaluation cache, content keys and JSONL persistence."""

from __future__ import annotations

import json

import pytest

from repro.engine.cache import _PERSIST_VERSION, CacheStats, EvaluationCache
from repro.errors import ConfigurationError
from repro.search.evaluation import ConfigEvaluator


@pytest.fixture()
def evaluated_pair(tiny_config_evaluator, tiny_space):
    """Two distinct evaluated configurations plus their digests."""
    config_a = tiny_space.sample(0)
    config_b = tiny_space.sample(1)
    return (
        (tiny_config_evaluator.content_digest(config_a), tiny_config_evaluator.evaluate(config_a)),
        (tiny_config_evaluator.content_digest(config_b), tiny_config_evaluator.evaluate(config_b)),
    )


class TestContentKeys:
    def test_same_config_same_key(self, tiny_config_evaluator, tiny_space):
        config = tiny_space.sample(0)
        assert tiny_config_evaluator.config_key(config) == tiny_config_evaluator.config_key(config)
        assert tiny_config_evaluator.content_digest(config) == tiny_config_evaluator.content_digest(
            config
        )

    def test_distinct_configs_distinct_keys(self, tiny_config_evaluator, tiny_space):
        config_a, config_b = tiny_space.sample(0), tiny_space.sample(1)
        assert tiny_config_evaluator.config_key(config_a) != tiny_config_evaluator.config_key(
            config_b
        )

    def test_reorder_channels_feeds_the_key(self, tiny_network, platform, tiny_space):
        """Two evaluators differing only in ``reorder_channels`` never alias."""
        config = tiny_space.sample(0)
        with_reorder = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        without_reorder = ConfigEvaluator(
            network=tiny_network, platform=platform, reorder_channels=False, seed=0
        )
        assert with_reorder.config_key(config) != without_reorder.config_key(config)
        assert with_reorder.content_digest(config) != without_reorder.content_digest(config)

    def test_ranking_seed_feeds_the_key(self, tiny_network, platform, tiny_space):
        """Two evaluators with differently seeded rankings never alias."""
        config = tiny_space.sample(0)
        seeded_zero = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        seeded_seven = ConfigEvaluator(network=tiny_network, platform=platform, seed=7)
        assert seeded_zero.config_key(config) != seeded_seven.config_key(config)

    def test_ranking_order_feeds_the_key(self, tiny_network, platform, tiny_space, tiny_ranking):
        """Equal scores with a different channel order never alias."""
        from repro.nn.channels import ChannelRanking

        reordered = ChannelRanking(
            network_name=tiny_ranking.network_name,
            scores=tiny_ranking.scores,
            order={name: order[::-1] for name, order in tiny_ranking.order.items()},
        )
        config = tiny_space.sample(0)
        original = ConfigEvaluator(
            network=tiny_network, platform=platform, ranking=tiny_ranking, seed=0
        )
        flipped = ConfigEvaluator(
            network=tiny_network, platform=platform, ranking=reordered, seed=0
        )
        assert original.content_digest(config) != flipped.content_digest(config)

    def test_validation_samples_feed_the_key(self, tiny_network, platform, tiny_space):
        config = tiny_space.sample(0)
        few = ConfigEvaluator(
            network=tiny_network, platform=platform, validation_samples=100, seed=0
        )
        many = ConfigEvaluator(
            network=tiny_network, platform=platform, validation_samples=500, seed=0
        )
        assert few.config_key(config) != many.config_key(config)

    def test_digest_stable_across_evaluator_instances(self, tiny_network, platform, tiny_space):
        """Identically configured evaluators agree on digests (persistence)."""
        config = tiny_space.sample(3)
        first = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        second = ConfigEvaluator(network=tiny_network, platform=platform, seed=0)
        assert first.content_digest(config) == second.content_digest(config)

    def test_cost_model_parameters_feed_the_key(self, tiny_network, platform, tiny_space):
        """Same-class cost models with different state never alias."""
        from repro.perf.layer_cost import NoisyCostModel

        config = tiny_space.sample(0)
        mild = ConfigEvaluator(
            network=tiny_network,
            platform=platform,
            cost_model=NoisyCostModel(noise_std=0.01, seed=0),
            seed=0,
        )
        wild = ConfigEvaluator(
            network=tiny_network,
            platform=platform,
            cost_model=NoisyCostModel(noise_std=0.3, seed=0),
            seed=0,
        )
        assert mild.config_key(config) != wild.config_key(config)

    def test_unpicklable_cost_model_still_constructs(self, tiny_network, platform, tiny_space):
        """Custom models that cannot pickle keep working (unique fingerprint)."""
        from repro.perf.layer_cost import AnalyticalCostModel

        class OpaqueModel(AnalyticalCostModel):
            def __init__(self):
                super().__init__()
                self.hook = lambda value: value  # lambdas do not pickle

        evaluator = ConfigEvaluator(
            network=tiny_network, platform=platform, cost_model=OpaqueModel(), seed=0
        )
        config = tiny_space.sample(0)
        assert evaluator.evaluate(config).latency_ms > 0
        assert "unpicklable" in evaluator.identity_key()[5][1]


class TestCacheStats:
    def test_hit_rate_of_unused_cache_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_window_hit_rate(self):
        stats = CacheStats()
        stats.misses = 4
        snapshot = stats.snapshot()
        stats.hits += 3
        stats.misses += 1
        assert stats.window_hit_rate(snapshot) == pytest.approx(0.75)
        assert stats.hit_rate == pytest.approx(3 / 8)


class TestEvaluationCache:
    def test_lookup_miss_then_hit(self, evaluated_pair):
        (digest, value), _ = evaluated_pair
        cache = EvaluationCache()
        assert cache.lookup(digest) is None
        cache.store(digest, value)
        assert cache.lookup(digest) is value
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert len(cache) == 1
        assert digest in cache

    def test_peek_does_not_count(self, evaluated_pair):
        (digest, value), _ = evaluated_pair
        cache = EvaluationCache()
        cache.store(digest, value)
        assert cache.peek(digest) is value
        assert cache.stats.lookups == 0

    def test_store_rejects_foreign_values(self):
        cache = EvaluationCache()
        with pytest.raises(ConfigurationError):
            cache.store("deadbeef", "not an EvaluatedConfig")

    def test_duplicate_store_is_idempotent(self, evaluated_pair, tmp_path):
        (digest, value), _ = evaluated_pair
        cache = EvaluationCache(path=tmp_path / "cache.jsonl")
        cache.store(digest, value)
        cache.store(digest, value)
        assert len((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 1

    def test_get_many_counts_one_pass(self, evaluated_pair):
        (digest_a, value_a), (digest_b, _) = evaluated_pair
        cache = EvaluationCache()
        cache.store(digest_a, value_a)
        found = cache.get_many([digest_a, digest_b, digest_a])
        assert found == {digest_a: value_a}
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 3

    def test_get_many_of_nothing_is_empty(self):
        cache = EvaluationCache()
        assert cache.get_many([]) == {}
        assert cache.stats.lookups == 0

    def test_store_many_skips_existing_and_persists_new(self, evaluated_pair, tmp_path):
        (digest_a, value_a), (digest_b, value_b) = evaluated_pair
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path=path)
        cache.store(digest_a, value_a)
        cache.store_many([(digest_a, value_a), (digest_b, value_b)])
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert cache.peek(digest_b) is value_b

    def test_store_many_rejects_foreign_values(self, evaluated_pair):
        (digest, _), _ = evaluated_pair
        cache = EvaluationCache()
        with pytest.raises(ConfigurationError):
            cache.store_many([(digest, "not an EvaluatedConfig")])

    def test_items_iterates_without_stats(self, evaluated_pair):
        cache = EvaluationCache()
        for digest, value in evaluated_pair:
            cache.store(digest, value)
        assert dict(cache.items()) == {digest: value for digest, value in evaluated_pair}
        assert cache.stats.lookups == 0


class TestPersistence:
    def test_round_trip(self, evaluated_pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer = EvaluationCache(path=path)
        for digest, value in evaluated_pair:
            writer.store(digest, value)

        reader = EvaluationCache(path=path)
        assert reader.stats.loaded == 2
        for digest, value in evaluated_pair:
            restored = reader.lookup(digest)
            assert restored is not None
            assert restored.latency_ms == pytest.approx(value.latency_ms)
            assert restored.energy_mj == pytest.approx(value.energy_mj)
            assert restored.accuracy == pytest.approx(value.accuracy)

    def test_lines_are_valid_json_with_metrics(self, evaluated_pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path=path)
        (digest, value), _ = evaluated_pair
        cache.store(digest, value)
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert record["key"] == digest
        assert record["metrics"]["latency_ms"] == pytest.approx(value.latency_ms)
        assert "payload" in record

    def test_corrupt_lines_are_skipped(self, evaluated_pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path=path)
        (digest, value), _ = evaluated_pair
        cache.store(digest, value)
        with path.open("a", encoding="utf-8") as stream:
            stream.write("{not json}\n")
            stream.write(json.dumps({"version": 99, "key": "x", "payload": ""}) + "\n")
            # Valid version but no "key" field (foreign writer).
            stream.write(json.dumps({"version": _PERSIST_VERSION, "payload": "AAAA"}) + "\n")
            # Valid shape but the payload is not an EvaluatedConfig pickle.
            import base64
            import pickle

            stream.write(
                json.dumps(
                    {
                        "version": _PERSIST_VERSION,
                        "key": "y",
                        "payload": base64.b64encode(pickle.dumps([1, 2])).decode(),
                    }
                )
                + "\n"
            )
        reader = EvaluationCache(path=path)
        assert reader.stats.loaded == 1
        assert reader.peek(digest) is not None

    def test_missing_file_starts_empty(self, tmp_path):
        cache = EvaluationCache(path=tmp_path / "nonexistent.jsonl")
        assert len(cache) == 0

    def test_truncated_trailing_line_is_recovered_and_logged(
        self, evaluated_pair, tmp_path, caplog
    ):
        """A mid-write crash leaves a half line; the rest must load, loudly."""
        path = tmp_path / "cache.jsonl"
        writer = EvaluationCache(path=path)
        for digest, value in evaluated_pair:
            writer.store(digest, value)
        full = path.read_text(encoding="utf-8")
        lines = full.splitlines(keepends=True)
        # Chop the last line in half, no trailing newline — exactly what a
        # SIGKILL during _append's write leaves behind.
        path.write_text(
            "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2], encoding="utf-8"
        )

        import logging

        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            reader = EvaluationCache(path=path)
        (first_digest, _), _ = evaluated_pair
        assert reader.stats.loaded == 1
        assert reader.peek(first_digest) is not None
        assert any(
            "recovered 1 entries" in record.message and "skipped 1" in record.message
            for record in caplog.records
        )

    def test_clean_load_does_not_warn(self, evaluated_pair, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        writer = EvaluationCache(path=path)
        for digest, value in evaluated_pair:
            writer.store(digest, value)

        import logging

        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            EvaluationCache(path=path)
        assert not caplog.records


class TestFrameworkSharedCache:
    def test_repeat_search_on_one_framework_hits_shared_cache(self, tiny_network, platform):
        from repro.core.framework import MapAndConquer
        from repro.search.objectives import paper_objective

        framework = MapAndConquer(tiny_network, platform, seed=0)
        first = framework.search(generations=3, population_size=8, seed=0)
        second = framework.search(generations=3, population_size=8, seed=0)
        assert paper_objective(second.best) == paper_objective(first.best)
        assert all(stat.cache_hit_rate == 1.0 for stat in second.generations)
        assert len(framework.evaluation_cache) == first.num_evaluations


class TestWarmSearches:
    def test_second_run_is_all_hits_and_identical(self, tiny_network, platform, tmp_path):
        from repro.core.framework import MapAndConquer
        from repro.search.objectives import paper_objective

        path = tmp_path / "cache.jsonl"
        cold = MapAndConquer(tiny_network, platform, seed=0).search(
            generations=3, population_size=8, seed=0, cache=str(path)
        )
        warm = MapAndConquer(tiny_network, platform, seed=0).search(
            generations=3, population_size=8, seed=0, cache=str(path)
        )
        assert paper_objective(warm.best) == paper_objective(cold.best)
        assert all(stat.cache_hit_rate == 1.0 for stat in warm.generations)
        assert [s.best_objective for s in warm.generations] == [
            s.best_objective for s in cold.generations
        ]


class TestOlderFormat:
    def test_v1_lines_are_ignored_and_re_evaluated(
        self, tiny_network, platform, tmp_path, caplog
    ):
        """A version-1 line pickled its result with the dynamic network and no
        ``base_accuracy``.  It is never unpickled: the reader logs an older
        format, loads nothing, and a search evaluates every configuration
        again, exactly as on a cold cache."""
        import base64
        import logging
        import pickle

        from repro.core.framework import MapAndConquer
        from repro.nn.multiexit import build_dynamic_network
        from repro.search.evaluation import EvaluatedConfig
        from repro.search.objectives import paper_objective

        def search():
            framework = MapAndConquer(tiny_network, platform, seed=0)
            result = framework.search(generations=3, population_size=8, seed=0, cache=str(path))
            return framework, result

        path = tmp_path / "cache.jsonl"
        framework, cold = search()
        evaluator = framework.evaluator
        older_lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            value = pickle.loads(base64.b64decode(record["payload"]))
            # The version-1 shape: the network in place of its base accuracy.
            legacy = object.__new__(EvaluatedConfig)
            legacy.__dict__.update(
                config=value.config,
                dynamic_network=build_dynamic_network(
                    evaluator.network,
                    value.config.partition,
                    value.config.indicator,
                    evaluator.ranking,
                    evaluator.reorder_channels,
                ),
                profile=value.profile,
                inference=value.inference,
            )
            record.update(version=1, payload=base64.b64encode(pickle.dumps(legacy)).decode())
            older_lines.append(json.dumps(record))
        path.write_text("\n".join(older_lines) + "\n", encoding="utf-8")

        with caplog.at_level(logging.INFO, logger="repro.engine.cache"):
            reader = EvaluationCache(path=path)
        assert len(reader) == 0 and reader.stats.loaded == 0
        assert f"ignored {cold.num_evaluations} lines of an older format" in caplog.text
        assert "malformed" not in caplog.text

        _, rerun = search()
        assert [s.cache_hit_rate for s in rerun.generations] == [
            s.cache_hit_rate for s in cold.generations
        ]
        assert paper_objective(rerun.best) == paper_objective(cold.best)
        # The re-evaluated results were appended in the current format.
        assert EvaluationCache(path=path).stats.loaded == cold.num_evaluations
