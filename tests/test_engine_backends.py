"""Tests for the serial evaluation backend and the engine's batch accounting."""

from __future__ import annotations

from repro.engine.backends import SerialBackend
from repro.engine.engine import SearchEngine


class TestSerialBackend:
    def test_preserves_order(self, tiny_config_evaluator, tiny_space):
        configs = [tiny_space.sample(i) for i in range(5)]
        backend = SerialBackend(tiny_config_evaluator)
        results = backend.evaluate(configs)
        for config, result in zip(configs, results):
            assert result.config is config

    def test_empty_batch(self, tiny_config_evaluator):
        assert SerialBackend(tiny_config_evaluator).evaluate([]) == []


class TestEngineBatchAccounting:
    def test_intra_batch_duplicates_count_once(self, tiny_config_evaluator, tiny_space):
        """[c, c, c] on a cold cache is exactly one miss and two hits."""
        config = tiny_space.sample(0)
        engine = SearchEngine(evaluator=tiny_config_evaluator)
        results = engine.evaluate_batch([config, config, config])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert engine.cache.stats.misses == 1
        assert engine.cache.stats.hits == 2

    def test_warm_batch_is_all_hits(self, tiny_config_evaluator, tiny_space):
        configs = [tiny_space.sample(i) for i in range(4)]
        engine = SearchEngine(evaluator=tiny_config_evaluator)
        engine.evaluate_batch(configs)
        snapshot = engine.cache.stats.snapshot()
        engine.evaluate_batch(configs)
        assert engine.cache.stats.window_hit_rate(snapshot) == 1.0
