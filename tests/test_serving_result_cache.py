"""Tests for the serving-result cache: keys, persistence, crash recovery.

The :class:`~repro.serving.result_cache.ServingResultCache` sits inside the
measured-objective search loop, so its edge cases are load-bearing: a
truncated JSONL line must not abort a resumed search, non-ASCII family
labels must survive a round trip readably, and hit/miss statistics must be
exact even when process-pool workers each carry their own handle to a
shared file.
"""

from __future__ import annotations

import base64
import json
import logging
import multiprocessing
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.serving.families import SteadyPoissonFamily
from repro.serving.metrics import ServingMetrics
from repro.serving.policies import Deployment
from repro.serving.result_cache import (
    ServingResultCache,
    deployment_digest,
    serving_digest,
)
from repro.serving.workload import PoissonArrivals
from repro.soc.presets import get_platform

PLATFORM = get_platform("jetson-agx-xavier")
WORKLOAD = PoissonArrivals(rate_rps=50.0)


def _metrics(policy: str = "static", p99: float = 10.0) -> ServingMetrics:
    return ServingMetrics(
        policy=policy,
        num_requests=10,
        duration_ms=1000.0,
        throughput_rps=10.0,
        mean_latency_ms=5.0,
        p50_latency_ms=5.0,
        p95_latency_ms=9.0,
        p99_latency_ms=p99,
        max_latency_ms=12.0,
        mean_queueing_ms=1.0,
        deadline_miss_rate=0.0,
        accuracy=0.9,
        mean_stages=1.0,
        total_energy_mj=50.0,
        energy_per_request_mj=5.0,
        mean_in_flight=0.5,
        peak_in_flight=2,
        utilisation={"gpu": 0.5},
    )


def _deployment(name: str = "dep", service_ms: float = 4.0) -> Deployment:
    return Deployment(
        name=name,
        unit_names=("gpu",),
        service_ms=(service_ms,),
        energy_mj=(5.0,),
        stage_accuracies=(0.95,),
        dvfs_scales=(1.0,),
    )


class TestDigests:
    def test_deployment_digest_ignores_the_display_name(self):
        assert deployment_digest(_deployment("a")) == deployment_digest(
            _deployment("b")
        )

    def test_deployment_digest_covers_serving_content(self):
        assert deployment_digest(_deployment(service_ms=4.0)) != deployment_digest(
            _deployment(service_ms=5.0)
        )

    def test_serving_digest_changes_with_every_budget_axis(self):
        deployment = _deployment()
        base = serving_digest(deployment, PLATFORM, WORKLOAD, 1000.0, 0)
        assert base == serving_digest(deployment, PLATFORM, WORKLOAD, 1000.0, 0)
        assert base != serving_digest(deployment, PLATFORM, WORKLOAD, 2000.0, 0)
        assert base != serving_digest(deployment, PLATFORM, WORKLOAD, 1000.0, 1)
        assert base != serving_digest(
            deployment, PLATFORM, WORKLOAD, 1000.0, 0, deadline_ms=50.0
        )
        assert base != serving_digest(
            deployment, PLATFORM, WORKLOAD, 1000.0, 0, policy_tag="dvfs-governor"
        )
        assert base != serving_digest(
            deployment, PLATFORM, PoissonArrivals(rate_rps=60.0), 1000.0, 0
        )

    def test_key_bytes_are_pinned(self):
        """Persisted cache files are addressed by these digests.

        A change to either key function orphans every stored replay, so it
        must be a deliberate, announced format change, never a side effect.
        """
        deployment = Deployment(
            name="pinned",
            unit_names=("gpu", "dla0"),
            service_ms=(3.5, 6.25),
            energy_mj=(40.0, 12.5),
            stage_accuracies=(0.62, 0.91),
            dvfs_scales=(1.0, 0.8),
        )
        member = SteadyPoissonFamily(rate_rps=40.0).expand(seed=0, n=1)[0]
        assert deployment_digest(deployment) == (
            "57ea1e9c3c59dff2b94166df82fe1ab69e83de587a5d1c1e98f02d4d39393faa"
        )
        assert serving_digest(
            deployment, PLATFORM, member, 400.0, 3, deadline_ms=None, policy_tag="static"
        ) == "87cbf678550635a888000f0377879617542ed43fcf95701715a8636c947bf123"


class TestInMemory:
    def test_lookup_miss_then_hit(self):
        cache = ServingResultCache()
        assert cache.lookup("k") is None
        cache.store("k", _metrics())
        assert cache.lookup("k").p99_latency_ms == 10.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_peek_and_items_do_not_touch_stats(self):
        cache = ServingResultCache()
        cache.store("k", _metrics())
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        assert dict(cache.items())["k"].policy == "static"
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_store_rejects_foreign_values(self):
        cache = ServingResultCache()
        with pytest.raises(ConfigurationError, match="ServingMetrics"):
            cache.store("k", {"p99": 1.0})

    def test_duplicate_store_is_idempotent(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ServingResultCache(path)
        cache.store("k", _metrics(p99=10.0))
        cache.store("k", _metrics(p99=99.0))
        assert cache.lookup("k").p99_latency_ms == 10.0
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_family_label_round_trip(self):
        cache = ServingResultCache()
        cache.store("k", _metrics(), family="steady-poisson")
        cache.store("other", _metrics())
        assert cache.family("k") == "steady-poisson"
        assert cache.family("other") == ""
        assert cache.family("missing") == ""


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = ServingResultCache(path)
        first.store("k1", _metrics(p99=10.0), family="fam")
        first.store("k2", _metrics(policy="dvfs-governor", p99=20.0))

        second = ServingResultCache(path)
        assert len(second) == 2
        assert second.stats.loaded == 2
        assert second.peek("k1").p99_latency_ms == 10.0
        assert second.peek("k2").policy == "dvfs-governor"
        assert second.family("k1") == "fam"

    def test_lines_are_human_readable_json(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ServingResultCache(path).store("k", _metrics(), family="fam")
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert record["version"] == 1
        assert record["key"] == "k"
        assert record["family"] == "fam"
        assert record["policy"] == "static"
        assert record["metrics"]["p99_latency_ms"] == 10.0

    def test_non_ascii_family_names_stay_raw_in_the_file(self, tmp_path):
        """``ensure_ascii=False`` + an explicit utf-8 handle: the label is
        stored as readable characters, not ``\\uXXXX`` escapes, and round-trips."""
        path = tmp_path / "cache.jsonl"
        family = "визформер-蒸留-家族"
        ServingResultCache(path).store("k", _metrics(), family=family)

        raw = path.read_text(encoding="utf-8")
        assert family in raw
        assert "\\u" not in raw.split('"payload"')[0]

        reloaded = ServingResultCache(path)
        assert reloaded.family("k") == family

    def test_truncated_trailing_line_is_recovered_and_logged(self, tmp_path, caplog):
        """A SIGKILL mid-append leaves a half-written last line; the reload
        must keep every complete entry and say exactly what it skipped."""
        path = tmp_path / "cache.jsonl"
        writer = ServingResultCache(path)
        writer.store("k1", _metrics())
        writer.store("k2", _metrics())
        full = path.read_text(encoding="utf-8")
        last_line = full.splitlines()[-1]
        path.write_text(full + last_line[: len(last_line) // 2], encoding="utf-8")

        with caplog.at_level(logging.WARNING, logger="repro.serving.result_cache"):
            recovered = ServingResultCache(path)

        assert len(recovered) == 2
        assert recovered.stats.loaded == 2
        assert "recovered 2 entries" in caplog.text
        assert "skipped 1 malformed" in caplog.text

    def test_malformed_and_foreign_lines_are_skipped_with_counts(
        self, tmp_path, caplog
    ):
        path = tmp_path / "cache.jsonl"
        writer = ServingResultCache(path)
        writer.store("good", _metrics())
        with path.open("a", encoding="utf-8") as stream:
            stream.write("not json at all\n")
            stream.write(json.dumps({"version": 99, "key": "future"}) + "\n")
            stream.write(
                json.dumps({"version": 1, "key": "no-payload"}) + "\n"
            )
            stream.write("\n")  # blank lines are not an error

        with caplog.at_level(logging.WARNING, logger="repro.serving.result_cache"):
            recovered = ServingResultCache(path)

        assert len(recovered) == 1
        assert recovered.peek("good") is not None
        assert "recovered 1 entries" in caplog.text
        assert "skipped 3 malformed" in caplog.text

    def test_first_line_per_digest_wins_and_duplicates_are_counted(
        self, tmp_path, caplog
    ):
        """A hand-written file holding three lines for one digest: the first
        wins, ``loaded`` counts entries rather than lines, both later lines
        count as duplicates, and only the conflicting one is logged."""

        def line(p99: float) -> str:
            metrics = _metrics(p99=p99)
            return json.dumps(
                {
                    "version": 1,
                    "key": "k",
                    "family": "fam",
                    "policy": metrics.policy,
                    "metrics": {"p99_latency_ms": p99},
                    "payload": base64.b64encode(pickle.dumps(metrics)).decode("ascii"),
                }
            )

        path = tmp_path / "cache.jsonl"
        path.write_text(
            "\n".join([line(10.0), line(10.0), line(99.0)]) + "\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING, logger="repro.serving.result_cache"):
            cache = ServingResultCache(path)

        assert len(cache) == 1
        assert cache.peek("k").p99_latency_ms == 10.0
        assert cache.stats.loaded == 1
        assert cache.stats.duplicates == 2
        conflicts = [record for record in caplog.records if "conflicting" in record.message]
        assert len(conflicts) == 1

    def test_clean_load_does_not_warn(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        ServingResultCache(path).store("k", _metrics())
        with caplog.at_level(logging.WARNING, logger="repro.serving.result_cache"):
            ServingResultCache(path)
        assert caplog.text == ""

    def test_missing_file_starts_empty(self, tmp_path):
        cache = ServingResultCache(tmp_path / "never-written.jsonl")
        assert len(cache) == 0
        assert cache.stats.loaded == 0


SEED_DIGESTS = ("seed-0", "seed-1", "seed-2")


def _pool_worker(args):
    """Open a worker-local handle on the shared file and exercise it.

    Module-level so the fork-context pool can pickle it.  Returns the
    worker's own statistics — each handle counts its *own* hits and misses,
    which must be exact regardless of what the siblings do.
    """
    path, worker_id = args
    cache = ServingResultCache(path)
    hits = sum(cache.lookup(digest) is not None for digest in SEED_DIGESTS)
    misses = sum(
        cache.lookup(f"unknown-{worker_id}-{i}") is None for i in range(2)
    )
    cache.store(f"worker-{worker_id}", _metrics(p99=float(worker_id)))
    return {
        "loaded": cache.stats.loaded,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "entries": len(cache),
    }


class TestProcessPoolWorkers:
    def test_worker_stats_are_exact_and_stores_accumulate(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        seed_cache = ServingResultCache(path)
        for digest in SEED_DIGESTS:
            seed_cache.store(digest, _metrics())

        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            reports = pool.map(_pool_worker, [(str(path), 0), (str(path), 1)])

        for report in reports:
            # A worker may also see a sibling's store if it opened the file
            # second — but its *own* hit/miss counts are exact regardless.
            assert report["loaded"] in (3, 4)
            assert report["hits"] == 3
            assert report["misses"] == 2
            assert report["entries"] == report["loaded"] + 1

        merged = ServingResultCache(path)
        assert len(merged) == 5  # 3 seeded + one per worker
        assert merged.stats.loaded == 5
        assert merged.peek("worker-0").p99_latency_ms == 0.0
        assert merged.peek("worker-1").p99_latency_ms == 1.0
