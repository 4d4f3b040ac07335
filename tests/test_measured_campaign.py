"""Measured-objective campaigns: differential, cache, checkpoint and degenerate tests.

Covers the measured-serving campaign path end to end:

* **Differential** — a campaign run with ``measured_objectives=`` must produce,
  cell for cell, exactly the front a hand-rolled per-platform
  ``search(objectives=measured_serving_objectives(...))`` loop produces under
  the same seeds.  The campaign adds fan-out, caching and checkpointing around
  the search; none of it may change a single front member.
* **Shared cache** — deterministic per-cell lookup/unique statistics, byte
  identity between serial and cell-parallel runs, and JSONL persistence that
  later runs actually reload.
* **Checkpoint refresh** — an unchanged measured recipe restores every cell;
  changing the replay budget re-runs exactly the affected cells.
* **Conflicting store** (bugfix) — ``ServingResultCache.store`` on an existing
  digest with *different* measured numbers logs a warning instead of silently
  dropping the payload.
* **Degenerate cells** (bugfix) — zero-completion replays collapse to the
  canonical :meth:`ServingMetrics.degenerate` aggregates, score exactly 0.0
  and rank strictly last instead of raising ``ZeroDivisionError`` /
  ``ConfigurationError`` and killing the campaign.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math

import pytest

import repro.campaign.runner as runner_module
import repro.serving.bridge as bridge_module
from repro.campaign import run_campaign, run_serving_campaign
from repro.campaign.serving_runner import (
    MemberOutcome,
    ServingCellResult,
    served_p99_per_joule,
)
from repro.core.framework import MapAndConquer
from repro.core.report import campaign_summary, traffic_ranking_summary
from repro.errors import ConfigurationError
from repro.search import MeasuredObjectives
from repro.search.objectives import measured_serving_objectives
from repro.serving.families import SteadyPoissonFamily
from repro.serving.fleet import FleetInstance, FleetResult, InstanceOutcome
from repro.serving.fleet_metrics import compute_fleet_metrics
from repro.serving.metrics import ServingMetrics, compute_metrics
from repro.serving.policies import Deployment, StaticPolicy
from repro.serving.result_cache import MeasuredCellStats, ServingResultCache
from repro.serving.simulator import TrafficSimulator
from repro.serving.workload import Request
from repro.soc.presets import get_platform

PLATFORMS = ("jetson-agx-xavier", "mobile-big-little")
FAMILY = SteadyPoissonFamily(rate_rps=40.0)
MEASURED = MeasuredObjectives(family=FAMILY, duration_ms=250.0, members=2)
BUDGET = dict(num_stages=2, generations=2, population_size=6, seed=3)


def _front_signature(result):
    """Order-preserving value signature of a search result's Pareto front."""
    return [member.summary_row() for member in result.pareto]


@pytest.fixture(scope="module")
def measured_campaign(tiny_network):
    return run_campaign(
        tiny_network, PLATFORMS, measured_objectives=MEASURED, **BUDGET
    )


class TestMeasuredCampaignDifferential:
    def test_cells_match_direct_measured_search(self, measured_campaign, tiny_network):
        """The campaign is exactly the per-platform measured-search loop."""
        for cell in measured_campaign.cells:
            platform = get_platform(cell.platform_name)
            framework = MapAndConquer(
                tiny_network,
                platform,
                num_stages=BUDGET["num_stages"],
                seed=BUDGET["seed"],
            )
            direct = framework.search(
                generations=BUDGET["generations"],
                population_size=BUDGET["population_size"],
                seed=BUDGET["seed"],
                objectives=measured_serving_objectives(
                    FAMILY,
                    platform,
                    duration_ms=MEASURED.duration_ms,
                    seed=BUDGET["seed"],
                    members=MEASURED.members,
                ),
            )
            assert _front_signature(cell.result) == _front_signature(direct)
            assert cell.result.num_evaluations == direct.num_evaluations

    def test_mutual_exclusion_with_plain_objectives(self, tiny_network):
        platform = get_platform(PLATFORMS[0])
        ready = measured_serving_objectives(FAMILY, platform)
        with pytest.raises(ConfigurationError, match="not both"):
            run_campaign(
                tiny_network,
                PLATFORMS,
                objectives=ready,
                measured_objectives=MEASURED,
                **BUDGET,
            )

    def test_factory_type_is_validated(self, tiny_network):
        with pytest.raises(ConfigurationError, match="MeasuredObjectives"):
            run_campaign(
                tiny_network, PLATFORMS, measured_objectives="steady-poisson", **BUDGET
            )

    def test_factory_rejects_bad_recipe(self):
        with pytest.raises(ConfigurationError, match="WorkloadFamily"):
            MeasuredObjectives(family="steady-poisson")
        with pytest.raises(ConfigurationError, match="duration_ms"):
            MeasuredObjectives(family=FAMILY, duration_ms=0.0)
        with pytest.raises(ConfigurationError, match="members"):
            MeasuredObjectives(family=FAMILY, members=0)


class TestMeasuredObjectivesSteerNSGA2:
    def test_measured_search_history_differs_from_plain(self, tiny_network):
        """Under NSGA-II each board's measured set drives the ranking, so the
        search visits different candidates, not just a re-filtered front
        (runtime-aware objectives shape the search itself, as in HADAS)."""
        measured = run_campaign(
            tiny_network,
            PLATFORMS,
            strategy="nsga2",
            measured_objectives=MEASURED,
            **BUDGET,
        )
        plain = run_campaign(tiny_network, PLATFORMS, strategy="nsga2", **BUDGET)
        for platform in PLATFORMS:
            steered = [item.summary_row() for item in measured.cell(platform).result.history]
            unsteered = [item.summary_row() for item in plain.cell(platform).result.history]
            assert steered != unsteered, platform


class TestSharedServingCache:
    def test_deterministic_cell_stats_attached(self, measured_campaign):
        for cell in measured_campaign.cells:
            stats = cell.measured_cache_stats
            assert isinstance(stats, MeasuredCellStats)
            assert stats.lookups > 0
            assert 1 <= stats.unique <= stats.lookups
            assert stats.avoided == stats.lookups - stats.unique

    def test_cell_parallel_matches_serial(self, measured_campaign, tiny_network):
        parallel = run_campaign(
            tiny_network,
            PLATFORMS,
            measured_objectives=MEASURED,
            cell_workers=2,
            **BUDGET,
        )
        assert campaign_summary(parallel) == campaign_summary(measured_campaign)
        for serial_cell, parallel_cell in zip(measured_campaign.cells, parallel.cells):
            assert _front_signature(serial_cell.result) == _front_signature(
                parallel_cell.result
            )
            assert serial_cell.measured_cache_stats == parallel_cell.measured_cache_stats

    def test_summary_renders_cache_efficiency(self, measured_campaign):
        text = campaign_summary(measured_campaign)
        assert "sim_cache" in text
        assert "measured serving cache:" in text
        total_lookups = sum(
            cell.measured_cache_stats.lookups for cell in measured_campaign.cells
        )
        total_unique = sum(
            cell.measured_cache_stats.unique for cell in measured_campaign.cells
        )
        assert f"{total_lookups - total_unique}/{total_lookups} lookups" in text

    def test_proxy_campaign_summary_has_no_cache_column(self, tiny_network):
        proxy = run_campaign(tiny_network, PLATFORMS, **BUDGET)
        text = campaign_summary(proxy)
        assert "sim_cache" not in text
        assert "measured serving cache:" not in text
        assert all(cell.measured_cache_stats is None for cell in proxy.cells)

    def test_persistent_cache_is_reloaded(self, tiny_network, tmp_path):
        cache_path = tmp_path / "serving_cache.jsonl"
        first = run_campaign(
            tiny_network,
            PLATFORMS,
            measured_objectives=MEASURED,
            serving_cache=cache_path,
            **BUDGET,
        )
        assert cache_path.exists()
        reloaded = ServingResultCache(path=cache_path)
        assert len(reloaded) > 0
        assert reloaded.stats.loaded == len(reloaded)
        # A second campaign over the warm cache reuses the persisted replays
        # and still produces byte-identical cells and statistics: the cache
        # removes simulator invocations, never results.
        second = run_campaign(
            tiny_network,
            PLATFORMS,
            measured_objectives=MEASURED,
            serving_cache=reloaded,
            **BUDGET,
        )
        assert campaign_summary(second) == campaign_summary(first)
        # Everything was already cached: the warm run stored nothing new.
        assert reloaded.export_session() == ()

    def test_pool_workers_leave_one_line_per_digest(self, tmp_path):
        """Single writer: two workers simulating the same replays (two
        identical scenarios on one board) must not both append them; only
        the parent persists what it absorbs."""
        from repro.campaign import CampaignScenario
        from repro.nn.models import resnet20

        cache_path = tmp_path / "serving_cache.jsonl"

        def run():
            run_campaign(
                resnet20(),
                ["jetson-agx-xavier"],
                scenarios=[CampaignScenario(name="a"), CampaignScenario(name="b")],
                strategy="nsga2",
                generations=3,
                population_size=10,
                seed=3,
                cell_workers=2,
                measured_objectives=MEASURED,
                serving_cache=cache_path,
            )

        run()
        lines = cache_path.read_text(encoding="utf-8").splitlines()
        digests = {json.loads(line)["key"] for line in lines}
        assert digests
        assert len(lines) == len(digests)
        # A warm re-run finds every replay in the file and appends nothing.
        run()
        assert cache_path.read_text(encoding="utf-8").splitlines() == lines


class TestCheckpointRefresh:
    def _counting(self, monkeypatch):
        calls = []
        real = runner_module._run_cell

        def counting(task, cache, serving_cache):
            calls.append(task.platform.name)
            return real(task, cache, serving_cache)

        monkeypatch.setattr(runner_module, "_run_cell", counting)
        return calls

    def test_unchanged_recipe_restores_changed_budget_refreshes(
        self, tiny_network, tmp_path, monkeypatch
    ):
        checkpoint_dir = tmp_path / "ckpt"
        first = run_campaign(
            tiny_network,
            PLATFORMS,
            measured_objectives=MEASURED,
            checkpoint_dir=checkpoint_dir,
            **BUDGET,
        )

        calls = self._counting(monkeypatch)
        resumed = run_campaign(
            tiny_network,
            PLATFORMS,
            measured_objectives=MEASURED,
            checkpoint_dir=checkpoint_dir,
            **BUDGET,
        )
        assert calls == []  # every cell restored, none re-run
        assert campaign_summary(resumed) == campaign_summary(first)

        # A changed replay budget changes every bound per-platform descriptor,
        # so every cell is refreshed (re-run) instead of silently restored.
        changed = dataclasses.replace(MEASURED, duration_ms=300.0)
        run_campaign(
            tiny_network,
            PLATFORMS,
            measured_objectives=changed,
            checkpoint_dir=checkpoint_dir,
            **BUDGET,
        )
        assert sorted(calls) == sorted(PLATFORMS)

    def test_proxy_checkpoint_unaffected_by_measured_wiring(
        self, tiny_network, tmp_path, monkeypatch
    ):
        """Pre-measured (proxy) checkpoints keep restoring byte-identically."""
        checkpoint_dir = tmp_path / "ckpt"
        first = run_campaign(
            tiny_network, PLATFORMS, checkpoint_dir=checkpoint_dir, **BUDGET
        )
        calls = self._counting(monkeypatch)
        resumed = run_campaign(
            tiny_network, PLATFORMS, checkpoint_dir=checkpoint_dir, **BUDGET
        )
        assert calls == []
        assert campaign_summary(resumed) == campaign_summary(first)


class TestConflictingStoreWarning:
    """Bugfix: a conflicting payload under an existing digest must not vanish."""

    def _metrics(self, p99: float) -> ServingMetrics:
        return dataclasses.replace(
            ServingMetrics.degenerate("static(d)", 100.0),
            num_requests=10,
            p99_latency_ms=p99,
            mean_queueing_ms=1.0,
            energy_per_request_mj=2.0,
            throughput_rps=50.0,
        )

    def test_conflicting_payload_logs_and_keeps_first(self, caplog):
        cache = ServingResultCache()
        first = self._metrics(p99=5.0)
        cache.store("digest-under-test", first)
        with caplog.at_level(logging.WARNING, logger="repro.serving.result_cache"):
            cache.store("digest-under-test", self._metrics(p99=9.0))
        assert "conflicting" in caplog.text
        assert "digest-under-test"[:16] in caplog.text
        assert cache.peek("digest-under-test") is first

    def test_identical_payload_stays_silent(self, caplog):
        cache = ServingResultCache()
        cache.store("digest-under-test", self._metrics(p99=5.0))
        with caplog.at_level(logging.WARNING, logger="repro.serving.result_cache"):
            cache.store("digest-under-test", self._metrics(p99=5.0))
        assert caplog.records == []


def _deployment() -> Deployment:
    platform = get_platform("jetson-agx-xavier")
    return Deployment(
        name="probe",
        unit_names=(platform.unit_names[0],),
        service_ms=(2.0,),
        energy_mj=(3.0,),
        stage_accuracies=(0.9,),
        dvfs_scales=(1.0,),
    )


class TestDegenerateCells:
    """Bugfix: zero-completion replays rank last instead of crashing."""

    def test_degenerate_aggregates(self):
        metrics = ServingMetrics.degenerate("static(d)", 500.0)
        assert metrics.completed == 0
        assert metrics.p99_latency_ms == math.inf
        assert metrics.energy_per_request_mj == math.inf
        assert metrics.deadline_miss_rate == 1.0
        assert metrics.throughput_rps == 0.0
        assert metrics.accuracy == 0.0

    def test_compute_metrics_empty_completion_set_is_degenerate(self):
        deployment = _deployment()
        platform = get_platform("jetson-agx-xavier")
        simulator = TrafficSimulator(
            platform=platform, policy=StaticPolicy(deployment), seed=7
        )
        result = simulator.run([Request(arrival_ms=5.0)], duration_ms=100.0)
        metrics = compute_metrics(result, tenant="nobody-sends-this")
        assert metrics.completed == 0
        assert metrics.p99_latency_ms == math.inf
        # The non-degenerate reduction of the same result still works.
        assert compute_metrics(result).completed == 1

    def test_score_never_divides_by_zero(self):
        degenerate = ServingMetrics.degenerate("static(d)", 500.0)
        assert served_p99_per_joule(degenerate) == 0.0
        zero_energy = dataclasses.replace(
            degenerate, num_requests=10, p99_latency_ms=4.0, energy_per_request_mj=0.0
        )
        assert served_p99_per_joule(zero_energy) == 0.0
        zero_p99 = dataclasses.replace(
            degenerate, num_requests=10, p99_latency_ms=0.0, energy_per_request_mj=2.0
        )
        assert served_p99_per_joule(zero_p99) == 0.0

    def test_one_drowned_member_sinks_the_cell_without_raising(self):
        real = dataclasses.replace(
            ServingMetrics.degenerate("static(d)", 500.0),
            num_requests=10,
            p99_latency_ms=4.0,
            energy_per_request_mj=2.0,
        )
        cell = ServingCellResult(
            platform_name="p",
            family_name="f",
            members=(
                MemberOutcome(
                    label="f[0]", traffic_seed=0, winner="pareto-0", metrics=real
                ),
                MemberOutcome(
                    label="f[1]",
                    traffic_seed=1,
                    winner="pareto-0",
                    metrics=ServingMetrics.degenerate("static(d)", 500.0),
                ),
            ),
        )
        # geometric_mean would raise ConfigurationError on the 0.0 member
        # score; the cell must collapse to 0.0 instead.
        assert cell.served_p99_per_joule == 0.0

    def test_compute_fleet_metrics_every_request_dropped(self):
        instance = FleetInstance(
            name="i0",
            platform=get_platform("jetson-agx-xavier"),
            deployment=_deployment(),
        )
        requests = tuple(Request(arrival_ms=float(i)) for i in range(5))
        result = FleetResult(
            router="round-robin",
            requests=requests,
            outcomes=(
                InstanceOutcome(
                    instance=instance, assigned=(), result=None, up_ms=500.0, boots=0
                ),
            ),
            assignments=(-1,) * len(requests),
            dropped=tuple(range(len(requests))),
            events=(),
            initial_active=1,
            duration_ms=500.0,
        )
        metrics = compute_fleet_metrics(result)
        assert metrics.completed == 0
        assert metrics.num_dropped == len(requests)
        assert metrics.drop_rate == 1.0
        assert metrics.p99_latency_ms == math.inf
        assert metrics.energy_per_request_mj == math.inf
        # Warm silicon still burns idle power even while shedding everything.
        assert metrics.idle_energy_mj > 0.0
        assert metrics.total_energy_mj == metrics.idle_energy_mj

    def test_saturated_platform_ranks_last_and_summary_renders(
        self, tiny_network, monkeypatch
    ):
        """End to end: one platform sheds everything, the campaign survives."""
        real = bridge_module.measured_serving_metrics

        def drowning(deployment, scenario, **kwargs):
            if scenario.platform.name == "mobile-big-little":
                return ServingMetrics.degenerate("static(shed)", scenario.duration_ms)
            return real(deployment, scenario, **kwargs)

        # Patched at its single definition: it drowns the static ranking
        # (through rank_under_traffic) and the adaptive replays alike.
        monkeypatch.setattr(bridge_module, "measured_serving_metrics", drowning)
        serving = run_serving_campaign(
            tiny_network,
            PLATFORMS,
            families=(FAMILY,),
            members_per_family=2,
            duration_ms=250.0,
            generations=2,
            population_size=6,
            seed=3,
            serving_cache=ServingResultCache(),
        )
        ranking = serving.ranking(FAMILY.name)
        assert ranking[-1].platform_name == "mobile-big-little"
        assert ranking[-1].served_p99_per_joule == 0.0
        assert ranking[0].served_p99_per_joule > 0.0
        assert serving.best_platform(FAMILY.name) == ranking[0].platform_name
        for member in serving.cell("mobile-big-little", FAMILY.name).members:
            assert member.metrics.completed == 0
        # The summary renders the degenerate cell (inf axes) without raising.
        text = traffic_ranking_summary(serving)
        assert "mobile-big-little" in text


class TestFleetMeasuredCampaign:
    """Fleet campaigns accept the same measured recipe and shed-to-last rule."""

    @pytest.fixture(scope="class")
    def fleet(self, tiny_network):
        from repro.campaign import FleetMix, run_fleet_campaign

        mixes = (
            FleetMix(name="roomy", counts=(("jetson-agx-xavier", 2),)),
            # One starved instance behind an aggressive shedding bound: every
            # request that arrives while it is busy gets dropped.
            FleetMix(
                name="starved",
                counts=(("jetson-agx-xavier", 1),),
                shed_backlog_ms=0.01,
            ),
        )
        return run_fleet_campaign(
            tiny_network,
            mixes,
            families=(FAMILY,),
            members_per_family=1,
            duration_ms=250.0,
            p99_slo_ms=400.0,
            num_stages=2,
            generations=2,
            population_size=6,
            seed=3,
            measured_objectives=MEASURED,
        )

    def test_search_cells_carry_measured_stats(self, fleet):
        for cell in fleet.campaign.cells:
            stats = cell.measured_cache_stats
            assert isinstance(stats, MeasuredCellStats)
            assert stats.lookups > 0
            assert 1 <= stats.unique <= stats.lookups

    def test_shedding_mix_drops_and_ranks_last(self, fleet):
        from repro.core.report import fleet_summary

        starved = fleet.cell("starved", FAMILY.name)
        assert starved.drop_rate > 0.0
        assert not starved.within_slo
        ranking = fleet.ranking(FAMILY.name)
        assert [cell.mix_name for cell in ranking] == ["roomy", "starved"]
        assert ranking[0].within_slo
        assert fleet.best_mix(FAMILY.name) == "roomy"
        # The summary renders both cells — including the shedder — without
        # raising.
        text = fleet_summary(fleet)
        assert "starved" in text and "roomy" in text
