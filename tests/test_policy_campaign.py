"""Tests for the policy axis of serving campaigns and measured objectives.

Covers the plumbing the golden file cannot attribute: the ``policies=``
validation surface, the per-cell :class:`PolicyOutcome` semantics (static
outcomes reuse the winner's metrics byte-for-byte; adaptive outcomes come
from real re-simulations), the checkpoint interplay (an explicit static set
restores the default's cells, a changed policy set re-runs exactly the
affected cells), cells whose pickled payload lacks the ``policy_outcomes``
field, :func:`build_policy`, :meth:`WorkloadFamily.peak_member`,
``measured_serving_objectives`` and ``select_measured_serving``.
"""

from __future__ import annotations

import pytest

from repro.campaign import PolicyOutcome, run_serving_campaign
from repro.core.framework import MapAndConquer
from repro.core.report import policy_adaptivity_table, traffic_ranking_summary
from repro.errors import ConfigurationError, SearchError
from repro.search.objectives import (
    MeasuredWaitExtractor,
    measured_serving_objectives,
)
from repro.search.pareto import select_measured_serving
from repro.serving.families import (
    OnOffBurstFamily,
    SteadyPoissonFamily,
    member_traffic_seed,
)
from repro.serving.policies import (
    POLICY_KINDS,
    AdaptiveSwitchPolicy,
    Deployment,
    DvfsGovernorPolicy,
    StaticPolicy,
    build_policy,
)
from repro.serving.result_cache import ServingResultCache
from repro.soc.presets import get_platform

PLATFORMS = ("jetson-agx-xavier", "mobile-big-little")
FAMILY = SteadyPoissonFamily(rate_rps=40.0)
BUDGET = dict(
    members_per_family=2,
    duration_ms=600.0,
    generations=2,
    population_size=6,
    seed=3,
)


def _run(tiny_network, **overrides):
    options = {**BUDGET, **overrides}
    families = options.pop("families", (FAMILY,))
    return run_serving_campaign(tiny_network, PLATFORMS, families=families, **options)


class TestPolicyValidation:
    def test_empty_policies_raise(self, tiny_network):
        with pytest.raises(ConfigurationError, match="at least one policy kind"):
            _run(tiny_network, policies=())

    def test_unknown_policy_kind_raises(self, tiny_network):
        with pytest.raises(ConfigurationError, match="unknown policy kinds"):
            _run(tiny_network, policies=("static", "overclocker"))

    def test_duplicate_policy_kinds_raise(self, tiny_network):
        with pytest.raises(ConfigurationError, match="unique"):
            _run(tiny_network, policies=("static", "static"))

    def test_missing_static_baseline_raises(self, tiny_network):
        with pytest.raises(ConfigurationError, match="must include 'static'"):
            _run(tiny_network, policies=("dvfs-governor",))


@pytest.fixture(scope="module")
def policy_campaign(tiny_network):
    return _run(tiny_network, policies=POLICY_KINDS)


@pytest.fixture(scope="module")
def static_campaign(tiny_network):
    return _run(tiny_network)


class TestPolicyAxis:
    def test_result_records_the_swept_policies(self, policy_campaign):
        assert policy_campaign.policies == POLICY_KINDS

    def test_every_cell_replays_every_policy_per_member(self, policy_campaign):
        for cell in policy_campaign.cells:
            assert cell.policies == POLICY_KINDS
            assert len(cell.policy_outcomes) == len(POLICY_KINDS) * len(cell.members)
            assert all(
                isinstance(outcome, PolicyOutcome)
                for outcome in cell.policy_outcomes
            )

    def test_static_outcome_reuses_the_winner_metrics_byte_for_byte(
        self, policy_campaign
    ):
        """The static policy IS the ranked winner — no re-simulation, so the
        metrics must be the identical object state, not a near-equal rerun."""
        for cell in policy_campaign.cells:
            statics = [o for o in cell.policy_outcomes if o.policy == "static"]
            assert len(statics) == len(cell.members)
            for member, outcome in zip(cell.members, statics):
                assert outcome.metrics == member.metrics
                assert outcome.deployment == member.winner

    def test_adaptive_outcomes_are_real_resimulations(self, policy_campaign):
        for cell in policy_campaign.cells:
            for outcome in cell.policy_outcomes:
                if outcome.policy == "static":
                    continue
                assert outcome.metrics.policy != "static"
                assert outcome.served_p99_per_joule > 0.0

    def test_policy_score_and_mean(self, policy_campaign):
        cell = policy_campaign.cells[0]
        for policy in POLICY_KINDS:
            assert cell.policy_score(policy) > 0.0
            assert cell.policy_mean(policy, "p99_latency_ms") > 0.0
        with pytest.raises(ConfigurationError, match="replayed"):
            cell.policy_score("never-swept")

    def test_policy_matrix_covers_the_full_grid(self, policy_campaign):
        matrix = policy_campaign.policy_matrix()
        assert set(matrix) == {
            (platform, FAMILY.name, policy)
            for platform in PLATFORMS
            for policy in POLICY_KINDS
        }
        assert all(score > 0.0 for score in matrix.values())

    def test_adaptivity_wins_lists_only_beating_cells(self, policy_campaign):
        for policy in ("switcher", "dvfs-governor"):
            for platform, family in policy_campaign.adaptivity_wins(policy):
                cell = policy_campaign.cell(platform, family)
                assert cell.policy_score(policy) > cell.policy_score("static")

    def test_summary_gains_the_adaptivity_section(self, policy_campaign):
        summary = traffic_ranking_summary(policy_campaign)
        assert "policy adaptivity" in summary
        assert policy_adaptivity_table(policy_campaign) in summary


class TestStaticOnlyCampaign:
    def test_default_campaign_has_no_policy_outcomes(self, static_campaign):
        assert static_campaign.policies == ("static",)
        for cell in static_campaign.cells:
            assert cell.policy_outcomes == ()
            assert cell.policies == ()

    def test_default_summary_stays_free_of_the_adaptivity_section(
        self, static_campaign
    ):
        assert "policy adaptivity" not in traffic_ranking_summary(static_campaign)

    def test_policy_matrix_requires_a_policy_sweep(self, static_campaign):
        with pytest.raises(ConfigurationError, match="replayed"):
            static_campaign.cells[0].policy_score("static")


class TestCheckpointInterplay:
    def _calls(self, monkeypatch):
        calls = []
        import repro.campaign.serving_runner as serving_runner

        original = serving_runner._run_serving_cell
        monkeypatch.setattr(
            serving_runner,
            "_run_serving_cell",
            lambda task, *cache: calls.append((task.platform.name, task.policies))
            or original(task, *cache),
        )
        return calls

    def test_explicit_static_matches_the_default_fingerprint(
        self, tiny_network, tmp_path, monkeypatch
    ):
        """``policies=("static",)`` is the default: it must restore cells
        checkpointed by a run that left the policy set unset."""
        _run(tiny_network, checkpoint_dir=tmp_path)
        calls = self._calls(monkeypatch)
        _run(tiny_network, checkpoint_dir=tmp_path, policies=("static",))
        assert calls == []

    def test_changed_policy_set_reruns_every_affected_cell(
        self, tiny_network, tmp_path, monkeypatch
    ):
        first = _run(tiny_network, checkpoint_dir=tmp_path)
        calls = self._calls(monkeypatch)
        swept = _run(tiny_network, checkpoint_dir=tmp_path, policies=POLICY_KINDS)
        assert sorted(calls) == [
            (platform, POLICY_KINDS) for platform in sorted(PLATFORMS)
        ]
        # The re-run is a superset: same winners, plus the policy outcomes.
        for cell in swept.cells:
            assert cell.members == first.cell(cell.platform_name, cell.family_name).members
            assert cell.policy_outcomes != ()

    def test_same_policy_set_restores_from_checkpoint(
        self, tiny_network, tmp_path, monkeypatch
    ):
        first = _run(tiny_network, checkpoint_dir=tmp_path, policies=POLICY_KINDS)
        calls = self._calls(monkeypatch)
        resumed = _run(tiny_network, checkpoint_dir=tmp_path, policies=POLICY_KINDS)
        assert calls == []
        assert traffic_ranking_summary(resumed) == traffic_ranking_summary(first)


def _metrics_stub():
    from repro.serving.metrics import ServingMetrics

    return ServingMetrics(
        policy="static",
        num_requests=5,
        duration_ms=100.0,
        throughput_rps=50.0,
        mean_latency_ms=2.0,
        p50_latency_ms=2.0,
        p95_latency_ms=3.0,
        p99_latency_ms=4.0,
        max_latency_ms=5.0,
        mean_queueing_ms=0.5,
        deadline_miss_rate=0.0,
        accuracy=0.9,
        mean_stages=1.0,
        total_energy_mj=10.0,
        energy_per_request_mj=2.0,
        mean_in_flight=0.2,
        peak_in_flight=1,
        utilisation={"gpu": 0.1},
    )


class TestOldPickleCompatibility:
    def test_cells_without_the_field_read_as_policy_free(self):
        """Pickle restores ``__dict__`` directly, skipping dataclass
        defaults.  A cell payload that lacks ``policy_outcomes`` must read
        as an empty sweep through the class default alone, with no
        compatibility read in the readers."""
        from repro.campaign.serving_runner import MemberOutcome, ServingCellResult

        member = MemberOutcome(
            label="m0", traffic_seed=1, winner="pareto-1", metrics=_metrics_stub()
        )
        # Build the instance the way pickle does: allocate and restore the
        # __dict__, never calling __init__, so the field is simply absent.
        restored = object.__new__(ServingCellResult)
        restored.__dict__.update(
            platform_name="jetson-agx-xavier",
            family_name="steady-poisson",
            members=(member,),
        )
        assert "policy_outcomes" not in restored.__dict__
        assert restored.policy_outcomes == ()  # the class default fills in
        assert restored.policies == ()
        with pytest.raises(ConfigurationError, match="replayed"):
            restored.policy_score("static")
        assert restored.p99_latency_ms == member.metrics.p99_latency_ms


def _deployment(name: str, service_ms: float, energy_mj: float) -> Deployment:
    return Deployment(
        name=name,
        unit_names=("gpu",),
        service_ms=(service_ms,),
        energy_mj=(energy_mj,),
        stage_accuracies=(0.95,),
        dvfs_scales=(0.8,),
    )


class TestBuildPolicy:
    def test_static_serves_the_winner(self):
        winner = _deployment("w", 4.0, 6.0)
        policy = build_policy("static", winner, get_platform("jetson-agx-xavier"))
        assert isinstance(policy, StaticPolicy)
        assert policy.deployment is winner

    def test_switcher_picks_calm_and_surge_from_the_front(self):
        frugal = _deployment("frugal", 8.0, 1.0)
        fast = _deployment("fast", 1.0, 9.0)
        middle = _deployment("middle", 4.0, 4.0)
        policy = build_policy(
            "switcher",
            middle,
            get_platform("jetson-agx-xavier"),
            front=(frugal, fast, middle),
        )
        assert isinstance(policy, AdaptiveSwitchPolicy)
        assert policy.calm.name == "frugal"
        assert policy.surge.name == "fast"

    def test_switcher_with_no_front_degenerates_to_the_winner(self):
        winner = _deployment("w", 4.0, 6.0)
        policy = build_policy("switcher", winner, get_platform("jetson-agx-xavier"))
        assert policy.calm is winner and policy.surge is winner

    def test_governor_walks_the_winner_ladder(self):
        winner = _deployment("w", 4.0, 6.0)
        policy = build_policy(
            "dvfs-governor", winner, get_platform("jetson-agx-xavier")
        )
        assert isinstance(policy, DvfsGovernorPolicy)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError, match="unknown policy kind"):
            build_policy("turbo", _deployment("w", 4.0, 6.0), get_platform("jetson-agx-xavier"))


class TestPeakMember:
    def test_peak_member_is_deterministic_and_the_busiest(self):
        family = OnOffBurstFamily(
            burst_rps=120.0, idle_rps=5.0, burst_ms=400.0, idle_ms=600.0, jitter=0.3
        )
        index, process, traffic_seed = family.peak_member(3, 4, probe_ms=1000.0)
        again = family.peak_member(3, 4, probe_ms=1000.0)
        assert (index, traffic_seed) == (again[0], again[2])
        assert traffic_seed == member_traffic_seed(3, family.name, index)

        members = family.expand(3, 4)
        counts = [
            len(member.generate(1000.0, seed=member_traffic_seed(3, family.name, i)))
            for i, member in enumerate(members)
        ]
        assert counts[index] == max(counts)
        assert repr(process) == repr(members[index])

    def test_probe_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FAMILY.peak_member(0, 2, probe_ms=0.0)


class TestMeasuredObjectives:
    def test_set_extends_the_default_axes(self):
        objectives = measured_serving_objectives(
            FAMILY, get_platform("jetson-agx-xavier")
        )
        names = [spec.name for spec in objectives.specs]
        assert names[-1] == "measured_wait_ms"
        spec = objectives.specs[-1]
        assert spec.direction == "min"
        assert isinstance(spec.extractor, MeasuredWaitExtractor)
        assert isinstance(spec.extractor.cache, ServingResultCache)

    def test_family_and_platform_are_validated(self):
        with pytest.raises(ConfigurationError, match="WorkloadFamily"):
            measured_serving_objectives("steady-poisson", get_platform("jetson-agx-xavier"))
        with pytest.raises(ConfigurationError, match="platform"):
            measured_serving_objectives(FAMILY, None)
        with pytest.raises(ConfigurationError, match="duration_ms"):
            measured_serving_objectives(
                FAMILY, get_platform("jetson-agx-xavier"), duration_ms=0.0
            )

    def test_cache_coercion(self, tmp_path):
        shared = ServingResultCache()
        objectives = measured_serving_objectives(
            FAMILY, get_platform("jetson-agx-xavier"), cache=shared
        )
        assert objectives.specs[-1].extractor.cache is shared

        path = tmp_path / "serving.jsonl"
        persistent = measured_serving_objectives(
            FAMILY, get_platform("jetson-agx-xavier"), cache=path
        )
        assert persistent.specs[-1].extractor.cache.path == path

    def test_cache_is_an_accelerator_not_an_identity(self):
        platform = get_platform("jetson-agx-xavier")
        with_cache = measured_serving_objectives(FAMILY, platform).specs[-1]
        with_other = measured_serving_objectives(
            FAMILY, platform, cache=ServingResultCache()
        ).specs[-1]
        assert "cache" not in repr(with_cache.extractor)
        assert repr(with_cache.extractor) == repr(with_other.extractor)
        assert with_cache.extractor == with_other.extractor

    def test_replay_identity_feeds_the_repr(self):
        platform = get_platform("jetson-agx-xavier")
        base = measured_serving_objectives(FAMILY, platform).specs[-1]
        longer = measured_serving_objectives(
            FAMILY, platform, duration_ms=800.0
        ).specs[-1]
        assert repr(base.extractor) != repr(longer.extractor)

    def test_extractor_simulates_once_per_deployment(self, tiny_network):
        platform = get_platform("jetson-agx-xavier")
        framework = MapAndConquer(tiny_network, platform, seed=0)
        evaluated = framework.evaluate(framework.space.sample(0))
        spec = measured_serving_objectives(FAMILY, platform).specs[-1]

        first = spec.extractor(evaluated)
        cache = spec.extractor.cache
        assert first >= 0.0
        assert cache.stats.misses == 1 and len(cache) == 1
        assert spec.extractor(evaluated) == first
        assert cache.stats.hits == 1 and len(cache) == 1
        assert cache.family(next(iter(dict(cache.items())))) == FAMILY.name


class TestSelectMeasuredServing:
    @pytest.fixture(scope="class")
    def searched(self, tiny_network):
        platform = get_platform("jetson-agx-xavier")
        framework = MapAndConquer(tiny_network, platform, seed=0)
        result = framework.search(generations=2, population_size=6, seed=0)
        return framework, platform, list(result.pareto)

    def test_pick_comes_from_the_front_and_is_stable(self, searched):
        framework, platform, front = searched
        cache = ServingResultCache()
        pick = select_measured_serving(
            front, platform, FAMILY, duration_ms=400.0, seed=0, cache=cache
        )
        assert pick in front
        assert cache.stats.misses > 0
        again = select_measured_serving(
            front, platform, FAMILY, duration_ms=400.0, seed=0, cache=cache
        )
        assert again is pick
        # The second pass re-simulated nothing.
        assert len(cache) == cache.stats.misses

    def test_facade_wrapper_agrees(self, searched):
        framework, platform, front = searched
        direct = select_measured_serving(
            front, platform, FAMILY, duration_ms=400.0, seed=0
        )
        assert framework.select_measured_serving(
            front, FAMILY, duration_ms=400.0
        ) == direct

    def test_empty_front_raises(self, searched):
        _, platform, _ = searched
        with pytest.raises(SearchError, match="empty"):
            select_measured_serving([], platform, FAMILY)
        with pytest.raises(SearchError, match="WorkloadFamily"):
            select_measured_serving(searched[2], platform, "steady-poisson")
