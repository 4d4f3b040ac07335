"""The replay scenario, prepared once for every replay made in it, against the per-key path.

A :class:`~repro.serving.bridge.ReplayScenario` serves every candidate and
policy replayed in it (a measured objective's candidates, a serving-cell
member's ranking and policy replays): the request stream is generated on the
first replay, and the scenario half of every serving-cache key (everything
after the deployment digest, but for the policy tag) is derived once.  That
is only legal if every key stays byte-identical to
:func:`~repro.serving.result_cache.serving_digest` under every policy tag,
the scenario never travels with a pickled or copied extractor, and every
error is raised as the per-call path raised it.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.serving_runner import (
    _policy_front_tag,
    _run_serving_cell,
    _ServingCellTask,
)
from repro.errors import ConfigurationError
from repro.search.objectives import MeasuredWaitExtractor, measured_serving_objectives
from repro.serving import (
    POLICY_KINDS,
    ArrivalProcess,
    Deployment,
    MultiTenantStream,
    PoissonArrivals,
    ReplayScenario,
    ServingResultCache,
    SteadyPoissonFamily,
    measured_serving_metrics,
    rank_under_traffic,
)
from repro.serving.bridge import MeasuredReplay
from repro.serving.result_cache import serving_digest
from repro.soc import mobile_big_little
from repro.soc.platform import jetson_agx_xavier

XAVIER = jetson_agx_xavier()

#: Process and tuple workloads a scenario may replay.
WORKLOADS = (
    PoissonArrivals(40.0),
    SteadyPoissonFamily(rate_rps=40.0).expand(seed=0, n=1)[0],
    MultiTenantStream(
        (PoissonArrivals(30.0, tenant="a", deadline_ms=20.0), PoissonArrivals(10.0, tenant="b"))
    ),
    PoissonArrivals(30.0).generate(300.0, seed=1),
)


@st.composite
def _deployments(draw, units=XAVIER.unit_names):
    stages = draw(st.integers(min_value=1, max_value=4))
    positive = st.floats(min_value=0.01, max_value=500.0)
    return Deployment(
        name=draw(st.sampled_from(["a", "b", "pareto-0"])),
        unit_names=tuple(draw(st.sampled_from(units)) for _ in range(stages)),
        service_ms=tuple(draw(positive) for _ in range(stages)),
        energy_mj=tuple(draw(positive) for _ in range(stages)),
        stage_accuracies=tuple(
            sorted(draw(st.floats(min_value=0.05, max_value=0.99)) for _ in range(stages))
        ),
        dvfs_scales=tuple(draw(st.sampled_from([1.0, 0.8, 0.5])) for _ in range(stages)),
    )


class _Silent(ArrivalProcess):
    """A process that generates no request."""

    def _arrival_times(self, duration_ms, rng):
        return np.empty(0)


class TestScenarioKeys:
    @settings(max_examples=150, deadline=None)
    @given(
        deployment=_deployments(),
        front=st.lists(_deployments(), min_size=1, max_size=3),
        workload=st.sampled_from(WORKLOADS),
        duration_ms=st.sampled_from([400.0, 1000, 2.5e3]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        deadline_ms=st.sampled_from([None, 35.0, 60]),
    )
    def test_keys_equal_serving_digest(
        self, deployment, front, workload, duration_ms, seed, deadline_ms
    ):
        cache = ServingResultCache()
        # One scenario serves the static ranking and every policy replay.
        scenario = ReplayScenario(XAVIER, workload, duration_ms, seed, deadline_ms)
        for tag in ("static", *(_policy_front_tag(kind, front) for kind in POLICY_KINDS)):
            expected = [
                serving_digest(
                    member,
                    XAVIER,
                    workload,
                    duration_ms,
                    seed,
                    deadline_ms=deadline_ms,
                    policy_tag=tag,
                )
                for member in [deployment, *front]
            ]
            # Twice over: the second pass reads the prefix the first derived.
            for _ in range(2):
                assert [scenario.key(member, tag) for member in [deployment, *front]] == expected
            per_call = MeasuredReplay(
                deployment,
                ReplayScenario(XAVIER, workload, duration_ms, seed, deadline_ms),
                cache=cache,
                policy_tag=tag,
            )
            assert per_call._key == expected[0]
            shared = MeasuredReplay(deployment, scenario, cache, "family", policy_tag=tag)
            assert shared._key == expected[0]
            if tag == "static":
                assert scenario.key(deployment) == expected[0]

    def test_pinned_key_through_the_scenario(self):
        # The deployment and digest of
        # test_serving_result_cache.py::TestDigests::test_key_bytes_are_pinned.
        deployment = Deployment(
            name="pinned",
            unit_names=("gpu", "dla0"),
            service_ms=(3.5, 6.25),
            energy_mj=(40.0, 12.5),
            stage_accuracies=(0.62, 0.91),
            dvfs_scales=(1.0, 0.8),
        )
        member = SteadyPoissonFamily(rate_rps=40.0).expand(seed=0, n=1)[0]
        scenario = ReplayScenario(jetson_agx_xavier(), member, 400.0, 3)
        assert scenario.key(deployment) == (
            "87cbf678550635a888000f0377879617542ed43fcf95701715a8636c947bf123"
        )


def _candidates(evaluator, space, count=3):
    return [evaluator.evaluate(space.sample(seed=seed)) for seed in range(count)]


class TestExtractorScenario:
    def test_clones_drop_the_scenario_and_derive_the_same_keys(
        self, platform, tiny_config_evaluator, tiny_space
    ):
        items = _candidates(tiny_config_evaluator, tiny_space)
        objectives = measured_serving_objectives(
            SteadyPoissonFamily(rate_rps=30.0), platform, duration_ms=400.0, members=1
        )
        extractor = objectives.specs[-1].extractor
        values = [extractor(item) for item in items]
        scenario = extractor._scenario
        assert scenario is not None and scenario._stream is not None
        assert not {"_scenario", "_replays"} & set(extractor.__getstate__())
        keys = [extractor._replays[item]._key for item in items]
        assert keys == [
            serving_digest(
                Deployment.from_evaluated(item),
                extractor.platform,
                extractor.workload,
                extractor.duration_ms,
                extractor.traffic_seed,
            )
            for item in items
        ]
        for clone in (
            pickle.loads(pickle.dumps(extractor)),
            copy.deepcopy(extractor),
            copy.copy(extractor),
        ):
            assert clone._scenario is None and len(clone._replays) == 0
            assert clone == extractor and repr(clone) == repr(extractor)
            assert [clone(item) for item in items] == values
            assert [clone._replays[item]._key for item in items] == keys
            assert clone._scenario is not scenario
        # The original keeps its own scenario and memo.
        assert extractor._scenario is scenario and len(extractor._replays) == len(items)

    def test_candidates_share_one_scenario(self, platform, tiny_config_evaluator, tiny_space):
        items = _candidates(tiny_config_evaluator, tiny_space)
        objectives = measured_serving_objectives(
            SteadyPoissonFamily(rate_rps=30.0), platform, duration_ms=400.0, members=1
        )
        extractor = objectives.specs[-1].extractor
        for item in items:
            extractor(item)
        scenarios = {id(extractor._replays[item]._scenario) for item in items}
        assert scenarios == {id(extractor._scenario)}


class TestOneStreamPerMember:
    """Every replay in one scenario reads the stream it generated once."""

    @pytest.fixture()
    def generated(self, monkeypatch):
        calls = []
        real = ArrivalProcess.generate

        def counting(self, duration_ms, seed=0):
            calls.append((repr(self), seed))
            return real(self, duration_ms, seed=seed)

        monkeypatch.setattr(ArrivalProcess, "generate", counting)
        return calls

    def test_a_ranking_generates_once(
        self, generated, platform, tiny_config_evaluator, tiny_space
    ):
        front = _candidates(tiny_config_evaluator, tiny_space, count=4)
        cache = ServingResultCache()
        scenario = ReplayScenario(platform, PoissonArrivals(30.0), 400.0, seed=3)
        ranked = rank_under_traffic(front, scenario, cache=cache)
        assert len(ranked) == len(front)
        assert cache.stats.misses >= 3  # every miss replays the one stream
        assert generated == [(repr(PoissonArrivals(30.0)), 3)]

    def test_a_serving_cell_generates_one_stream_per_member(
        self, generated, platform, tiny_config_evaluator, tiny_space
    ):
        members = 2
        task = _ServingCellTask(
            platform=platform,
            family=SteadyPoissonFamily(rate_rps=40.0),
            front=tuple(_candidates(tiny_config_evaluator, tiny_space, count=4)),
            members=members,
            duration_ms=400.0,
            metric="p99_latency_ms",
            deadline_ms=None,
            seed=0,
            policies=POLICY_KINDS,
        )
        cache = ServingResultCache()
        cell = _run_serving_cell(task, None, cache)
        assert len(cell.policy_outcomes) == members * len(POLICY_KINDS)
        assert cache.stats.misses > members
        assert len(generated) <= members


class TestErrorsAsBefore:
    """Each message is the one the per-call path raised, at the same call."""

    EMPTY = "cannot simulate an empty request stream"

    @pytest.fixture()
    def deployment(self):
        return Deployment(
            name="d",
            unit_names=("gpu", "dla0"),
            service_ms=(4.0, 9.0),
            energy_mj=(70.0, 20.0),
            stage_accuracies=(0.6, 0.9),
            dvfs_scales=(1.0, 1.0),
        )

    @pytest.mark.parametrize("cached", [False, True])
    def test_empty_generated_stream(self, deployment, cached):
        cache = ServingResultCache() if cached else None
        replay = MeasuredReplay(
            deployment, ReplayScenario(XAVIER, _Silent(), 400.0, seed=1), cache=cache
        )
        for _ in range(2):  # every replay fails the same way
            with pytest.raises(ConfigurationError) as raised:
                replay.metrics()
            assert str(raised.value) == self.EMPTY
        if cached:
            assert cache.stats.misses == 2 and len(cache) == 0
        with pytest.raises(ConfigurationError) as raised:
            measured_serving_metrics(
                deployment, ReplayScenario(XAVIER, _Silent(), 400.0), cache=cache
            )
        assert str(raised.value) == self.EMPTY

    def test_empty_generated_stream_through_the_extractor(
        self, tiny_config_evaluator, tiny_space
    ):
        extractor = MeasuredWaitExtractor(
            platform=XAVIER,
            workload=_Silent(),
            traffic_seed=1,
            duration_ms=400.0,
            cache=ServingResultCache(),
        )
        for item in _candidates(tiny_config_evaluator, tiny_space, count=2):
            with pytest.raises(ConfigurationError) as raised:
                extractor(item)
            assert str(raised.value) == self.EMPTY
        assert extractor.cache.stats.misses == 2

    def test_empty_request_tuple(self, deployment):
        replay = MeasuredReplay(deployment, ReplayScenario(XAVIER, (), 400.0))
        with pytest.raises(ConfigurationError) as raised:
            replay.metrics()
        assert str(raised.value) == "the request stream is empty"

    def test_cached_replay_without_a_duration_fails_at_construction(self, deployment):
        with pytest.raises(ConfigurationError) as raised:
            MeasuredReplay(
                deployment,
                ReplayScenario(XAVIER, PoissonArrivals(40.0), None),
                cache=ServingResultCache(),
            )
        assert str(raised.value) == (
            "a cached replay needs duration_ms: the replay budget is part of the "
            "serving-cache key"
        )

    def test_uncached_process_without_a_duration_fails_at_the_replay(self, deployment):
        replay = MeasuredReplay(deployment, ReplayScenario(XAVIER, PoissonArrivals(40.0)))
        with pytest.raises(ConfigurationError) as raised:
            replay.metrics()
        assert str(raised.value) == "duration_ms is required when passing an ArrivalProcess"
        # No key, so the scenario never derived the prefix that would raise.
        assert replay._key is None and replay._scenario._prefix is None

    def test_unknown_unit_fails_at_the_replay(self, deployment):
        replay = MeasuredReplay(
            deployment, ReplayScenario(mobile_big_little(), PoissonArrivals(40.0), 400.0)
        )
        with pytest.raises(ConfigurationError, match="unknown compute unit 'gpu'"):
            replay.metrics()
