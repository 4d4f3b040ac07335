"""The wait objectives' per-candidate memos against per-call references.

:class:`~repro.search.objectives.MeasuredWaitExtractor` keeps one
:class:`~repro.serving.bridge.MeasuredReplay` (deployment + serving-cache
key) per candidate instead of distilling and hashing the candidate on every
interrogation.  The memo must be invisible: a measured NSGA-II search run
through it and through a reference extractor that calls
:func:`~repro.serving.bridge.measured_serving_metrics` on every
interrogation must produce the same history, the same front and the same
recorder counts (every interrogation still looks its key up), and the memo
must not outlive the candidates it describes.  Its replays share one
scenario: the extractor generates its request stream once for the whole
search, while every interrogation still looks its key up.

:class:`~repro.search.objectives.ExpectedWaitExtractor` keeps each
candidate's M/D/1 wait the same way, so a proxy NSGA-II search distils one
:class:`~repro.serving.policies.Deployment` per candidate and still ends
with the per-call reference's history and front.
"""

from __future__ import annotations

import gc
import pickle

from repro.core.framework import MapAndConquer
from repro.nn.models import resnet20
from repro.search.objectives import (
    DEFAULT_OBJECTIVES,
    ExpectedWaitExtractor,
    MeasuredWaitExtractor,
    ObjectiveSet,
    ObjectiveSpec,
    measured_serving_objectives,
    serving_objectives,
)
from repro.serving import ArrivalProcess, Deployment
from repro.serving.bridge import ReplayScenario, measured_serving_metrics
from repro.serving.families import SteadyPoissonFamily
from repro.serving.result_cache import ServingCacheRecorder, ServingResultCache
from repro.soc.presets import get_platform

PLATFORM = get_platform("mobile-big-little")
FAMILY = SteadyPoissonFamily(rate_rps=40.0)


class PerCallWaitExtractor(MeasuredWaitExtractor):
    """The unmemoised extractor: one distillation and one key per call."""

    def __call__(self, item):
        metrics = measured_serving_metrics(
            item,
            ReplayScenario(
                self.platform, self.workload, self.duration_ms, seed=self.traffic_seed
            ),
            cache=self.cache,
            family_name=self.family_name,
        )
        return metrics.mean_queueing_ms


class PerCallExpectedWait(ExpectedWaitExtractor):
    """The unmemoised proxy: one distillation per call."""

    def __call__(self, item):
        return Deployment.from_evaluated(item).expected_wait_ms(self.rate_rps)


def _signature(items):
    return [
        (item.config.describe(), item.latency_ms, item.energy_mj, item.accuracy)
        for item in items
    ]


def _search(objectives, memo="_replays"):
    """History and front signatures of a small NSGA-II search, plus the number
    of evaluations and of candidates in the last objective's ``memo`` at its
    end.

    Candidates live only inside this call, so once it returns nothing but
    the extractor's memo could still refer to them.
    """
    framework = MapAndConquer(resnet20(), PLATFORM, seed=0)
    result = framework.search(
        strategy="nsga2",
        generations=3,
        population_size=8,
        seed=3,
        objectives=objectives,
    )
    memo = len(getattr(objectives.specs[-1].extractor, memo))
    return _signature(result.history), _signature(result.pareto), len(result.history), memo


def test_memo_matches_per_call_reference_and_frees_candidates():
    recorder = ServingCacheRecorder(ServingResultCache())
    memoised = measured_serving_objectives(
        FAMILY, PLATFORM, duration_ms=400.0, members=1, cache=recorder
    )
    extractor = memoised.specs[-1].extractor
    reference_recorder = ServingCacheRecorder(ServingResultCache())
    reference = ObjectiveSet(
        specs=DEFAULT_OBJECTIVES.specs
        + (
            ObjectiveSpec(
                name="measured_wait_ms",
                extractor=PerCallWaitExtractor(
                    platform=extractor.platform,
                    workload=extractor.workload,
                    traffic_seed=extractor.traffic_seed,
                    duration_ms=extractor.duration_ms,
                    family_name=extractor.family_name,
                    cache=reference_recorder,
                ),
            ),
        )
    )

    history, front, evaluations, memo = _search(memoised)
    assert (history, front, evaluations, 0) == _search(reference)
    assert 0 < memo <= evaluations
    stats = recorder.cell_stats()
    assert stats == reference_recorder.cell_stats()
    # The memo saved work: many interrogations per distinct candidate.
    assert stats.lookups > 2 * evaluations

    gc.collect()
    assert len(extractor._replays) == 0


def test_one_stream_per_extractor_and_one_lookup_per_interrogation(monkeypatch):
    recorder = ServingCacheRecorder(ServingResultCache())
    objectives = measured_serving_objectives(
        FAMILY, PLATFORM, duration_ms=400.0, members=1, cache=recorder
    )
    extractor = objectives.specs[-1].extractor
    calls = {"generate": [], "interrogations": 0, "lookups": 0}

    generate = ArrivalProcess.generate
    interrogate = MeasuredWaitExtractor.__call__
    lookup = ServingResultCache.lookup

    def counting_generate(self, *args, **kwargs):
        calls["generate"].append(self)
        return generate(self, *args, **kwargs)

    def counting_call(self, item):
        calls["interrogations"] += 1
        return interrogate(self, item)

    def counting_lookup(self, digest):
        calls["lookups"] += 1
        return lookup(self, digest)

    monkeypatch.setattr(ArrivalProcess, "generate", counting_generate)
    monkeypatch.setattr(MeasuredWaitExtractor, "__call__", counting_call)
    monkeypatch.setattr(ServingResultCache, "lookup", counting_lookup)
    _search(objectives)

    stats = recorder.cell_stats()
    # Many distinct replays, one generated stream.
    assert stats.unique > 10
    assert calls["generate"] == [extractor.workload]
    assert calls["lookups"] == calls["interrogations"] == stats.lookups


def test_expected_wait_memo_matches_per_call_reference_and_frees_candidates():
    memoised = serving_objectives(target_rps=40.0)
    extractor = memoised.specs[-1].extractor
    reference = ObjectiveSet(
        specs=DEFAULT_OBJECTIVES.specs
        + (ObjectiveSpec(name="expected_wait_ms", extractor=PerCallExpectedWait(40.0)),)
    )
    history, front, evaluations, memo = _search(memoised, "_waits")
    assert (history, front, evaluations, 0) == _search(reference, "_waits")
    assert 0 < memo <= evaluations

    gc.collect()
    assert len(extractor._waits) == 0


def test_one_distillation_per_candidate(monkeypatch):
    objectives = serving_objectives(target_rps=40.0)
    distilled = []
    reads = {"count": 0}
    distil = Deployment.from_evaluated.__func__
    interrogate = ExpectedWaitExtractor.__call__

    def counting_distil(cls, evaluated, name=None):
        distilled.append(evaluated)  # kept alive, so no id is reused
        return distil(cls, evaluated, name)

    def counting_call(self, item):
        reads["count"] += 1
        return interrogate(self, item)

    monkeypatch.setattr(Deployment, "from_evaluated", classmethod(counting_distil))
    monkeypatch.setattr(ExpectedWaitExtractor, "__call__", counting_call)
    _search(objectives, "_waits")

    assert len({id(item) for item in distilled}) == len(distilled) > 0
    # Every domination check and matrix row re-reads: many reads per candidate.
    assert reads["count"] > 2 * len(distilled)


def test_expected_wait_memo_stays_out_of_identity_and_pickle():
    objectives = serving_objectives(target_rps=40.0)
    extractor = objectives.specs[-1].extractor
    framework = MapAndConquer(resnet20(), PLATFORM, seed=0)
    result = framework.search(
        strategy="nsga2", generations=2, population_size=6, seed=3, objectives=objectives
    )
    assert len(extractor._waits) > 0  # result keeps the candidates alive

    fresh = serving_objectives(target_rps=40.0)
    clone = pickle.loads(pickle.dumps(objectives))
    assert len(clone.specs[-1].extractor._waits) == 0
    for other in (fresh, clone):
        assert other == objectives
        assert repr(other) == repr(objectives)
        assert other.fingerprint() == objectives.fingerprint()
        assert hash(other.specs[-1].extractor) == hash(extractor)
    assert [clone.values(item) for item in result.history] == [
        objectives.values(item) for item in result.history
    ]
