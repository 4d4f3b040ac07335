"""The measured objective's per-candidate replay memo against a per-call reference.

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
"""

from __future__ import annotations

import gc

from repro.core.framework import MapAndConquer
from repro.nn.models import resnet20
from repro.search.objectives import (
    DEFAULT_OBJECTIVES,
    MeasuredWaitExtractor,
    ObjectiveSet,
    ObjectiveSpec,
    measured_serving_objectives,
)
from repro.serving import ArrivalProcess
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


def _signature(items):
    return [
        (item.config.describe(), item.latency_ms, item.energy_mj, item.accuracy)
        for item in items
    ]


def _search(objectives):
    """History and front signatures of a small measured NSGA-II search, plus
    the number of evaluations and of memoised candidates at its end.

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
    memo = len(objectives.specs[-1].extractor._replays)
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
