"""Bridge between the mapping search and the traffic simulator.

The search engine ranks configurations by isolated average-case latency and
energy (Eq. 16); under real traffic the right ranking can differ — a mapping
whose bottleneck stage saturates first queues earlier and blows up its tail
latency long before its *average* degrades.  :func:`rank_under_traffic`
replays one :class:`ReplayScenario` against every candidate and re-ranks by
a simulated serving metric such as p99-under-load, so
``MapAndConquer.search`` results can be deployed on distributional evidence
instead of per-sample expectations.

A :class:`ReplayScenario` (platform, workload, replay budget, traffic seed,
deadline) is the one description of a cached replay: it generates its
request stream once and derives the scenario half of every serving-cache key
once, however many candidates and policies replay in it.
:func:`measured_serving_metrics` (one cache-aware replay, reduced) and
:class:`MeasuredReplay` (the same, keyed once and kept) take a scenario;
:func:`simulate_deployment` stays the one-off replay of loose arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..soc.platform import Platform
from .metrics import ServingMetrics, compute_metrics, metric_direction
from .policies import Deployment, ServingPolicy, StaticPolicy
from .result_cache import ServingResultCache, _keyed, _scenario_suffix
from .simulator import ServingResult, TrafficSimulator
from .workload import ArrivalProcess, Request, _resolve_requests

__all__ = [
    "TrafficRanking",
    "ReplayScenario",
    "simulate_deployment",
    "measured_serving_metrics",
    "MeasuredReplay",
    "rank_under_traffic",
]


@dataclass(frozen=True)
class TrafficRanking:
    """One candidate's simulated serving behaviour under the shared scenario."""

    candidate: object
    deployment: Deployment
    metrics: ServingMetrics

    def score(self, metric: str) -> float:
        """Value of ``metric`` for this candidate.

        Only metrics with a declared sort direction are accepted; a typo or a
        direction-less field raises :class:`~repro.errors.ConfigurationError`.
        """
        metric_direction(metric)
        return float(getattr(self.metrics, metric))


def _as_deployment(candidate, name: Optional[str] = None) -> Deployment:
    """``candidate`` itself if it is a deployment, else its distillation."""
    if isinstance(candidate, Deployment):
        return candidate
    return Deployment.from_evaluated(candidate, name=name)


def simulate_deployment(
    candidate,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float] = None,
    policy: Optional[ServingPolicy] = None,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
) -> ServingResult:
    """Simulate one searched mapping (or ready deployment) under traffic.

    ``candidate`` may be an :class:`~repro.search.evaluation.EvaluatedConfig`
    (distilled via :meth:`Deployment.from_evaluated`), a
    :class:`~repro.serving.policies.Deployment`, or omitted implicitly by
    passing a ``policy`` that already carries its deployments.
    """
    if policy is None:
        policy = StaticPolicy(_as_deployment(candidate))
    simulator = TrafficSimulator(
        platform=platform,
        policy=policy,
        seed=_simulation_seed(seed),
        deadline_ms=deadline_ms,
    )
    requests = _resolve_requests(workload, duration_ms, seed)
    return simulator.run(requests, duration_ms=duration_ms)


@dataclass(frozen=True)
class ReplayScenario:
    """One seeded replay scenario, shared by every replay made in it.

    ``workload`` is an :class:`~repro.serving.workload.ArrivalProcess`
    (generated over ``duration_ms`` under ``seed``) or a request sequence,
    stored as a tuple.  ``duration_ms=None`` replays until the stream drains;
    such a scenario has no serving-cache key.  The scenario compares and
    prints by those five values.  It generates its request stream on the
    first :meth:`replay` and derives the scenario half of a serving-cache key
    on the first :meth:`key`, and keeps both, so a campaign member's static
    ranking and its policy replays pay for them once.
    """

    platform: Platform
    workload: Union[ArrivalProcess, Tuple[Request, ...]]
    duration_ms: Optional[float] = None
    seed: int = 0
    deadline_ms: Optional[float] = None
    _stream: object = field(default=None, init=False, repr=False, compare=False)
    _prefix: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.workload, ArrivalProcess):
            object.__setattr__(self, "workload", tuple(self.workload))

    def key(self, deployment: Deployment, policy_tag: str = "static") -> str:
        """The serving-cache key of replaying ``deployment`` here under ``policy_tag``.

        Byte-identical to :func:`~repro.serving.result_cache.serving_digest`:
        the tag is the last line of the key's scenario half, so the rest of
        it is derived once for every deployment and tag.
        """
        if self._prefix is None:
            prefix = _scenario_suffix(
                self.platform, self.workload, self.duration_ms, self.seed, self.deadline_ms, ""
            )
            object.__setattr__(self, "_prefix", prefix)
        return _keyed(deployment, self._prefix + policy_tag)

    def replay(self, policy: ServingPolicy) -> ServingResult:
        """One replay of the scenario's request stream under ``policy``."""
        if self._stream is None:
            # A process that generates nothing stays the stream, so each
            # replay fails where and as the process itself would.
            stream = _resolve_requests(self.workload, self.duration_ms, self.seed)
            object.__setattr__(self, "_stream", stream or self.workload)
        return simulate_deployment(
            None,
            self.platform,
            self._stream,
            self.duration_ms,
            policy=policy,
            seed=self.seed,
            deadline_ms=self.deadline_ms,
        )


class MeasuredReplay:
    """The measured serving metrics of one candidate in one scenario, keyed once.

    Construction distils the candidate and, given a ``cache``, derives its
    serving-cache key from the deployment, the ``scenario`` and
    ``policy_tag``; the key is never taken from a caller, since a wrong one
    would poison a shared, persisted cache.  Each :meth:`metrics` call then
    looks that key up (so hit/miss statistics and
    :class:`~repro.serving.result_cache.ServingCacheRecorder` counts see
    every interrogation), and a miss replays the scenario
    (:meth:`ReplayScenario.replay`), reduces it with
    :func:`~repro.serving.metrics.compute_metrics` and stores.  A measured
    search objective keeps one per candidate, so a candidate is distilled and
    hashed once however often it is compared.

    The digest ignores display names, so a hit is relabelled to the policy
    name a fresh replay would carry: cached and fresh metrics are equal.  A
    cached replay needs the scenario's ``duration_ms`` (it is part of the
    key); :class:`~repro.errors.ConfigurationError` says so at construction.
    ``policy`` replays an adaptive
    :class:`~repro.serving.policies.ServingPolicy` (switcher, DVFS governor)
    instead of pinning the candidate statically; the caller must then pass a
    ``policy_tag`` that identifies the policy *and* the deployment set it
    switches over, since the key still names the anchor ``candidate``.
    """

    __slots__ = ("_policy", "_scenario", "_cache", "_family_name", "_key")

    def __init__(
        self,
        candidate,
        scenario: ReplayScenario,
        cache: Optional[ServingResultCache] = None,
        family_name: str = "",
        policy: Optional[ServingPolicy] = None,
        policy_tag: str = "static",
    ) -> None:
        deployment = _as_deployment(candidate)
        self._policy = StaticPolicy(deployment) if policy is None else policy
        self._scenario = scenario
        self._cache = cache
        self._family_name = family_name
        self._key = None if cache is None else scenario.key(deployment, policy_tag)

    def metrics(self) -> ServingMetrics:
        """The replay's metrics: a cache hit, else a fresh (stored) replay."""
        if self._cache is not None:
            hit = self._cache.lookup(self._key)
            if hit is not None:
                name = self._policy.name
                return hit if hit.policy == name else dataclasses.replace(hit, policy=name)
        metrics = compute_metrics(self._scenario.replay(self._policy))
        if self._cache is not None:
            self._cache.store(self._key, metrics, family=self._family_name)
        return metrics


def measured_serving_metrics(
    candidate,
    scenario: ReplayScenario,
    cache: Optional[ServingResultCache] = None,
    family_name: str = "",
    policy: Optional[ServingPolicy] = None,
    policy_tag: str = "static",
) -> ServingMetrics:
    """Measured serving behaviour of one candidate in ``scenario``, simulated at most once.

    :class:`MeasuredReplay`'s one-call form, and the entry point behind
    :func:`rank_under_traffic` and the campaign policy replays.  With a
    shared :class:`~repro.serving.result_cache.ServingResultCache` (and
    ``family_name``, the label stored next to new entries) each distinct
    deployment pays for exactly one replay per scenario and policy tag — and
    serving-campaign replays of deployments the search already measured pay
    for none.
    """
    return MeasuredReplay(candidate, scenario, cache, family_name, policy, policy_tag).metrics()


def rank_under_traffic(
    candidates: Sequence,
    scenario: ReplayScenario,
    metric: str = "p99_latency_ms",
    cache: Optional[ServingResultCache] = None,
    family_name: str = "",
) -> List[TrafficRanking]:
    """Re-rank searched mappings by a simulated serving metric.

    Every candidate replays the one ``scenario``: the same request stream,
    generated once, and the same per-request difficulty stream (the
    simulator is re-seeded identically per candidate), so differences in the
    chosen ``metric`` are attributable to the mappings alone.  Searched
    configurations deploy as ``pareto-<position>``.  Each candidate is scored
    through :func:`measured_serving_metrics`, so with a ``cache`` a
    deployment already replayed in this scenario costs a lookup instead of a
    simulation, with metrics equal to a fresh replay's.  Returns rankings
    sorted best-first.
    """
    if not candidates:
        raise ConfigurationError("rank_under_traffic needs at least one candidate")
    # Resolve the declared sort direction up front: unknown or direction-less
    # metric names fail here, before any simulation work.
    reverse = metric_direction(metric) == "desc"
    rankings = []
    for position, candidate in enumerate(candidates):
        deployment = _as_deployment(candidate, name=f"pareto-{position}")
        metrics = measured_serving_metrics(
            deployment, scenario, cache=cache, family_name=family_name
        )
        rankings.append(
            TrafficRanking(candidate=candidate, deployment=deployment, metrics=metrics)
        )
    rankings.sort(key=lambda ranking: ranking.score(metric), reverse=reverse)
    return rankings


def _simulation_seed(seed: int) -> np.random.Generator:
    """Decorrelate the simulator's stream from the workload's arrival stream."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E57]))
