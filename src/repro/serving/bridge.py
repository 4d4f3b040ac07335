"""Bridge between the mapping search and the traffic simulator.

The search engine ranks configurations by isolated average-case latency and
energy (Eq. 16); under real traffic the right ranking can differ — a mapping
whose bottleneck stage saturates first queues earlier and blows up its tail
latency long before its *average* degrades.  :func:`rank_under_traffic`
replays one seeded scenario against every candidate and re-ranks by a
simulated serving metric such as p99-under-load, so ``MapAndConquer.search``
results can be deployed on distributional evidence instead of per-sample
expectations.  It is built on the two primitives every single-board replay
in the repo goes through: :func:`simulate_deployment` (one seeded replay)
and :func:`measured_serving_metrics` (its reduction, cache-aware).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..soc.platform import Platform
from .metrics import ServingMetrics, compute_metrics, metric_direction
from .policies import Deployment, ServingPolicy, StaticPolicy
from .result_cache import ServingResultCache, _keyed, _scenario_suffix
from .simulator import ServingResult, TrafficSimulator
from .workload import ArrivalProcess, Request

__all__ = [
    "TrafficRanking",
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


def _resolve_requests(
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float],
    seed,
) -> Tuple[Request, ...]:
    if isinstance(workload, ArrivalProcess):
        if duration_ms is None:
            raise ConfigurationError(
                "duration_ms is required when passing an ArrivalProcess"
            )
        return workload.generate(duration_ms, seed=seed)
    requests = tuple(workload)
    if not requests:
        raise ConfigurationError("the request stream is empty")
    return requests


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


def measured_serving_metrics(
    candidate,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float],
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    cache: Optional[ServingResultCache] = None,
    family_name: str = "",
    policy: Optional[ServingPolicy] = None,
    policy_tag: str = "static",
) -> ServingMetrics:
    """Measured serving behaviour of one candidate, simulated at most once.

    The cache-aware entry point behind :func:`rank_under_traffic` and the
    campaign policy replays (``measured_serving_objectives`` keeps one
    :class:`MeasuredReplay`, which takes the same arguments, per candidate
    instead).  The candidate
    is distilled into a :class:`~repro.serving.policies.Deployment`, keyed by
    :func:`~repro.serving.result_cache.serving_digest` (deployment content x
    platform x workload x seed x replay budget x ``policy_tag``) and only
    simulated on a cache miss.  With a shared
    :class:`~repro.serving.result_cache.ServingResultCache` each distinct
    deployment pays for exactly one replay — and serving-campaign replays of
    deployments the search already measured pay for none.  The digest
    ignores display names, so a hit is relabelled to the policy name a fresh
    replay would carry: cached and fresh metrics are equal.  A cached replay
    needs ``duration_ms`` (it is part of the key);
    :class:`~repro.errors.ConfigurationError` says so before any simulation.

    ``policy`` replays an adaptive :class:`~repro.serving.policies.ServingPolicy`
    (switcher, DVFS governor) instead of pinning the candidate statically; the
    caller must then pass a ``policy_tag`` that identifies the policy *and*
    the deployment set it switches over, since the digest still keys on the
    anchor ``candidate``.
    """
    return MeasuredReplay(
        candidate,
        platform,
        workload,
        duration_ms,
        seed=seed,
        deadline_ms=deadline_ms,
        cache=cache,
        family_name=family_name,
        policy=policy,
        policy_tag=policy_tag,
    ).metrics()


class _Scenario:
    """One replay scenario, prepared once for every candidate replayed under it.

    Holds what :func:`measured_serving_metrics` takes besides the candidate,
    the cache and the policy, plus the policy's cache tag.  It derives the
    scenario half of a serving-cache key
    (:func:`~repro.serving.result_cache.serving_digest`'s payload after the
    deployment digest) on the first key, and generates the request stream on
    the first replay, so a measured objective pays for both once per
    extractor rather than once per candidate.  Every key it derives is
    byte-identical to ``serving_digest``'s, and a replay still goes through
    :func:`simulate_deployment`.
    """

    __slots__ = (
        "platform", "workload", "duration_ms", "seed", "deadline_ms", "policy_tag",
        "_suffix", "_stream",
    )

    def __init__(self, platform, workload, duration_ms, seed, deadline_ms, policy_tag) -> None:
        self.platform = platform
        self.workload = workload
        self.duration_ms = duration_ms
        self.seed = seed
        self.deadline_ms = deadline_ms
        self.policy_tag = policy_tag
        self._suffix = None
        self._stream = None

    def key(self, deployment: Deployment) -> str:
        """The serving-cache key of replaying ``deployment`` in this scenario."""
        if self._suffix is None:
            self._suffix = _scenario_suffix(
                self.platform,
                self.workload,
                self.duration_ms,
                self.seed,
                self.deadline_ms,
                self.policy_tag,
            )
        return _keyed(deployment, self._suffix)

    def replay(self, policy: ServingPolicy) -> ServingResult:
        """One seeded replay of the scenario's request stream under ``policy``."""
        if self._stream is None:
            # A process that generates nothing stays the stream, so each
            # replay fails where and as the process itself would.
            self._stream = (
                _resolve_requests(self.workload, self.duration_ms, self.seed) or self.workload
            )
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
    """:func:`measured_serving_metrics` of one candidate, keyed once.

    Takes :func:`measured_serving_metrics`'s arguments.  Construction distils
    the candidate and, given a ``cache``, derives its serving-cache key from
    the deployment and the scenario; the key is never taken from a caller,
    since a wrong one would poison a shared, persisted cache.  Each
    :meth:`metrics` call then looks that key up (so hit/miss statistics and
    :class:`~repro.serving.result_cache.ServingCacheRecorder` counts see
    every interrogation), and a miss replays through
    :func:`simulate_deployment` + :func:`~repro.serving.metrics.compute_metrics`
    and stores.  A measured search objective keeps one per candidate, so a
    candidate is distilled and hashed once however often it is compared, and
    its candidates share one prepared scenario (:meth:`_under`).
    """

    __slots__ = ("_policy", "_scenario", "_cache", "_family_name", "_key")

    def __init__(
        self,
        candidate,
        platform: Platform,
        workload: Union[ArrivalProcess, Sequence[Request]],
        duration_ms: Optional[float],
        seed: int = 0,
        deadline_ms: Optional[float] = None,
        cache: Optional[ServingResultCache] = None,
        family_name: str = "",
        policy: Optional[ServingPolicy] = None,
        policy_tag: str = "static",
    ) -> None:
        self._bind(
            _Scenario(platform, workload, duration_ms, seed, deadline_ms, policy_tag),
            candidate,
            cache,
            family_name,
            policy,
        )

    @classmethod
    def _under(
        cls, scenario: _Scenario, candidate, cache, family_name: str
    ) -> "MeasuredReplay":
        """A static replay of ``candidate`` in a shared, prepared ``"static"`` scenario."""
        replay = cls.__new__(cls)
        replay._bind(scenario, candidate, cache, family_name, None)
        return replay

    def _bind(self, scenario, candidate, cache, family_name, policy) -> None:
        deployment = _as_deployment(candidate)
        self._policy = StaticPolicy(deployment) if policy is None else policy
        self._scenario = scenario
        self._cache = cache
        self._family_name = family_name
        self._key = None if cache is None else scenario.key(deployment)

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


def rank_under_traffic(
    candidates: Sequence,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float] = None,
    metric: str = "p99_latency_ms",
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    cache: Optional[ServingResultCache] = None,
    family_name: str = "",
) -> List[TrafficRanking]:
    """Re-rank searched mappings by a simulated serving metric.

    Every candidate faces the *same* request stream (arrivals are a pure
    function of ``workload``, ``duration_ms`` and ``seed``) and the same
    per-request difficulty stream (the simulator is re-seeded identically
    per candidate), so differences in the chosen ``metric`` are
    attributable to the mappings alone.  Searched configurations deploy as
    ``pareto-<position>``.  Each candidate is scored through
    :func:`measured_serving_metrics`, so with a ``cache`` (and
    ``family_name``, the label stored next to new entries) a deployment
    already replayed under this scenario costs a lookup instead of a
    simulation, with metrics equal to a fresh replay's; a cached ranking
    needs ``duration_ms``.  Returns rankings sorted best-first.
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
            deployment,
            platform,
            workload,
            duration_ms,
            seed=seed,
            deadline_ms=deadline_ms,
            cache=cache,
            family_name=family_name,
        )
        rankings.append(
            TrafficRanking(candidate=candidate, deployment=deployment, metrics=metrics)
        )
    rankings.sort(key=lambda ranking: ranking.score(metric), reverse=reverse)
    return rankings


def _simulation_seed(seed: int) -> np.random.Generator:
    """Decorrelate the simulator's stream from the workload's arrival stream."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E57]))
