"""Serving campaigns: rank platforms by how they serve traffic families.

:func:`repro.campaign.runner.run_campaign` answers "which mapping is
Pareto-optimal on which platform?" from isolated per-sample averages, and
its optional traffic re-rank replays at most *one* shared scenario.  This
module asks the deployment question instead: **which platform should serve
this traffic?**  :func:`run_serving_campaign`

1. searches every platform exactly like ``run_campaign`` (one scenario,
   shared cache, checkpointing, cell parallelism, warm starts all apply),
2. expands every :class:`~repro.serving.families.WorkloadFamily` into ``n``
   seeded member scenarios (:meth:`~repro.serving.families.WorkloadFamily.expand`),
3. deploys each platform's Pareto front under every member via
   :func:`repro.serving.bridge.rank_under_traffic`, through the campaign's
   shared serving cache (the front member best on the ranking metric wins
   that member), and
4. aggregates each ``(platform, family)`` cell into a
   :class:`ServingCellResult` — p50/p95/p99 under load, deadline-miss rate,
   joules per request and the headline **served-p99-per-joule** score —
   forming a traffic-portability matrix over platforms x families.

served-p99-per-joule
--------------------
Per family member, the winning deployment serves
``1000 / energy_per_request_mj`` requests per joule at a tail latency of
``p99_latency_ms``; its score is requests-per-joule *discounted by that
tail*::

    score = (1000 / energy_per_request_mj) / p99_latency_ms

A platform only scores highly when it is simultaneously energy-frugal and
tail-tight under contention — an energy-optimal board whose queues blow up
under bursts loses exactly where it should.  The cell score is the geometric
mean over the family's members (scores are ratio-scaled, so the geometric
mean keeps one pathological member from drowning the rest linearly).

the policy axis
---------------
``policies=("static", "switcher", "dvfs-governor")`` additionally replays
every member's request stream through the adaptive runtime policies, built
deterministically over the member's best static winner and the deployed
front (:func:`repro.serving.policies.build_policy`).  Each cell then carries
one :class:`PolicyOutcome` per (member, policy), and
:meth:`ServingCampaignResult.adaptivity_wins` answers the deployment
question the static sweep cannot: *when does runtime adaptivity beat the
best static point?*  The static baseline is the ranked winner itself, so a
governor win is against the strongest static choice for that exact traffic.

Like the search campaign, everything is seed-deterministic: member
parameters and traffic seeds derive from ``(seed, family name, index)``
only, so serial, cell-parallel and checkpoint-resumed sweeps render a
byte-identical :func:`repro.core.report.traffic_ranking_summary`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.cache import EvaluationCache
from ..errors import ConfigurationError
from ..nn.graph import NetworkGraph
from ..search.evaluation import EvaluatedConfig
from ..serving import bridge
from ..serving.families import WorkloadFamily, member_traffic_seed, resolve_families
from ..serving.metrics import ServingMetrics, metric_direction
from ..serving.policies import POLICY_KINDS, Deployment, build_policy
from ..serving.result_cache import ServingResultCache, deployment_digest
from ..soc.platform import Platform
from ..utils import _left_sum, check_positive, geometric_mean
from .checkpoint import CellExpectation, ServingCellKey
from .runner import (
    CampaignResult,
    CampaignScenario,
    _resolve_platforms,
    _search_campaign,
    _SearchSettings,
    run_cell_grid,
)

__all__ = [
    "MemberOutcome",
    "PolicyOutcome",
    "ServingCellResult",
    "ServingCampaignResult",
    "run_serving_campaign",
    "served_p99_per_joule",
]


def served_p99_per_joule(metrics: ServingMetrics) -> float:
    """Requests-per-joule discounted by the p99 tail, 0.0 when degenerate.

    The single definition of the headline score *and* of its degenerate
    case: a replay that completed nothing
    (:attr:`~repro.serving.metrics.ServingMetrics.completed` ``== 0``), or
    whose energy-per-request / p99 is zero, non-finite or otherwise
    score-breaking, scores ``0.0`` — strictly below every real outcome — so
    saturated cells rank last instead of raising ``ZeroDivisionError`` (or
    tripping :func:`repro.utils.geometric_mean` on a non-positive value)
    and killing the whole campaign.
    """
    if metrics.completed == 0:
        return 0.0
    energy = metrics.energy_per_request_mj
    p99 = metrics.p99_latency_ms
    if not (0.0 < energy < math.inf) or not (0.0 < p99 < math.inf):
        return 0.0
    requests_per_joule = 1000.0 / energy
    return requests_per_joule / p99


def _score_geometric_mean(scores: Sequence[float]) -> float:
    """Geometric mean of member scores; 0.0 as soon as any member is degenerate.

    ``geometric_mean`` rightly rejects non-positive values — but a member
    that shed everything scores exactly 0.0 by convention, and one drowned
    member must sink the whole cell (a platform is only as good as its worst
    family member), so the cell collapses to 0.0 instead of raising.
    """
    values = [float(score) for score in scores]
    if any(value <= 0.0 for value in values):
        return 0.0
    return geometric_mean(values)


def _mean_metric(outcomes: Sequence, metric: str) -> float:
    """Mean of one metrics field across member outcomes (serving or fleet)."""
    values = [float(getattr(outcome.metrics, metric)) for outcome in outcomes]
    return _left_sum(values) / len(values)


@dataclass(frozen=True)
class MemberOutcome:
    """One family member replayed against one platform's front.

    ``winner`` is the deployment (front member) that ranked best on the
    campaign's serving metric under this member's traffic; ``metrics`` are
    that winner's aggregates for the replay.
    """

    label: str
    traffic_seed: int
    winner: str
    metrics: ServingMetrics

    @property
    def joules_per_request(self) -> float:
        """Energy per served request, in joules."""
        return self.metrics.energy_per_request_mj / 1000.0

    @property
    def served_p99_per_joule(self) -> float:
        """Requests-per-joule discounted by the p99 tail (see module docs)."""
        return served_p99_per_joule(self.metrics)


@dataclass(frozen=True)
class PolicyOutcome:
    """One runtime policy replaying one family member on one platform.

    ``policy`` is the campaign policy kind (``"static"``, ``"switcher"``,
    ``"dvfs-governor"``); ``deployment`` names the concrete policy instance
    that served (e.g. which front member the static baseline used).  The
    static outcome is byte-identical to the member's
    :class:`MemberOutcome` — it is the baseline every adaptivity comparison
    is made against.
    """

    policy: str
    label: str
    deployment: str
    metrics: ServingMetrics

    @property
    def served_p99_per_joule(self) -> float:
        """Requests-per-joule discounted by the p99 tail (see module docs)."""
        return served_p99_per_joule(self.metrics)


@dataclass(frozen=True)
class ServingCellResult:
    """How one platform served one workload family (all members aggregated).

    ``policy_outcomes`` is empty for default (static-only) campaigns and
    carries one :class:`PolicyOutcome` per ``(member, policy)`` pair when the
    campaign swept a policy axis.
    """

    platform_name: str
    family_name: str
    members: Tuple[MemberOutcome, ...]
    policy_outcomes: Tuple[PolicyOutcome, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("a serving cell needs at least one member outcome")

    @property
    def policies(self) -> Tuple[str, ...]:
        """Policy kinds this cell replayed, in campaign order."""
        seen: List[str] = []
        for outcome in self.policy_outcomes:
            if outcome.policy not in seen:
                seen.append(outcome.policy)
        return tuple(seen)

    def _policy_outcomes(self, policy: str) -> List[PolicyOutcome]:
        outcomes = [
            outcome for outcome in self.policy_outcomes if outcome.policy == policy
        ]
        if not outcomes:
            raise ConfigurationError(
                f"cell ({self.platform_name!r}, {self.family_name!r}) replayed "
                f"no {policy!r} policy; have {list(self.policies)}"
            )
        return outcomes

    def policy_score(self, policy: str) -> float:
        """Geometric-mean served-p99-per-joule of one policy across members.

        0.0 when any member replay was degenerate (shed everything)."""
        return _score_geometric_mean(
            [outcome.served_p99_per_joule for outcome in self._policy_outcomes(policy)]
        )

    def policy_mean(self, policy: str, metric: str) -> float:
        """Mean of one :class:`~repro.serving.metrics.ServingMetrics` field
        across the members one policy replayed."""
        return _mean_metric(self._policy_outcomes(policy), metric)

    @property
    def p50_latency_ms(self) -> float:
        """Mean of the member winners' p50 latencies."""
        return _mean_metric(self.members, "p50_latency_ms")

    @property
    def p95_latency_ms(self) -> float:
        """Mean of the member winners' p95 latencies."""
        return _mean_metric(self.members, "p95_latency_ms")

    @property
    def p99_latency_ms(self) -> float:
        """Mean of the member winners' p99 latencies."""
        return _mean_metric(self.members, "p99_latency_ms")

    @property
    def deadline_miss_rate(self) -> float:
        """Mean of the member winners' deadline-miss rates."""
        return _mean_metric(self.members, "deadline_miss_rate")

    @property
    def joules_per_request(self) -> float:
        """Mean energy per served request across members, in joules."""
        return _left_sum(outcome.joules_per_request for outcome in self.members) / len(
            self.members
        )

    @property
    def served_p99_per_joule(self) -> float:
        """Geometric mean of the members' served-p99-per-joule scores.

        0.0 when any member replay was degenerate, so a platform that sheds a
        whole member ranks strictly below every platform that served."""
        return _score_geometric_mean(
            [outcome.served_p99_per_joule for outcome in self.members]
        )

    def summary_row(self) -> dict:
        """Flat dictionary for :func:`repro.core.report.format_table`."""
        return {
            "family": self.family_name,
            "platform": self.platform_name,
            "members": len(self.members),
            "p50_ms": self.p50_latency_ms,
            "p95_ms": self.p95_latency_ms,
            "p99_ms": self.p99_latency_ms,
            "miss_%": 100.0 * self.deadline_miss_rate,
            "mJ/req": 1000.0 * self.joules_per_request,
            "served_p99/J": f"{self.served_p99_per_joule:.4f}",
        }


@dataclass(frozen=True)
class ServingCampaignResult:
    """Everything one serving campaign produced.

    ``campaign`` is the underlying search campaign (fronts, portability
    matrix); ``cells`` hold one :class:`ServingCellResult` per
    ``(platform, family)`` pair in family-major order.
    """

    campaign: CampaignResult
    platform_names: Tuple[str, ...]
    family_names: Tuple[str, ...]
    cells: Tuple[ServingCellResult, ...]
    members_per_family: int
    duration_ms: float
    metric: str
    seed: int
    policies: Tuple[str, ...] = ("static",)
    _index: Optional[Dict[ServingCellKey, ServingCellResult]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_index",
            {(cell.platform_name, cell.family_name): cell for cell in self.cells},
        )

    @property
    def network_name(self) -> str:
        """The mapped network's name."""
        return self.campaign.network_name

    def cell(self, platform: str, family: str) -> ServingCellResult:
        """The serving outcome of ``platform`` under ``family``."""
        found = self._index.get((platform, family))
        if found is None:
            raise ConfigurationError(
                f"no serving cell for platform {platform!r} / family {family!r}; "
                f"have platforms {list(self.platform_names)} and "
                f"families {list(self.family_names)}"
            )
        return found

    def ranking(self, family: str) -> List[ServingCellResult]:
        """Platform cells for ``family``, best served-p99-per-joule first.

        Ties (vanishingly unlikely with real numbers, but systematic for
        degenerate cells, which all score exactly 0.0 and therefore rank
        strictly last) break on the platform name so the ordering stays
        deterministic.
        """
        cells = [cell for cell in self.cells if cell.family_name == family]
        if not cells:
            raise ConfigurationError(
                f"no serving cells for family {family!r}; "
                f"have families {list(self.family_names)}"
            )
        return sorted(
            cells, key=lambda cell: (-cell.served_p99_per_joule, cell.platform_name)
        )

    def best_platform(self, family: str) -> str:
        """The platform serving ``family`` at the best served-p99-per-joule."""
        return self.ranking(family)[0].platform_name

    def traffic_matrix(self) -> Dict[ServingCellKey, float]:
        """``(platform, family) -> served-p99-per-joule`` for every cell."""
        return {
            (cell.platform_name, cell.family_name): cell.served_p99_per_joule
            for cell in self.cells
        }

    def policy_matrix(self) -> Dict[Tuple[str, str, str], float]:
        """``(platform, family, policy) -> served-p99-per-joule`` per cell.

        Empty for static-only campaigns (no policy axis was swept).
        """
        matrix: Dict[Tuple[str, str, str], float] = {}
        for cell in self.cells:
            for policy in cell.policies:
                matrix[(cell.platform_name, cell.family_name, policy)] = (
                    cell.policy_score(policy)
                )
        return matrix

    def adaptivity_wins(self, policy: str = "dvfs-governor") -> List[ServingCellKey]:
        """Cells where ``policy`` beats the best static point on
        served-p99-per-joule, as ``(platform, family)`` keys in cell order.

        The static baseline per member is the front member that won
        ``rank_under_traffic`` — the best static choice for that exact
        traffic — so a win here means runtime adaptivity beat the best
        static point, not a strawman.
        """
        wins: List[ServingCellKey] = []
        for cell in self.cells:
            kinds = cell.policies
            if policy not in kinds or "static" not in kinds:
                continue
            if cell.policy_score(policy) > cell.policy_score("static"):
                wins.append((cell.platform_name, cell.family_name))
        return wins

    def isolated_energy_best(self) -> str:
        """The platform whose searched front holds the lowest-energy mapping.

        This is the winner the *isolated* per-sample view would deploy on;
        comparing it against :meth:`best_platform` per family is the
        campaign's headline (the serving winner is frequently a different
        board once queueing enters the picture).
        """
        scenario = self.campaign.scenario_names[0]
        best_name = None
        best_energy = float("inf")
        for platform in self.platform_names:
            front = self.campaign.front(platform, scenario)
            energy = min(item.energy_mj for item in front)
            if energy < best_energy:
                best_energy = energy
                best_name = platform
        return best_name


@dataclass(frozen=True)
class _ServingCellTask:
    """Picklable description of one serving cell, runnable in any process."""

    platform: Platform
    family: WorkloadFamily
    front: Tuple[EvaluatedConfig, ...]
    members: int
    duration_ms: float
    metric: str
    deadline_ms: Optional[float]
    seed: int
    policies: Tuple[str, ...]


def _policy_front_tag(kind: str, deployed: Sequence[Deployment]) -> str:
    """Cache tag identifying a policy kind *and* the front it switches over.

    Adaptive policies serve from the whole deployed front, but the serving
    digest keys on the anchor deployment alone — so the tag must carry the
    front's content, or two campaigns deploying different fronts behind the
    same winner would collide in the shared cache.
    """
    blob = repr(tuple(deployment_digest(item) for item in deployed)).encode("utf-8")
    return f"{kind}:{hashlib.sha256(blob).hexdigest()[:12]}"


def _run_serving_cell(
    task: _ServingCellTask,
    cache: EvaluationCache,
    serving_cache: ServingResultCache,
) -> ServingCellResult:
    """Replay one family against one platform's front (worker-safe).

    Member scenarios and traffic seeds derive from the task contents alone,
    so the same task yields bit-identical outcomes in any process.  Each
    member is one :class:`~repro.serving.bridge.ReplayScenario`, so its
    request stream is generated once.  The member first ranks the front with
    :func:`~repro.serving.bridge.rank_under_traffic` (picking the best static
    front member for its traffic); every additional policy kind then replays
    the *same* scenario through
    :func:`~repro.serving.bridge.measured_serving_metrics`, under a policy
    built deterministically from that winner and the deployed front
    (:func:`~repro.serving.policies.build_policy`), so per-member policy
    comparisons share identical arrivals and difficulty draws.

    Both calls go through ``serving_cache``, the one
    :func:`~repro.campaign.runner.run_cell_grid` hands the cell, so
    deployments the measured search already simulated are not re-simulated.
    The evaluation ``cache`` is unused: a replay evaluates no mapping.
    """
    outcomes = []
    policy_outcomes = []
    processes = task.family.expand(task.seed, task.members)
    labels = task.family.member_labels(task.members)
    for index, process in enumerate(processes):
        traffic_seed = member_traffic_seed(task.seed, task.family.name, index)
        scenario = bridge.ReplayScenario(
            task.platform, process, task.duration_ms, traffic_seed, task.deadline_ms
        )
        ranked = bridge.rank_under_traffic(
            task.front,
            scenario,
            metric=task.metric,
            cache=serving_cache,
            family_name=task.family.name,
        )
        winner = ranked[0]
        outcomes.append(
            MemberOutcome(
                label=labels[index],
                traffic_seed=traffic_seed,
                winner=winner.deployment.name,
                metrics=winner.metrics,
            )
        )
        if task.policies == ("static",):
            continue
        deployed = tuple(ranking.deployment for ranking in ranked)
        for kind in task.policies:
            if kind == "static":
                # The ranked winner *is* the static policy's replay — reuse
                # its metrics byte-for-byte instead of re-simulating.
                name, metrics = winner.deployment.name, winner.metrics
            else:
                policy = build_policy(
                    kind, winner.deployment, task.platform, front=deployed
                )
                name = policy.name
                metrics = bridge.measured_serving_metrics(
                    winner.deployment,
                    scenario,
                    cache=serving_cache,
                    family_name=task.family.name,
                    policy=policy,
                    policy_tag=_policy_front_tag(kind, deployed),
                )
            policy_outcomes.append(
                PolicyOutcome(
                    policy=kind, label=labels[index], deployment=name, metrics=metrics
                )
            )
    return ServingCellResult(
        platform_name=task.platform.name,
        family_name=task.family.name,
        members=tuple(outcomes),
        policy_outcomes=tuple(policy_outcomes),
    )


def _front_fingerprint(front: Sequence[EvaluatedConfig]) -> tuple:
    """Content summary of a Pareto front for the serving-cell fingerprint."""
    return tuple(
        (item.config.describe(), item.latency_ms, item.energy_mj, item.accuracy)
        for item in front
    )


def _check_replay_budget(members_per_family: int, duration_ms: float) -> int:
    """Validate a serving or fleet sweep's replay budget; return the member count."""
    if int(members_per_family) < 1:
        raise ConfigurationError(
            f"members_per_family must be >= 1, got {members_per_family}"
        )
    check_positive(duration_ms, "duration_ms")
    return int(members_per_family)


def run_serving_campaign(
    network: NetworkGraph,
    platforms: Sequence[Union[str, Platform]],
    families: Optional[Sequence[Union[str, WorkloadFamily]]] = None,
    members_per_family: int = 3,
    duration_ms: float = 1500.0,
    metric: str = "p99_latency_ms",
    deadline_ms: Optional[float] = None,
    scenario: Optional[CampaignScenario] = None,
    *,
    policies: Sequence[str] = ("static",),
    **search,
) -> ServingCampaignResult:
    """Search every platform, then sweep workload families over the fronts.

    Parameters
    ----------
    network, platforms:
        As in :func:`repro.campaign.runner.run_campaign`.
    families:
        Workload families to sweep: registry names (see
        :func:`repro.serving.families.family_names`) and/or ready
        :class:`~repro.serving.families.WorkloadFamily` instances; ``None``
        sweeps :func:`~repro.serving.families.default_families`.
    members_per_family:
        How many seeded member scenarios each family expands into.
    duration_ms:
        Replay window per member scenario.
    metric:
        Serving metric the front is ranked on per member (validated against
        :func:`repro.serving.metrics.metric_direction` before any work).
    deadline_ms:
        Default relative deadline applied during replays (drives the
        deadline-miss aggregate); families whose processes carry their own
        deadlines override it per request.
    scenario:
        Optional search scenario for the underlying campaign (reuse caps,
        budget overrides); ``None`` searches unconstrained.
    policies:
        Runtime policy kinds each cell deploys its front under (see
        :data:`repro.serving.policies.POLICY_KINDS`).  The default
        ``("static",)`` deploys each member's ranked winner.  Adding
        ``"switcher"`` and/or ``"dvfs-governor"`` replays every member's
        request stream through those policies too (built over the member's
        best static winner and the deployed front) and records one
        :class:`PolicyOutcome` per (member, policy).  ``"static"`` must
        always be present: it is the baseline the adaptivity comparison is
        made against.
    **search:
        The search keywords of :func:`~repro.campaign.runner.run_campaign`
        (documented on :class:`~repro.campaign.runner._SearchSettings`),
        applied to the search phase.  ``checkpoint_dir`` also persists every
        finished serving cell (record kind ``serving``): a cell whose family
        definition, replay budget, objective set, policy set or deployed
        front changed is re-run instead of restored.  ``cell_workers`` fans
        the serving cells over the same-size process pool.  The
        ``serving_cache`` (a fresh in-memory one by default) is shared by
        the measured searches *and* the replays, so a deployment the search
        already simulated under a family member is never re-simulated by
        that member's replay; cached replays produce byte-identical cells.
    """
    settings = _SearchSettings.from_keywords("run_serving_campaign", search)
    platform_objs = _resolve_platforms(platforms)
    family_objs = resolve_families(families)
    members = _check_replay_budget(members_per_family, duration_ms)
    # Validate the ranking metric before any search work is spent.
    metric_direction(metric)
    policy_kinds = tuple(policies)
    if not policy_kinds:
        raise ConfigurationError(
            "policies must name at least one policy kind; the default is ('static',)"
        )
    unknown = [kind for kind in policy_kinds if kind not in POLICY_KINDS]
    if unknown:
        raise ConfigurationError(
            f"unknown policy kinds {unknown}; expected a subset of {list(POLICY_KINDS)}"
        )
    if len(set(policy_kinds)) != len(policy_kinds):
        raise ConfigurationError(f"policy kinds must be unique, got {list(policy_kinds)}")
    if "static" not in policy_kinds:
        raise ConfigurationError(
            "policies must include 'static': it is the baseline the adaptivity "
            "comparison is made against"
        )

    campaign = _search_campaign(
        network, platform_objs, None if scenario is None else [scenario], settings
    )
    fronts = {platform.name: campaign.front(platform.name) for platform in platform_objs}

    # The serving-cell fingerprint covers everything that shapes the cell:
    # the platform and family *contents*, the replay budget, the policy kinds,
    # the objective set the front was searched under, and the exact front
    # being deployed — so a re-searched front or an edited family refreshes
    # precisely the affected cells.
    per_platform = {
        platform.name: dict(
            platform=platform,
            front=_front_fingerprint(fronts[platform.name]),
            objectives=settings.objectives_tag(platform),
        )
        for platform in platform_objs
    }
    expectations: Dict[ServingCellKey, CellExpectation] = {
        (platform.name, family.name): CellExpectation(
            refreshable=dict(
                network=network.name,
                family=family,
                members=members,
                duration_ms=float(duration_ms),
                metric=metric,
                deadline_ms=deadline_ms,
                policies=policy_kinds,
                **per_platform[platform.name],
            )
        )
        for family in family_objs
        for platform in platform_objs
    }

    family_by_name = {family.name: family for family in family_objs}
    platform_by_name = {platform.name: platform for platform in platform_objs}

    def make_task(key: ServingCellKey, _completed) -> _ServingCellTask:
        platform_name, family_name = key
        return _ServingCellTask(
            platform=platform_by_name[platform_name],
            family=family_by_name[family_name],
            front=tuple(fronts[platform_name]),
            members=members,
            duration_ms=float(duration_ms),
            metric=metric,
            deadline_ms=deadline_ms,
            seed=settings.seed,
            policies=policy_kinds,
        )

    completed = run_cell_grid(
        "serving", expectations, make_task, _run_serving_cell, settings
    )
    return ServingCampaignResult(
        campaign=campaign,
        platform_names=tuple(platform.name for platform in platform_objs),
        family_names=tuple(family.name for family in family_objs),
        cells=tuple(completed[key] for key in expectations),
        members_per_family=members,
        duration_ms=float(duration_ms),
        metric=metric,
        seed=settings.seed,
        policies=policy_kinds,
    )
