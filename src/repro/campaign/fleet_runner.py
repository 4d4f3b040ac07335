"""Fleet campaigns: which fleet mix serves the daily load at the fewest joules?

:func:`repro.campaign.serving_runner.run_serving_campaign` ranks *single
boards* under traffic families; this module asks the ROADMAP's fleet
question instead: **what mix of boards serves 1M requests/day at the lowest
total joules within the p99 SLO?**  :func:`run_fleet_campaign`

1. searches every platform appearing in any mix exactly like
   :func:`~repro.campaign.runner.run_campaign` (shared cache, checkpoints,
   cell parallelism, warm starts all apply),
2. distils one deployment per platform from its searched Pareto front
   according to each mix's *selection* mode (``"energy"`` / ``"latency"`` /
   ``"balanced"``),
3. simulates every :class:`FleetMix` — platform counts x front-point choice
   x router x autoscaler policy — under every member of every workload
   family via :func:`repro.serving.fleet.simulate_fleet`, and
4. aggregates each ``(mix, family)`` cell into a :class:`FleetCellResult`
   and ranks the mixes **by total joules among mixes inside the p99 SLO**
   (SLO violators sort after, by how badly they miss).

The ranking is deliberately lexicographic rather than a blended score: an
operator first discards mixes that blow the tail-latency budget, then buys
the cheapest joules among the survivors — a mix is never allowed to trade
SLO violations for energy.

Everything is seed-deterministic (member parameters, traffic seeds and
routing derive from values only), so serial, cell-parallel and
checkpoint-resumed sweeps render a byte-identical
:func:`repro.core.report.fleet_summary`.  Fleet cells checkpoint under
record kind ``fleet`` with the serving refresh discipline: editing a mix,
re-searching a front or changing the replay budget re-runs exactly the
affected cells.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.cache import EvaluationCache
from ..errors import ConfigurationError
from ..nn.graph import NetworkGraph
from ..search.evaluation import EvaluatedConfig
from ..search.pareto import select_energy_oriented, select_latency_oriented
from ..serving.families import WorkloadFamily, member_traffic_seed, resolve_families
from ..serving.fleet import AutoscalerPolicy, FleetInstance, get_router, simulate_fleet
from ..serving.fleet_metrics import FleetMetrics, compute_fleet_metrics
from ..serving.policies import Deployment
from ..serving.result_cache import ServingResultCache
from ..soc.platform import Platform
from ..soc.presets import get_platform
from ..utils import _left_sum, check_positive
from .checkpoint import CellExpectation, FleetCellKey
from .runner import (
    CampaignResult,
    CampaignScenario,
    _search_campaign,
    _SearchSettings,
    run_cell_grid,
)
from .serving_runner import _check_replay_budget, _front_fingerprint, _mean_metric

__all__ = [
    "FleetMix",
    "FleetMemberOutcome",
    "FleetCellResult",
    "FleetCampaignResult",
    "select_front_point",
    "run_fleet_campaign",
]

#: Front-point selection modes a mix may ask for.
_SELECTIONS = ("energy", "latency", "balanced")


@dataclass(frozen=True)
class FleetMix:
    """One candidate fleet: platform counts + front point + router + scaling.

    Parameters
    ----------
    name:
        Label used in tables, rankings and checkpoint keys; unique within a
        campaign.
    counts:
        ``((platform, count), ...)`` — how many instances of each platform
        the fleet runs, in priority order (routers and the autoscaler prefer
        earlier instances).  Platforms are registry preset names or ready
        :class:`~repro.soc.platform.Platform` instances.
    selection:
        Which point of each platform's searched Pareto front the instances
        deploy: ``"energy"`` (Ours-E), ``"latency"`` (Ours-L) or
        ``"balanced"`` (smallest normalised latency x energy product).
    router:
        Registered router name (:func:`repro.serving.fleet.router_names`).
    autoscaler:
        Optional :class:`~repro.serving.fleet.AutoscalerPolicy`; ``None``
        keeps every instance powered for the whole replay.
    boot_ms:
        Cold-start latency of every instance in this mix.
    shed_backlog_ms:
        Optional load-shedding bound forwarded to
        :func:`repro.serving.fleet.simulate_fleet`: a request is dropped when
        every ready instance's estimated backlog exceeds it.  ``None`` (the
        default) never sheds, reproducing the historical behaviour
        byte-for-byte.  An undersized mix with an aggressive bound sheds most
        of a hot member's requests but never all of them: a warm instance has
        zero backlog at t=0, so the first arrival is always served.  A mix
        that sheds requests misses its SLO and ranks after every mix that
        holds it.
    """

    name: str
    counts: Tuple[Tuple[Union[str, Platform], int], ...]
    selection: str = "energy"
    router: str = "least-loaded"
    autoscaler: Optional[AutoscalerPolicy] = None
    boot_ms: float = 250.0
    shed_backlog_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a fleet mix needs a non-empty name")
        if not self.counts:
            raise ConfigurationError(f"mix {self.name!r} declares no platforms")
        for _, count in self.counts:
            if int(count) < 1:
                raise ConfigurationError(
                    f"mix {self.name!r}: instance counts must be >= 1, got {count}"
                )
        if self.selection not in _SELECTIONS:
            raise ConfigurationError(
                f"mix {self.name!r}: unknown selection {self.selection!r}; "
                f"expected one of {list(_SELECTIONS)}"
            )
        get_router(self.router)  # validate the name before any search is spent
        check_positive(self.boot_ms, "boot_ms")
        if self.shed_backlog_ms is not None:
            check_positive(self.shed_backlog_ms, "shed_backlog_ms")

    @property
    def total_instances(self) -> int:
        """How many instances the mix fields in total."""
        return sum(int(count) for _, count in self.counts)


def select_front_point(
    front: Sequence[EvaluatedConfig], selection: str
) -> EvaluatedConfig:
    """The front member a mix's ``selection`` mode deploys.

    ``"energy"`` and ``"latency"`` reuse the paper's Ours-E / Ours-L
    selectors; ``"balanced"`` minimises the product of latency and energy,
    each normalised by the front's own minimum so neither unit dominates.
    Ties break deterministically on the selectors' own objectives.
    """
    if not front:
        raise ConfigurationError("cannot select a deployment from an empty front")
    if selection == "energy":
        return select_energy_oriented(list(front))
    if selection == "latency":
        return select_latency_oriented(list(front))
    if selection == "balanced":
        min_latency = min(item.latency_ms for item in front)
        min_energy = min(item.energy_mj for item in front)
        return min(
            front,
            key=lambda item: (
                (item.latency_ms / min_latency) * (item.energy_mj / min_energy),
                item.latency_ms,
                item.energy_mj,
            ),
        )
    raise ConfigurationError(
        f"unknown selection {selection!r}; expected one of {list(_SELECTIONS)}"
    )


@dataclass(frozen=True)
class FleetMemberOutcome:
    """One family member served by one fleet mix."""

    label: str
    traffic_seed: int
    metrics: FleetMetrics

    @property
    def joules_total(self) -> float:
        """Total fleet energy over the member's replay, in joules."""
        return self.metrics.total_energy_mj / 1000.0

    @property
    def joules_per_request(self) -> float:
        """Energy per served request (dynamic + idle amortised), in joules."""
        return self.metrics.energy_per_request_mj / 1000.0


@dataclass(frozen=True)
class FleetCellResult:
    """How one fleet mix served one workload family (all members aggregated).

    ``within_slo`` demands the SLO of *every* member — the worst member's
    p99 must stay inside ``p99_slo_ms`` and no member may drop requests —
    because a daily family's peak member is exactly where an undersized
    fleet fails.
    """

    mix_name: str
    family_name: str
    members: Tuple[FleetMemberOutcome, ...]
    p99_slo_ms: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("a fleet cell needs at least one member outcome")
        check_positive(self.p99_slo_ms, "p99_slo_ms")

    @property
    def p99_latency_ms(self) -> float:
        """Mean of the members' pooled p99 latencies."""
        return _mean_metric(self.members, "p99_latency_ms")

    @property
    def worst_p99_latency_ms(self) -> float:
        """The worst member's p99 — what the SLO is judged on."""
        return max(outcome.metrics.p99_latency_ms for outcome in self.members)

    @property
    def deadline_miss_rate(self) -> float:
        """Mean of the members' deadline-miss rates."""
        return _mean_metric(self.members, "deadline_miss_rate")

    @property
    def drop_rate(self) -> float:
        """Mean of the members' drop rates."""
        return _mean_metric(self.members, "drop_rate")

    @property
    def total_joules(self) -> float:
        """Mean total fleet energy per member replay (dynamic + idle), joules."""
        return _left_sum(outcome.joules_total for outcome in self.members) / len(self.members)

    @property
    def joules_per_request(self) -> float:
        """Mean energy per served request across members, in joules."""
        return _left_sum(outcome.joules_per_request for outcome in self.members) / len(
            self.members
        )

    @property
    def mean_active_instances(self) -> float:
        """Mean of the members' time-averaged powered-instance counts."""
        return _mean_metric(self.members, "mean_active_instances")

    @property
    def within_slo(self) -> bool:
        """Whether every member met the p99 SLO without dropping requests."""
        return self.worst_p99_latency_ms <= self.p99_slo_ms and all(
            outcome.metrics.num_dropped == 0 for outcome in self.members
        )

    def daily_joules(self, requests_per_day: float = 1_000_000.0) -> float:
        """Projected joules to serve ``requests_per_day`` at this efficiency.

        The replay window is a scaled day (the family's diurnal period), so
        the per-request energy — which already amortises idle power and boot
        overheads over the window — extrapolates linearly.
        """
        check_positive(requests_per_day, "requests_per_day")
        return self.joules_per_request * requests_per_day

    def summary_row(self) -> dict:
        """Flat dictionary for :func:`repro.core.report.format_table`."""
        return {
            "family": self.family_name,
            "mix": self.mix_name,
            "members": len(self.members),
            "p99_ms": self.p99_latency_ms,
            "worst_p99_ms": self.worst_p99_latency_ms,
            "slo": "ok" if self.within_slo else "MISS",
            "miss_%": 100.0 * self.deadline_miss_rate,
            "J/replay": self.total_joules,
            "mJ/req": 1000.0 * self.joules_per_request,
            "MJ/day@1M": self.daily_joules() / 1e6,
            "mean_active": self.mean_active_instances,
        }


@dataclass(frozen=True)
class FleetCampaignResult:
    """Everything one fleet campaign produced.

    ``campaign`` is the underlying search campaign over the union of the
    mixes' platforms; ``cells`` hold one :class:`FleetCellResult` per
    ``(mix, family)`` pair in family-major order; ``deployments`` maps
    ``(platform, selection)`` to the distilled deployment the mixes field.
    """

    campaign: CampaignResult
    mixes: Tuple[FleetMix, ...]
    family_names: Tuple[str, ...]
    cells: Tuple[FleetCellResult, ...]
    deployments: Dict[Tuple[str, str], Deployment]
    members_per_family: int
    duration_ms: float
    p99_slo_ms: float
    seed: int
    _index: Optional[Dict[FleetCellKey, FleetCellResult]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_index",
            {(cell.mix_name, cell.family_name): cell for cell in self.cells},
        )

    @property
    def network_name(self) -> str:
        """The mapped network's name."""
        return self.campaign.network_name

    @property
    def mix_names(self) -> Tuple[str, ...]:
        """Names of the swept mixes, in declaration order."""
        return tuple(mix.name for mix in self.mixes)

    def cell(self, mix: str, family: str) -> FleetCellResult:
        """The outcome of ``mix`` serving ``family``."""
        found = self._index.get((mix, family))
        if found is None:
            raise ConfigurationError(
                f"no fleet cell for mix {mix!r} / family {family!r}; "
                f"have mixes {list(self.mix_names)} and "
                f"families {list(self.family_names)}"
            )
        return found

    def instances(self, mix: str) -> Tuple[FleetInstance, ...]:
        """The fleet ``mix`` fielded: the instances its cells replayed."""
        found = next((item for item in self.mixes if item.name == mix), None)
        if found is None:
            raise ConfigurationError(
                f"no fleet mix {mix!r}; have mixes {list(self.mix_names)}"
            )
        _, entries, _ = _resolve_mixes(self.mixes)
        return _mix_instances(found, entries[mix], self.deployments)

    def ranking(self, family: str) -> List[FleetCellResult]:
        """Mix cells for ``family``: within-SLO by total joules, violators after.

        Within-SLO mixes sort by mean total joules ascending (cheapest daily
        energy first); mixes outside the SLO sort after them by their worst
        member p99 (least-bad violator first).  Ties break on the mix name
        so the ordering stays deterministic.
        """
        cells = [cell for cell in self.cells if cell.family_name == family]
        if not cells:
            raise ConfigurationError(
                f"no fleet cells for family {family!r}; "
                f"have families {list(self.family_names)}"
            )
        within = sorted(
            (cell for cell in cells if cell.within_slo),
            key=lambda cell: (cell.total_joules, cell.mix_name),
        )
        beyond = sorted(
            (cell for cell in cells if not cell.within_slo),
            key=lambda cell: (cell.worst_p99_latency_ms, cell.mix_name),
        )
        return within + beyond

    def best_mix(self, family: str) -> str:
        """The cheapest within-SLO mix for ``family``.

        Raises :class:`~repro.errors.ConfigurationError` when no swept mix
        meets the SLO — there is no honest winner to report then.
        """
        ranked = self.ranking(family)
        if not ranked[0].within_slo:
            raise ConfigurationError(
                f"no swept mix serves family {family!r} within the "
                f"{self.p99_slo_ms:.0f} ms p99 SLO; the closest is "
                f"{ranked[0].mix_name!r} at {ranked[0].worst_p99_latency_ms:.1f} ms"
            )
        return ranked[0].mix_name


@dataclass(frozen=True)
class _FleetCellTask:
    """Picklable description of one fleet cell, runnable in any process."""

    mix_name: str
    family: WorkloadFamily
    instances: Tuple[FleetInstance, ...]
    router: str
    autoscaler: Optional[AutoscalerPolicy]
    members: int
    duration_ms: float
    p99_slo_ms: float
    deadline_ms: Optional[float]
    seed: int
    shed_backlog_ms: Optional[float]


def _run_fleet_cell(
    task: _FleetCellTask, cache: EvaluationCache, serving_cache: ServingResultCache
) -> FleetCellResult:
    """Serve one family with one mix (worker-safe).

    Member scenarios, traffic seeds, routing and replays derive from the
    task contents alone, so the same task yields bit-identical outcomes in
    any process.  Both caches of the cell contract go unused: fleet replays
    are simulated afresh.
    """
    outcomes = []
    processes = task.family.expand(task.seed, task.members)
    labels = task.family.member_labels(task.members)
    for index, process in enumerate(processes):
        traffic_seed = member_traffic_seed(task.seed, task.family.name, index)
        result = simulate_fleet(
            task.instances,
            process,
            duration_ms=task.duration_ms,
            router=task.router,
            autoscaler=task.autoscaler,
            seed=traffic_seed,
            deadline_ms=task.deadline_ms,
            shed_backlog_ms=task.shed_backlog_ms,
        )
        outcomes.append(
            FleetMemberOutcome(
                label=labels[index],
                traffic_seed=traffic_seed,
                metrics=compute_fleet_metrics(result),
            )
        )
    return FleetCellResult(
        mix_name=task.mix_name,
        family_name=task.family.name,
        members=tuple(outcomes),
        p99_slo_ms=task.p99_slo_ms,
    )


def _resolve_mixes(
    mixes: Sequence[FleetMix],
) -> Tuple[Tuple[FleetMix, ...], Dict[str, List[Tuple[Platform, int]]], Tuple[Platform, ...]]:
    """Validate mixes and resolve their platforms against the preset registry.

    Returns the mixes, each mix's resolved ``(platform, count)`` entries,
    and the union of distinct platforms in first-appearance order (the
    search grid).  Two platforms sharing a name must be the same board —
    content differing under one name would silently alias search cells.
    """
    if not mixes:
        raise ConfigurationError("run_fleet_campaign needs at least one mix")
    for mix in mixes:
        if not isinstance(mix, FleetMix):
            raise ConfigurationError(
                f"mixes must be FleetMix instances, got {type(mix).__name__}"
            )
    names = [mix.name for mix in mixes]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"fleet mixes must have distinct names, got {names}")
    union: Dict[str, Platform] = {}
    entries: Dict[str, List[Tuple[Platform, int]]] = {}
    for mix in mixes:
        resolved = []
        for spec, count in mix.counts:
            platform = spec if isinstance(spec, Platform) else get_platform(spec)
            known = union.get(platform.name)
            if known is None:
                union[platform.name] = platform
            elif known != platform:
                raise ConfigurationError(
                    f"two different platforms named {platform.name!r} appear in "
                    f"the mixes; rename one — same-named boards must be identical"
                )
            resolved.append((union[platform.name], int(count)))
        entries[mix.name] = resolved
    return tuple(mixes), entries, tuple(union.values())


def _mix_instances(
    mix: FleetMix,
    entries: Sequence[Tuple[Platform, int]],
    deployments: Dict[Tuple[str, str], Deployment],
) -> Tuple[FleetInstance, ...]:
    """The mix's fleet: ``count`` instances per entry, named deterministically."""
    instances = []
    per_platform: Counter = Counter()
    for platform, count in entries:
        deployment = deployments[(platform.name, mix.selection)]
        for _ in range(count):
            index = per_platform[platform.name]
            per_platform[platform.name] += 1
            instances.append(
                FleetInstance(
                    name=f"{platform.name}-{index}",
                    platform=platform,
                    deployment=deployment,
                    boot_ms=mix.boot_ms,
                )
            )
    return tuple(instances)


def run_fleet_campaign(
    network: NetworkGraph,
    mixes: Sequence[FleetMix],
    families: Optional[Sequence[Union[str, WorkloadFamily]]] = None,
    members_per_family: int = 2,
    duration_ms: float = 1500.0,
    p99_slo_ms: float = 100.0,
    deadline_ms: Optional[float] = None,
    scenario: Optional[CampaignScenario] = None,
    **search,
) -> FleetCampaignResult:
    """Search the mixes' platforms, then sweep fleet mixes over families.

    Parameters
    ----------
    network:
        The network every instance serves.
    mixes:
        The fleet mixes to sweep (see :class:`FleetMix`).
    families:
        Workload families shared by the whole fleet: registry names and/or
        ready :class:`~repro.serving.families.WorkloadFamily` instances;
        ``None`` sweeps :func:`~repro.serving.families.default_families`.
    members_per_family:
        How many seeded member scenarios each family expands into.
    duration_ms:
        Replay window per member scenario (a scaled "day" for diurnal
        families).
    p99_slo_ms:
        The tail-latency budget the ranking is gated on: a mix only
        competes on joules while every member's pooled p99 stays inside it.
    deadline_ms:
        Default relative deadline applied during replays; families whose
        processes carry their own deadlines override it per request.
    scenario:
        Optional search scenario for the underlying platform campaign.
    **search:
        The search keywords of :func:`~repro.campaign.runner.run_campaign`
        (documented on :class:`~repro.campaign.runner._SearchSettings`),
        applied to the search over the union of the mixes' platforms.
        ``checkpoint_dir`` also persists every finished fleet cell (record
        kind ``fleet``): a cell whose mix, family, replay budget, objective
        set or deployed fronts changed is re-run instead of restored.
        ``cell_workers`` fans the fleet cells over a process pool with a
        deterministic merge, so serial == cell-parallel == kill-and-resume
        byte for byte.
    """
    settings = _SearchSettings.from_keywords("run_fleet_campaign", search)
    mix_objs, mix_entries, platform_objs = _resolve_mixes(mixes)
    family_objs = resolve_families(families)
    members = _check_replay_budget(members_per_family, duration_ms)
    check_positive(p99_slo_ms, "p99_slo_ms")

    campaign = _search_campaign(
        network, platform_objs, None if scenario is None else [scenario], settings
    )
    fronts = {platform.name: campaign.front(platform.name) for platform in platform_objs}
    front_fingerprints = {
        name: _front_fingerprint(front) for name, front in fronts.items()
    }
    objectives_tags = {
        platform.name: settings.objectives_tag(platform) for platform in platform_objs
    }

    # One distilled deployment per (platform, selection) actually used by a
    # mix — named deterministically so traces and tables read cleanly.
    deployments: Dict[Tuple[str, str], Deployment] = {}
    for mix in mix_objs:
        for platform, _ in mix_entries[mix.name]:
            key = (platform.name, mix.selection)
            if key not in deployments:
                deployments[key] = Deployment.from_evaluated(
                    select_front_point(fronts[platform.name], mix.selection),
                    name=f"{platform.name}:{mix.selection}",
                )

    # The fleet-cell fingerprint covers everything that shapes the cell: the
    # mix definition and the boards it resolves to (by *content*), the
    # family, the replay budget and SLO, and the objective sets and exact
    # fronts of the platforms the mix fields — so a re-searched front or an
    # edited mix refreshes precisely the affected cells.
    expectations: Dict[FleetCellKey, CellExpectation] = {}
    for family in family_objs:
        for mix in mix_objs:
            fielded = [platform.name for platform, _ in mix_entries[mix.name]]
            expectations[(mix.name, family.name)] = CellExpectation(
                refreshable=dict(
                    network=network.name,
                    mix=mix,
                    platforms=tuple(mix_entries[mix.name]),
                    family=family,
                    members=members,
                    duration_ms=float(duration_ms),
                    p99_slo_ms=float(p99_slo_ms),
                    deadline_ms=deadline_ms,
                    fronts=tuple(front_fingerprints[name] for name in fielded),
                    objectives=tuple(objectives_tags[name] for name in fielded),
                )
            )

    mix_by_name = {mix.name: mix for mix in mix_objs}
    family_by_name = {family.name: family for family in family_objs}

    def make_task(key: FleetCellKey, _completed) -> _FleetCellTask:
        mix_name, family_name = key
        mix = mix_by_name[mix_name]
        return _FleetCellTask(
            mix_name=mix_name,
            family=family_by_name[family_name],
            instances=_mix_instances(mix, mix_entries[mix_name], deployments),
            router=mix.router,
            autoscaler=mix.autoscaler,
            members=members,
            duration_ms=float(duration_ms),
            p99_slo_ms=float(p99_slo_ms),
            deadline_ms=deadline_ms,
            seed=settings.seed,
            shed_backlog_ms=mix.shed_backlog_ms,
        )

    completed = run_cell_grid("fleet", expectations, make_task, _run_fleet_cell, settings)
    return FleetCampaignResult(
        campaign=campaign,
        mixes=mix_objs,
        family_names=tuple(family.name for family in family_objs),
        cells=tuple(completed[key] for key in expectations),
        deployments=deployments,
        members_per_family=members,
        duration_ms=float(duration_ms),
        p99_slo_ms=float(p99_slo_ms),
        seed=settings.seed,
    )
