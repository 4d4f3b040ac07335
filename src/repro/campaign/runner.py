"""Cross-platform search campaigns over the platform zoo.

:func:`run_campaign` fans :meth:`MapAndConquer.search` out over a platform x
scenario grid, sharing one optionally persistent
:class:`~repro.engine.cache.EvaluationCache` across the whole grid (content
digests include the platform name, so platforms never alias entries).  For
every cell it keeps the full :class:`~repro.search.evolutionary.SearchResult`
— including the per-platform Pareto front — and afterwards computes a
**portability ranking**: every front searched on platform A is translated
into platform B's vocabulary (:mod:`repro.campaign.portability`) and
re-evaluated by B's own pipeline, yielding the regret of deploying A's
mappings on B instead of searching B natively.

Production-grade grid running (beyond the paper):

* **Checkpointing** — pass ``checkpoint_dir=`` and every finished cell is
  persisted (:mod:`repro.campaign.checkpoint`); an interrupted campaign
  restarted with the same directory re-runs only the missing cells and
  produces byte-identical output.
* **Cell-level parallelism** — pass ``cell_workers=N`` and independent cells
  fan out over a process pool, each worker running one whole search exactly
  as the sequential path does; results are merged deterministically, so the
  summary stays bit-for-bit equal to a sequential run.  Cells are the
  library's only unit of parallel work: one candidate's evaluation is too
  small to amortise a worker pool.
* **Transfer-aware warm starts** — pass ``warm_start=True`` and every
  platform after the first seeds its initial population with the translated
  Pareto points of the platforms before it in the list (HADAS-style
  transfer), cutting generations-to-converge instead of only scoring
  portability post hoc.

All three campaign runners (this one,
:func:`~repro.campaign.serving_runner.run_serving_campaign` and
:func:`~repro.campaign.fleet_runner.run_fleet_campaign`) share the two
pieces defined here: :class:`_SearchSettings`, the search keywords they all
accept, and :func:`run_cell_grid`, the one executor that restores, runs and
checkpoints their cells.

Optionally, every front is also re-ranked under one shared traffic scenario
via :func:`repro.serving.bridge.rank_under_traffic`, so the campaign reports
both isolated-sample and under-load winners per platform.

Everything is seed-deterministic: the same seed produces byte-identical
:func:`repro.core.report.campaign_summary` output, with serial and
cell-parallel paths agreeing bit for bit, interrupted or not.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..dynamics.accuracy import AccuracyModel
from ..dynamics.samples import DEFAULT_VALIDATION_SAMPLES
from ..engine.cache import EvaluationCache
from ..engine.strategies import check_strategy_name
from ..errors import ConfigurationError
from ..nn.graph import NetworkGraph
from ..search.constraints import SearchConstraints
from ..search.evaluation import EvaluatedConfig
from ..search.evolutionary import SearchResult
from ..search.objectives import (
    MeasuredObjectives,
    ObjectiveSet,
    as_objective_set,
    paper_objective,
)
from ..search.space import MappingConfig
from ..serving.result_cache import ServingCacheRecorder, ServingResultCache
from ..serving.workload import ArrivalProcess
from ..soc.platform import Platform
from ..soc.presets import get_platform
from .checkpoint import CampaignCheckpoint, CellExpectation, CellKey
from .portability import count_surviving_on_front, translate_front

__all__ = [
    "CampaignScenario",
    "CampaignCell",
    "PortabilityEntry",
    "CampaignResult",
    "run_campaign",
    "run_cell_grid",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CampaignScenario:
    """One search scenario of the campaign grid (a column of the matrix).

    Parameters
    ----------
    name:
        Label used in tables and lookups; must be unique within a campaign.
    max_reuse_fraction:
        Optional feature-reuse cap baked into the search space *and*
        enforced as a hard constraint (the Fig. 6 75 % / 50 % scenarios).
    constraints:
        Optional explicit constraint set; overrides the cap-derived default.
    generations / population_size:
        Optional per-scenario overrides of the campaign-wide budget.
    """

    name: str = "unconstrained"
    max_reuse_fraction: Optional[float] = None
    constraints: Optional[SearchConstraints] = None
    generations: Optional[int] = None
    population_size: Optional[int] = None

    def resolve_constraints(self) -> Optional[SearchConstraints]:
        """The constraint set this scenario applies during search."""
        if self.constraints is not None:
            return self.constraints
        if self.max_reuse_fraction is not None:
            return SearchConstraints(max_reuse_fraction=self.max_reuse_fraction)
        return None


@dataclass(frozen=True)
class CampaignCell:
    """Outcome of one (platform, scenario) search."""

    platform_name: str
    scenario_name: str
    result: SearchResult
    best_objective: float
    traffic_ranking: Optional[tuple] = None

    @property
    def front(self) -> Tuple[EvaluatedConfig, ...]:
        """The cell's Pareto front."""
        return self.result.pareto

    @property
    def measured_cache_stats(self):
        """The cell's :class:`~repro.serving.result_cache.MeasuredCellStats`.

        Deterministic serving-cache lookup/unique counts of a
        measured-objective cell; ``None`` for proxy cells."""
        return self.result.serving_cache_stats


@dataclass(frozen=True)
class PortabilityEntry:
    """How the front searched on ``source`` fares re-evaluated on ``target``.

    ``regret`` is the ratio of the best transferred objective to the target's
    natively searched best (>= 1 means the native search found something at
    least as good; large values mean A's mappings do not travel).
    ``surviving_on_front`` counts transferred configs no native Pareto-front
    member dominates — when it is below ``transferred``, the source front is
    demonstrably not Pareto-optimal on the target.
    """

    source: str
    target: str
    scenario: str
    transferred: int
    surviving_on_front: int
    best_cross_objective: float
    native_best_objective: float

    @property
    def regret(self) -> float:
        """Best transferred objective over the native best (lower is better)."""
        if self.native_best_objective == 0.0:
            return float("inf")
        return self.best_cross_objective / self.native_best_objective

    @property
    def fully_pareto_optimal(self) -> bool:
        """Whether every transferred config survives on the target's front."""
        return self.surviving_on_front == self.transferred


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign produced: the grid plus the portability matrix."""

    network_name: str
    platform_names: Tuple[str, ...]
    scenario_names: Tuple[str, ...]
    cells: Tuple[CampaignCell, ...]
    portability: Tuple[PortabilityEntry, ...]
    seed: int
    _index: Optional[Dict[Tuple[str, str], CampaignCell]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_index",
            {(cell.platform_name, cell.scenario_name): cell for cell in self.cells},
        )

    def cell(self, platform: str, scenario: Optional[str] = None) -> CampaignCell:
        """The outcome searched on ``platform`` under ``scenario``."""
        scenario = self.scenario_names[0] if scenario is None else scenario
        found = self._index.get((platform, scenario))
        if found is None:
            raise ConfigurationError(
                f"no campaign cell for platform {platform!r} / scenario {scenario!r}; "
                f"have platforms {list(self.platform_names)} and "
                f"scenarios {list(self.scenario_names)}"
            )
        return found

    def front(self, platform: str, scenario: Optional[str] = None):
        """Pareto front searched on ``platform`` under ``scenario``."""
        return self.cell(platform, scenario).front

    def entry(
        self, source: str, target: str, scenario: Optional[str] = None
    ) -> PortabilityEntry:
        """The portability entry for one (source, target) pair."""
        scenario = self.scenario_names[0] if scenario is None else scenario
        for candidate in self.portability:
            if (
                candidate.source == source
                and candidate.target == target
                and candidate.scenario == scenario
            ):
                return candidate
        raise ConfigurationError(
            f"no portability entry {source!r} -> {target!r} under scenario {scenario!r}"
        )

    def portability_matrix(
        self, scenario: Optional[str] = None
    ) -> Dict[Tuple[str, str], float]:
        """``(source, target) -> regret`` for one scenario of the campaign."""
        scenario = self.scenario_names[0] if scenario is None else scenario
        return {
            (entry.source, entry.target): entry.regret
            for entry in self.portability
            if entry.scenario == scenario
        }


def _resolve_platforms(platforms: Sequence[Union[str, Platform]]) -> Tuple[Platform, ...]:
    if not platforms:
        raise ConfigurationError("run_campaign needs at least one platform")
    resolved = tuple(
        item if isinstance(item, Platform) else get_platform(item) for item in platforms
    )
    names = [platform.name for platform in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"campaign platforms must have distinct names, got {names}")
    return resolved


def _resolve_scenarios(
    scenarios: Optional[Sequence[CampaignScenario]],
) -> Tuple[CampaignScenario, ...]:
    if scenarios is None:
        return (CampaignScenario(),)
    resolved = tuple(scenarios)
    if not resolved:
        raise ConfigurationError("pass None for the default scenario, not an empty list")
    names = [scenario.name for scenario in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"campaign scenarios must have distinct names, got {names}")
    return resolved


def _run_pooled(run_cell: Callable, task, serving_cache_path: Optional[Path]):
    """Run one cell in a pool worker; return its result and new replays.

    The worker's caches are its own.  A fresh evaluation cache changes
    nothing observable: the evaluation pipeline is deterministic.  The
    serving cache reads the campaign's shared file, if there is one, but
    never writes it; the replays the cell simulated travel home with its
    result, and the parent process, the file's single writer, absorbs them.
    """
    serving_cache = ServingResultCache.reader(serving_cache_path)
    result = run_cell(task, EvaluationCache(), serving_cache)
    return result, serving_cache.export_session()


def run_cell_grid(
    kind: str,
    expectations: Mapping[Tuple[str, str], CellExpectation],
    make_task: Callable,
    run_cell: Callable,
    settings: _SearchSettings,
    waves: Optional[Sequence[Sequence[Tuple[str, str]]]] = None,
) -> Dict[Tuple[str, str], object]:
    """Run a campaign's cell grid; return every cell's result, restored or run.

    The one executor under all three campaign runners.  Each key of
    ``expectations`` is a cell; those restored from the ``kind`` records in
    ``settings.checkpoint_dir`` are skipped.  The rest run wave by wave —
    ``waves`` lists groups of independent keys in dependency order
    (warm-start donors first), by default one wave of all cells — as
    picklable tasks ``make_task(key, completed)``.

    Every cell is the module-level ``run_cell(task, cache, serving_cache)``,
    and this function alone decides where the caches come from.  In-process
    a cell gets ``settings.cache`` and ``settings.serving_cache``.  When
    ``settings.workers > 1`` and a wave has several pending cells, they run
    on one process pool against caches of their own (:func:`_run_pooled`),
    and each cell's new replays are absorbed into ``settings.serving_cache``.
    Cells are checkpointed here, so the file has one writer and completion
    order never leaks into results.
    """
    checkpoint: Optional[CampaignCheckpoint] = settings.checkpoint
    completed: Dict[Tuple[str, str], object] = {}
    if checkpoint is not None:
        load, store = {
            "search": (checkpoint.load, checkpoint.store),
            "serving": (checkpoint.load_serving, checkpoint.store_serving),
            "fleet": (checkpoint.load_fleet, checkpoint.store_fleet),
        }[kind]
        completed = load(expectations)
        if completed:
            logger.info(
                "%s campaign resume: %d of %d cells restored from %s",
                kind,
                len(completed),
                len(expectations),
                checkpoint.path,
            )
    executor: Optional[ProcessPoolExecutor] = None
    try:
        for wave in [list(expectations)] if waves is None else waves:
            pending = [key for key in wave if key not in completed]
            if not pending:
                continue
            tasks = {key: make_task(key, completed) for key in pending}
            if settings.workers > 1 and len(pending) > 1:
                if executor is None:
                    executor = ProcessPoolExecutor(max_workers=settings.workers)
                futures = {
                    executor.submit(
                        _run_pooled, run_cell, tasks[key], settings.serving_cache.path
                    ): key
                    for key in pending
                }
                finished = (
                    (futures[future], future.result()) for future in as_completed(futures)
                )
            else:
                finished = (
                    (key, (run_cell(tasks[key], settings.cache, settings.serving_cache), ()))
                    for key in pending
                )
            for key, (result, replays) in finished:
                settings.serving_cache.absorb(replays)
                completed[key] = result
                if checkpoint is not None:
                    store(key, expectations[key], result)
    finally:
        if executor is not None:
            executor.shutdown()
    return completed


@dataclass(frozen=True)
class _SearchSettings:
    """The search keywords all three campaign runners accept, validated once.

    :func:`run_campaign`,
    :func:`~repro.campaign.serving_runner.run_serving_campaign` and
    :func:`~repro.campaign.fleet_runner.run_fleet_campaign` take these as
    ``**search``; the defaults below are theirs.

    strategy:
        One of :data:`~repro.engine.strategies.STRATEGY_NAMES`, forwarded to
        every cell's :meth:`MapAndConquer.search`; any other value raises
        before a checkpoint is read or a cell runs.
    cache:
        The :class:`~repro.engine.cache.EvaluationCache` (object or JSONL
        path) shared by the whole grid.
    generations, population_size:
        Search budget of every cell (scenarios may override it).
    num_stages:
        Stage count used on *every* platform; defaults to the smallest unit
        count in the grid, so every searched mapping is translatable to
        every other platform for the portability matrix.
    accuracy_model, reorder_channels, validation_samples:
        Platform-independent evaluator settings applied in every cell (the
        cost model is always the analytical oracle: a learned per-layer
        predictor is calibrated to one platform and does not transfer).
        ``None`` resolves to the default :class:`AccuracyModel`, the model
        the cells run with, so checkpoints name it either way.
    seed:
        Master seed of every cell's search, replays and checkpoint.
    checkpoint_dir:
        Optional directory for cell checkpoints
        (:mod:`repro.campaign.checkpoint`): finished cells are skipped on
        restart, and a resumed campaign is byte-identical to an
        uninterrupted one.  A changed seed or search configuration raises
        :class:`~repro.errors.ConfigurationError` rather than mixing; changed
        warm-start donors or objectives re-run the affected cells, and so
        does a line stored with a field this run no longer has.  Either way
        the changed field names are logged.
    cell_workers:
        Fan independent cells over a pool of this many worker processes
        (``None``/1 keeps the sequential path); each task is a whole cell —
        one search, or one serving or fleet replay sweep — and results are
        bit-for-bit identical to the sequential path.
    warm_start:
        Seed each platform's initial population with the translated Pareto
        points of the platforms *before it in the list* (same scenario),
        capped at half the population so exploration survives.  The first
        platform always runs cold.  Cells then run in platform-order waves
        so donors finish first — identically under ``cell_workers``.
    objectives:
        Optional :class:`~repro.search.objectives.ObjectiveSet` (e.g.
        :func:`~repro.search.objectives.serving_objectives`, which adds the
        M/D/1 expected wait); ``None`` keeps the default
        latency/energy/accuracy axes.  Unlike the scalar ``objective`` of
        :func:`run_campaign`, the set *shapes* each cell's reported Pareto
        front.  Only under ``strategy="nsga2"`` does it also drive the
        search's ranking; the ``"evolutionary"`` and ``"random"`` searches
        visit the same candidates with or without it.
    measured_objectives:
        Optional :class:`~repro.search.objectives.MeasuredObjectives`
        factory, mutually exclusive with ``objectives`` (a ready set binds a
        single platform): every cell binds
        :func:`~repro.search.objectives.measured_serving_objectives` to *its
        own* platform and the campaign seed, with ``serving_cache``
        deduplicating replays grid-wide.  Like ``objectives``, the bound set
        shapes each cell's reported front under every strategy and steers
        the search only under ``"nsga2"``.  Each cell's deterministic cache
        statistics are exposed as :attr:`CampaignCell.measured_cache_stats`;
        they count the front assembly's lookups, plus NSGA-II's ranking
        lookups under ``"nsga2"``.
    serving_cache:
        The campaign-wide
        :class:`~repro.serving.result_cache.ServingResultCache` (instance or
        JSONL path) behind ``measured_objectives`` and the serving replays;
        defaults to a fresh in-memory cache.  In-process cells share the
        live handle.  Pool workers read a path-backed cache's file but never
        write it: their new entries travel back with each cell's result,
        and this process — the file's single writer — appends what it
        absorbs, so every replay is persisted once.
    """

    strategy: str = "evolutionary"
    cache: Union[EvaluationCache, str, Path, None] = None
    generations: int = 10
    population_size: int = 16
    num_stages: Optional[int] = None
    accuracy_model: Optional[AccuracyModel] = None
    reorder_channels: bool = True
    validation_samples: int = DEFAULT_VALIDATION_SAMPLES
    seed: int = 0
    checkpoint_dir: Union[str, Path, None] = None
    cell_workers: Optional[int] = None
    warm_start: bool = False
    objectives: Optional[ObjectiveSet] = None
    measured_objectives: Optional[MeasuredObjectives] = None
    serving_cache: Union[ServingResultCache, str, Path, None] = None

    @classmethod
    def from_keywords(cls, runner: str, search: Mapping[str, object]) -> "_SearchSettings":
        """Settings from a runner's ``**search``; a typo raises before any search."""
        known = {item.name for item in dataclasses.fields(cls)}
        for name in search:
            if name not in known:
                raise TypeError(f"{runner}() got an unexpected keyword argument {name!r}")
        return cls(**search)

    def __post_init__(self) -> None:
        check_strategy_name(self.strategy)
        if self.cell_workers is not None and int(self.cell_workers) < 1:
            raise ConfigurationError(f"cell_workers must be >= 1, got {self.cell_workers}")
        if self.objectives is not None and not isinstance(self.objectives, ObjectiveSet):
            raise ConfigurationError(
                f"objectives must be an ObjectiveSet or None, got "
                f"{type(self.objectives).__name__}"
            )
        measured = self.measured_objectives
        if measured is not None and not isinstance(measured, MeasuredObjectives):
            raise ConfigurationError(
                f"measured_objectives must be a MeasuredObjectives factory or None, "
                f"got {type(measured).__name__}"
            )
        if measured is not None and self.objectives is not None:
            raise ConfigurationError(
                "pass either objectives or measured_objectives, not both: a ready "
                "ObjectiveSet binds a single platform, while the factory binds each "
                "cell's platform at fan-out time"
            )
        resolved: Dict[str, object] = {"seed": int(self.seed)}
        # The model every cell scores with, so each route to the runners
        # (None here, the facade's evaluator model) fingerprints it alike.
        if self.accuracy_model is None:
            resolved["accuracy_model"] = AccuracyModel()
        if not isinstance(self.cache, EvaluationCache):
            resolved["cache"] = EvaluationCache(path=self.cache)
        if not isinstance(self.serving_cache, ServingResultCache):
            resolved["serving_cache"] = ServingResultCache(path=self.serving_cache)
        for name, value in resolved.items():
            object.__setattr__(self, name, value)
        # One checkpoint for the run: it reads the file once for the loads
        # of every grid the run executes.
        object.__setattr__(
            self,
            "checkpoint",
            None
            if self.checkpoint_dir is None
            else CampaignCheckpoint(self.checkpoint_dir, seed=self.seed),
        )

    @property
    def workers(self) -> int:
        """Cell-level pool size (1: the sequential path)."""
        return 1 if self.cell_workers is None else int(self.cell_workers)

    def objectives_tag(self, platform: Platform) -> str:
        """Identity of the objective set ``platform``'s search cells run under
        (it shapes their fronts, and under ``"nsga2"`` their search).

        A measured recipe binds per platform, so its tag covers the platform,
        workload member, traffic seed and replay duration; otherwise every
        platform shares the set's (or the default set's) descriptor.
        """
        if self.measured_objectives is not None:
            return self.measured_objectives.bind(platform, seed=self.seed).describe()
        return as_objective_set(self.objectives).describe()


@dataclass(frozen=True)
class _CellTask:
    """Picklable description of one cell's search, runnable in any process.

    Everything the cell needs to build its framework bit-for-bit (the
    :class:`~repro.core.framework.MapAndConquer` arguments) and run its
    search, including the warm-start seed population already translated
    into this platform's vocabulary.
    """

    network: NetworkGraph
    platform: Platform
    scenario: CampaignScenario
    stages: int
    generations: int
    population_size: int
    strategy: str
    accuracy_model: Optional[AccuracyModel]
    reorder_channels: bool
    validation_samples: int
    seed: int
    warm_seeds: Tuple[MappingConfig, ...]
    objectives: Optional[ObjectiveSet]
    measured: Optional[MeasuredObjectives]


def _build_cell_framework(task: _CellTask):
    """The cell's framework; deterministic, so every build of it agrees."""
    from ..core.framework import MapAndConquer  # local import: core imports campaign

    return MapAndConquer(
        task.network,
        task.platform,
        num_stages=task.stages,
        max_reuse_fraction=task.scenario.max_reuse_fraction,
        accuracy_model=task.accuracy_model,
        reorder_channels=task.reorder_channels,
        validation_samples=task.validation_samples,
        seed=task.seed,
    )


def _run_cell(
    task: _CellTask, cache: EvaluationCache, serving_cache: ServingResultCache
) -> SearchResult:
    """Run one cell's search against the caches :func:`run_cell_grid` hands it.

    Top-level so a process pool can dispatch it.  The framework is rebuilt
    from the task, deterministically, so a cell's result does not depend on
    the process it runs in.  A measured cell replays through
    ``serving_cache``, counted per cell by a
    :class:`~repro.serving.result_cache.ServingCacheRecorder`.
    """
    framework = _build_cell_framework(task)
    objectives, recorder = task.objectives, None
    if task.measured is not None:
        recorder = ServingCacheRecorder(serving_cache)
        objectives = task.measured.bind(task.platform, seed=task.seed, cache=recorder)
    result = framework.search(
        generations=task.generations,
        population_size=task.population_size,
        constraints=task.scenario.resolve_constraints(),
        seed=task.seed,
        strategy=task.strategy,
        cache=cache,
        initial_population=list(task.warm_seeds) if task.warm_seeds else None,
        objectives=objectives,
    )
    if recorder is not None:
        # Attach the cell's deterministic lookup/unique counts: they are a
        # pure function of the seeded search trajectory, so serial,
        # cell-parallel and checkpoint-restored results agree byte for byte.
        result = dataclasses.replace(
            result, serving_cache_stats=recorder.cell_stats()
        )
    return result


def run_campaign(
    network: NetworkGraph,
    platforms: Sequence[Union[str, Platform]],
    scenarios: Optional[Sequence[CampaignScenario]] = None,
    *,
    traffic: Optional[ArrivalProcess] = None,
    traffic_duration_ms: Optional[float] = None,
    traffic_metric: str = "p99_latency_ms",
    objective=paper_objective,
    **search,
) -> CampaignResult:
    """Search ``network`` across a platform x scenario grid and compare.

    Parameters
    ----------
    network:
        The network to map, shared by every cell (so is its channel ranking:
        it is derived from ``network`` and ``seed`` only, never the board).
    platforms:
        Registry preset names (see :func:`repro.soc.presets.platform_names`)
        and/or ready :class:`~repro.soc.platform.Platform` instances.
    scenarios:
        Search scenarios (reuse caps, constraints, per-scenario budgets);
        ``None`` runs one unconstrained scenario.
    traffic, traffic_duration_ms, traffic_metric:
        Optional shared traffic scenario: every cell's front is additionally
        re-ranked under it via :func:`repro.serving.bridge.rank_under_traffic`.
    objective:
        Scalar objective used for the portability regret (default: Eq. 16).
        It is applied post hoc and never shapes a cell's search, so changing
        it keeps checkpoints valid.
    **search:
        The search keywords shared by all three campaign runners (``seed``,
        ``generations``, ``checkpoint_dir``, ``cell_workers``, ...), each
        documented with its default on :class:`_SearchSettings`.  An unknown
        keyword raises :class:`TypeError` before any search runs.
    """
    return _search_campaign(
        network,
        platforms,
        scenarios,
        _SearchSettings.from_keywords("run_campaign", search),
        traffic=traffic,
        traffic_duration_ms=traffic_duration_ms,
        traffic_metric=traffic_metric,
        objective=objective,
    )


def _search_campaign(
    network: NetworkGraph,
    platforms: Sequence[Union[str, Platform]],
    scenarios: Optional[Sequence[CampaignScenario]],
    settings: _SearchSettings,
    traffic: Optional[ArrivalProcess] = None,
    traffic_duration_ms: Optional[float] = None,
    traffic_metric: str = "p99_latency_ms",
    objective=paper_objective,
) -> CampaignResult:
    """:func:`run_campaign` over already-validated search settings."""
    s = settings
    platform_objs = _resolve_platforms(platforms)
    scenario_objs = _resolve_scenarios(scenarios)
    # Fail on an unusable traffic request now, not after the first cell's
    # whole search has already been spent.
    if isinstance(traffic, ArrivalProcess) and traffic_duration_ms is None:
        raise ConfigurationError(
            "traffic_duration_ms is required when traffic is an ArrivalProcess"
        )
    min_units = min(platform.num_units for platform in platform_objs)
    stages = min_units if s.num_stages is None else int(s.num_stages)
    if not 1 <= stages <= min_units:
        raise ConfigurationError(
            f"num_stages must lie in [1, {min_units}] (the smallest platform's unit "
            f"count) for mappings to transfer across the grid, got {stages}"
        )
    platform_by_name = {platform.name: platform for platform in platform_objs}
    scenario_by_name = {scenario.name: scenario for scenario in scenario_objs}
    objectives_tags = {platform.name: s.objectives_tag(platform) for platform in platform_objs}

    def cell_budget(scenario: CampaignScenario) -> Tuple[int, int]:
        gens = scenario.generations if scenario.generations is not None else s.generations
        pop = (
            scenario.population_size
            if scenario.population_size is not None
            else s.population_size
        )
        return gens, pop

    # What this run demands of every cell — used both to validate restored
    # checkpoints and to label freshly finished ones.  Network and platform
    # enter by *content* (their full reprs), not by name: a same-named
    # network or board with different calibration must invalidate the cell,
    # not silently restore the old one.  The scalar objective is deliberately
    # absent — it is applied post hoc in the main process and never shapes a
    # cell's search result.  Strict fields define which search ran; donors
    # and the objective set only make a stored front stale, so changing them
    # re-runs the cell.
    expectations: Dict[CellKey, CellExpectation] = {}
    for scenario in scenario_objs:
        gens, pop = cell_budget(scenario)
        for index, platform in enumerate(platform_objs):
            expectations[(platform.name, scenario.name)] = CellExpectation(
                strict=dict(
                    network=network,
                    platform=platform,
                    num_stages=stages,
                    strategy=s.strategy,
                    generations=gens,
                    population_size=pop,
                    scenario=(scenario.name, scenario.max_reuse_fraction, scenario.constraints),
                    accuracy_model=s.accuracy_model,
                    reorder_channels=s.reorder_channels,
                    validation_samples=s.validation_samples,
                    warm_start=bool(s.warm_start),
                ),
                refreshable=dict(
                    donors=tuple(p.name for p in platform_objs[:index]) if s.warm_start else (),
                    objectives=objectives_tags[platform.name],
                ),
            )

    def make_task(key: CellKey, completed: Mapping, with_seeds: bool = True) -> _CellTask:
        platform_name, scenario_name = key
        platform = platform_by_name[platform_name]
        scenario = scenario_by_name[scenario_name]
        gens, pop = cell_budget(scenario)
        warm_seeds: Tuple[MappingConfig, ...] = ()
        if s.warm_start and with_seeds:
            collected: List[MappingConfig] = []
            for donor_name in expectations[key].refreshable["donors"]:
                donor_result = completed.get((donor_name, scenario_name))
                if donor_result is None:  # pragma: no cover - wave order forbids this
                    raise RuntimeError(
                        f"warm-start donor {donor_name!r} not finished before {key}"
                    )
                collected.extend(
                    translate_front(
                        donor_result.pareto, platform_by_name[donor_name], platform
                    )
                )
            # Half the population stays randomly sampled so the warm start
            # biases the search without collapsing its exploration.
            warm_seeds = tuple(collected[: pop // 2])
        return _CellTask(
            network=network,
            platform=platform,
            scenario=scenario,
            stages=stages,
            generations=gens,
            population_size=pop,
            strategy=s.strategy,
            accuracy_model=s.accuracy_model,
            reorder_channels=s.reorder_channels,
            validation_samples=s.validation_samples,
            seed=s.seed,
            warm_seeds=warm_seeds,
            objectives=s.objectives,
            measured=s.measured_objectives,
        )

    # Warm starts order the grid into platform-index waves (donors first);
    # without them every cell is independent and forms one wave.
    waves = None
    if s.warm_start:
        waves = [
            [(platform.name, scenario.name) for scenario in scenario_objs]
            for platform in platform_objs
        ]
    completed = run_cell_grid("search", expectations, make_task, _run_cell, s, waves)

    # Every cell's framework serves the portability and traffic passes
    # below.  Restored and pool-run cells never touched the grid-wide cache,
    # so every history is merged into it to keep that (possibly persistent)
    # cache complete; a cell searched in-process adds nothing new.  Seeds are
    # not recomputed — the framework construction never reads them.
    frameworks = {}
    for key in expectations:
        frameworks[key] = _build_cell_framework(make_task(key, completed, with_seeds=False))
        evaluator = frameworks[key].evaluator
        s.cache.store_many(
            (evaluator.content_digest(item.config), item) for item in completed[key].history
        )

    cells = []
    for scenario in scenario_objs:
        for platform in platform_objs:
            key = (platform.name, scenario.name)
            result = completed[key]
            ranking = None
            if traffic is not None:
                ranking = tuple(
                    frameworks[key].rank_under_traffic(
                        result.pareto,
                        traffic,
                        duration_ms=traffic_duration_ms,
                        metric=traffic_metric,
                        seed=s.seed,
                    )
                )
            cells.append(
                CampaignCell(
                    platform_name=platform.name,
                    scenario_name=scenario.name,
                    result=result,
                    best_objective=float(objective(result.best)),
                    traffic_ranking=ranking,
                )
            )

    portability = []
    for scenario in scenario_objs:
        for source in platform_objs:
            source_cell = next(
                cell
                for cell in cells
                if cell.platform_name == source.name
                and cell.scenario_name == scenario.name
            )
            for target in platform_objs:
                if target.name == source.name:
                    continue
                target_framework = frameworks[(target.name, scenario.name)]
                target_cell = next(
                    cell
                    for cell in cells
                    if cell.platform_name == target.name
                    and cell.scenario_name == scenario.name
                )
                # One batch per transfer: the oracle scores the translated
                # front as arrays, each result equal to evaluate()'s.
                transferred = target_framework.evaluator.evaluate_many(
                    translate_front(source_cell.front, source, target)
                )
                best_cross = min(float(objective(item)) for item in transferred)
                portability.append(
                    PortabilityEntry(
                        source=source.name,
                        target=target.name,
                        scenario=scenario.name,
                        transferred=len(transferred),
                        surviving_on_front=count_surviving_on_front(
                            transferred, target_cell.front
                        ),
                        best_cross_objective=best_cross,
                        native_best_objective=target_cell.best_objective,
                    )
                )

    return CampaignResult(
        network_name=network.name,
        platform_names=tuple(platform.name for platform in platform_objs),
        scenario_names=tuple(scenario.name for scenario in scenario_objs),
        cells=tuple(cells),
        portability=tuple(portability),
        seed=s.seed,
    )
