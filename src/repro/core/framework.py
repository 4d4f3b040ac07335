"""The Map-and-Conquer facade: one object that runs the whole pipeline.

Typical usage::

    from repro.core import MapAndConquer
    from repro.nn.models import visformer
    from repro.soc import jetson_agx_xavier

    framework = MapAndConquer(visformer(), jetson_agx_xavier())
    result = framework.search(generations=30, population_size=24)
    best = framework.select_energy_oriented(result.pareto)
    gpu_only = framework.baseline("gpu")
    print(f"energy gain: {gpu_only.energy_mj / best.energy_mj:.2f}x")

The facade owns a :class:`~repro.search.evaluation.ConfigEvaluator` (so all
evaluations share one cache and one channel ranking), a
:class:`~repro.search.space.SearchSpace`, and small helpers to reproduce the
baselines and Pareto selections reported in the paper.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from ..dynamics.accuracy import AccuracyModel
from ..dynamics.samples import DEFAULT_VALIDATION_SAMPLES
from ..engine.cache import EvaluationCache
from ..engine.engine import SearchEngine
from ..engine.nsga import NSGA2Strategy
from ..engine.strategies import EvolutionaryStrategy, RandomStrategy, check_strategy_name
from ..errors import ConfigurationError
from ..nn.channels import ChannelRanking, rank_channels
from ..nn.graph import NetworkGraph
from ..perf.layer_cost import CostModel
from ..perf.predictor import train_surrogate
from ..search.baselines import single_unit_baseline, static_partitioned_baseline
from ..search.constraints import SearchConstraints
from ..search.evaluation import ConfigEvaluator, EvaluatedConfig
from ..search.evolutionary import SearchResult
from ..search.objectives import ObjectiveSet, paper_objective
from ..search.pareto import (
    pareto_front,
    select_energy_oriented,
    select_latency_oriented,
    select_measured_serving,
    select_serving_oriented,
)
from ..search.space import MappingConfig, SearchSpace
from ..soc.platform import Platform, jetson_agx_xavier

__all__ = ["MapAndConquer"]


class MapAndConquer:
    """End-to-end Map-and-Conquer framework for one network on one platform.

    Parameters
    ----------
    network:
        The pretrained network to transform and map.
    platform:
        Target MPSoC; defaults to the calibrated Jetson AGX Xavier model.
    cost_model:
        Per-layer latency/energy model.  ``None`` uses the analytical oracle;
        set ``use_surrogate=True`` to train and use a GBDT surrogate instead
        (the paper's configuration).
    use_surrogate:
        Train a surrogate predictor on a generated benchmark dataset and use
        it for all evaluations.
    surrogate_samples:
        Benchmark-dataset size when training the surrogate.
    accuracy_model:
        Coverage-to-accuracy model; ``None`` uses the calibrated default.
    num_stages:
        Number of inference stages; defaults to the platform's unit count.
    max_reuse_fraction:
        Optional cap on feature-map reuse baked into the search space (the
        75 % / 50 % scenarios).
    reorder_channels:
        Apply the Sect. V-D channel-importance reordering (default on).
    validation_samples:
        Validation-set size used for exit statistics.
    seed:
        Seed for the channel ranking and surrogate training.
    """

    def __init__(
        self,
        network: NetworkGraph,
        platform: Optional[Platform] = None,
        cost_model: Optional[CostModel] = None,
        use_surrogate: bool = False,
        surrogate_samples: int = 1500,
        accuracy_model: Optional[AccuracyModel] = None,
        num_stages: Optional[int] = None,
        max_reuse_fraction: Optional[float] = None,
        reorder_channels: bool = True,
        validation_samples: int = DEFAULT_VALIDATION_SAMPLES,
        seed: int = 0,
    ) -> None:
        if cost_model is not None and use_surrogate:
            raise ConfigurationError("pass either cost_model or use_surrogate, not both")
        self.network = network
        self.platform = platform if platform is not None else jetson_agx_xavier()
        self.seed = int(seed)
        if use_surrogate:
            cost_model = train_surrogate(
                self.platform, num_samples=surrogate_samples, seed=self.seed
            )
        self.cost_model = cost_model
        self.ranking: ChannelRanking = rank_channels(network, seed=self.seed)
        self.evaluator = ConfigEvaluator(
            network=network,
            platform=self.platform,
            cost_model=cost_model,
            accuracy_model=accuracy_model,
            ranking=self.ranking,
            reorder_channels=reorder_channels,
            validation_samples=validation_samples,
            seed=self.seed,
        )
        self.space = SearchSpace(
            network=network,
            platform=self.platform,
            num_stages=num_stages,
            max_reuse_fraction=max_reuse_fraction,
        )
        # Default engine cache, shared by every search() on this framework so
        # repeated searches (strategy comparisons, warm restarts) hit it and
        # the cache telemetry reflects the reuse that actually happens.
        self.evaluation_cache = EvaluationCache()

    # -- evaluation -----------------------------------------------------------------
    def evaluate(self, config: MappingConfig) -> EvaluatedConfig:
        """Evaluate one explicit configuration ``Pi``."""
        return self.evaluator.evaluate(config)

    def sample(self, seed: Optional[int] = None) -> MappingConfig:
        """Sample one random configuration from the search space."""
        return self.space.sample(self.seed if seed is None else seed)

    # -- baselines ------------------------------------------------------------------
    def baseline(self, unit_name: str, dvfs_index: Optional[int] = None) -> EvaluatedConfig:
        """GPU-only / DLA-only style single-unit baseline."""
        return single_unit_baseline(
            self.network,
            self.platform,
            unit_name,
            cost_model=self.cost_model,
            dvfs_index=dvfs_index,
            seed=self.seed,
        )

    def static_baseline(
        self, unit_names: Optional[Tuple[str, ...]] = None
    ) -> EvaluatedConfig:
        """Static width-partitioned mapping across units (no early exits)."""
        return static_partitioned_baseline(
            self.network,
            self.platform,
            cost_model=self.cost_model,
            unit_names=unit_names,
            seed=self.seed,
        )

    # -- search ---------------------------------------------------------------------
    def search(
        self,
        *,
        generations: int = 200,
        population_size: int = 60,
        constraints: Optional[SearchConstraints] = None,
        objective: Callable[[EvaluatedConfig], float] = paper_objective,
        seed: Optional[int] = None,
        strategy: str = "evolutionary",
        cache: "EvaluationCache | str | Path | None" = None,
        initial_population: Optional[Sequence[MappingConfig]] = None,
        objectives: Optional[ObjectiveSet] = None,
    ) -> SearchResult:
        """Run the mapping search (Fig. 5) and return its result.

        The defaults are the paper's full budget, 200 generations of 60
        individuals; the benches and examples use smaller budgets that
        converge on the reduced analytical problem in seconds.  Every
        parameter is keyword-only.

        Parameters beyond the seed behaviour
        ------------------------------------
        strategy:
            ``"evolutionary"`` (default, the paper's Fig. 5 loop — identical
            results to the pre-engine implementation for a given seed),
            ``"nsga2"`` (non-dominated sorting + crowding distance), or
            ``"random"``.  A configured
            :class:`~repro.engine.strategies.SearchStrategy` (custom
            ``elite_fraction``, ``mutation_rate``, ...) is rejected here; run
            it with ``SearchEngine(evaluator=framework.evaluator).run(strategy)``.
        cache:
            An :class:`~repro.engine.cache.EvaluationCache` to share/reuse, or
            a path to a JSON-lines file for persistence across runs; ``None``
            uses this framework's own :attr:`evaluation_cache`, shared across
            every search it runs.
        initial_population:
            Optional warm-start seeds: configurations (at most
            ``population_size`` of them) evaluated as-is in the first
            generation before any random sampling — typically Pareto points
            translated from a related platform
            (:func:`repro.campaign.translate_config`).  ``None`` keeps the
            cold-start behaviour bit-for-bit.
        objectives:
            ``None`` (default) keeps the paper's latency/energy/accuracy
            trio, bit-for-bit.  An
            :class:`~repro.search.objectives.ObjectiveSet` re-shapes the
            reported Pareto front under every strategy, and under
            ``"nsga2"`` also drives the non-dominated ranking and crowding
            over the set's objective matrix.  Build a serving-aware set with
            :func:`~repro.search.objectives.serving_objectives`.
        """
        check_strategy_name(strategy)
        if objectives is not None and not isinstance(objectives, ObjectiveSet):
            raise ConfigurationError(
                f"objectives must be an ObjectiveSet or None, got "
                f"{type(objectives).__name__}"
            )
        loop = dict(
            space=self.space,
            population_size=population_size,
            generations=generations,
            seed=self.seed if seed is None else seed,
            initial_population=initial_population,
        )
        if strategy == "evolutionary":
            chosen = EvolutionaryStrategy(objective=objective, constraints=constraints, **loop)
        elif strategy == "nsga2":
            chosen = NSGA2Strategy(constraints=constraints, objectives=objectives, **loop)
        else:
            chosen = RandomStrategy(**loop)
        if cache is None:
            cache = self.evaluation_cache
        elif not isinstance(cache, EvaluationCache):
            cache = EvaluationCache(path=cache)
        engine = SearchEngine(
            evaluator=self.evaluator,
            cache=cache,
            constraints=constraints,
            objective=objective,
            objectives=objectives,
        )
        return engine.run(chosen)

    # -- serving under traffic --------------------------------------------------------
    def simulate_traffic(
        self,
        candidate,
        workload,
        duration_ms: Optional[float] = None,
        policy=None,
        seed: int = 0,
        deadline_ms: Optional[float] = None,
    ):
        """Deploy one mapping (or a serving policy) under a traffic scenario.

        Thin wrapper over :func:`repro.serving.bridge.simulate_deployment`
        bound to this framework's platform; returns the full
        :class:`~repro.serving.simulator.ServingResult` (call ``.metrics()``
        for the percentile/throughput aggregates).
        """
        from ..serving.bridge import simulate_deployment

        return simulate_deployment(
            candidate,
            self.platform,
            workload,
            duration_ms=duration_ms,
            policy=policy,
            seed=seed,
            deadline_ms=deadline_ms,
        )

    def rank_under_traffic(
        self,
        candidates: Sequence[EvaluatedConfig],
        workload,
        duration_ms: Optional[float] = None,
        metric: str = "p99_latency_ms",
        seed: int = 0,
        deadline_ms: Optional[float] = None,
    ):
        """Re-rank searched mappings by simulated serving behaviour.

        The isolated Table II averages that drive :meth:`search` ignore
        contention; this replays one seeded scenario against every candidate
        (identical arrivals and difficulty stream) and sorts by ``metric``
        (default: p99 latency under traffic), best first.  See
        :func:`repro.serving.bridge.rank_under_traffic`.
        """
        from ..serving.bridge import ReplayScenario, rank_under_traffic

        scenario = ReplayScenario(self.platform, workload, duration_ms, seed, deadline_ms)
        return rank_under_traffic(list(candidates), scenario, metric=metric)

    # -- cross-platform campaigns -----------------------------------------------------
    def _campaign_keywords(self, method: str, seed: Optional[int]) -> dict:
        """The keywords every campaign facade hands its runner.

        Refuses a framework with a custom or surrogate cost model: it is
        calibrated to one platform and would mis-score every other cell.
        Otherwise forwards the seed and the platform-independent evaluator
        settings, so the own-platform cell reproduces :meth:`search`.
        """
        if self.cost_model is not None:
            raise ConfigurationError(
                f"{method}() cannot reuse this framework's cost model: a custom "
                "or surrogate cost model is calibrated to one platform and would "
                "mis-score the other cells; build the campaign from an "
                "analytical-oracle framework instead"
            )
        return dict(
            seed=self.seed if seed is None else seed,
            accuracy_model=self.evaluator.accuracy_model,
            reorder_channels=self.evaluator.reorder_channels,
            validation_samples=self.evaluator.validation_samples,
        )

    def _campaign_platforms(self, platforms, include_own_platform: bool):
        """The campaign grid: resolved platforms, own board prepended."""
        from ..soc.presets import get_platform

        resolved = [
            item if isinstance(item, Platform) else get_platform(item)
            for item in platforms
        ]
        if include_own_platform and all(
            platform.name != self.platform.name for platform in resolved
        ):
            resolved.insert(0, self.platform)
        return resolved

    def campaign(
        self,
        platforms,
        scenarios=None,
        include_own_platform: bool = True,
        seed: Optional[int] = None,
        **kwargs,
    ):
        """Search this framework's network across a grid of platforms.

        Thin wrapper over :func:`repro.campaign.run_campaign` bound to
        ``self.network``: fans the search out over ``platforms`` (registry
        preset names and/or :class:`~repro.soc.platform.Platform` instances;
        this framework's own platform is prepended unless
        ``include_own_platform=False`` or it is already in the list),
        collects per-platform Pareto fronts and computes the portability
        matrix.  The facade's platform-independent evaluator settings
        (accuracy model, channel reordering, validation budget) carry over
        to every cell, so the own-platform cell reproduces what
        :meth:`search` would find.  A custom or surrogate cost model does
        *not* carry over — it is calibrated to one platform and would
        mis-score every other cell — so campaigning from such a framework
        is rejected.  See :func:`repro.campaign.run_campaign` for the
        remaining keyword arguments (strategy, cache, budgets,
        ``cell_workers``, traffic re-ranking, and
        ``measured_objectives=``/``serving_cache=`` for measured serving
        objectives bound to each cell's platform, with one simulator-result
        cache shared grid-wide).  An objective set shapes every cell's
        reported front; only under ``strategy="nsga2"`` does it also steer
        the cell's search.
        """
        from ..campaign import run_campaign

        forwarded = self._campaign_keywords("campaign", seed)
        return run_campaign(
            self.network,
            self._campaign_platforms(platforms, include_own_platform),
            scenarios=scenarios,
            **forwarded,
            **kwargs,
        )

    def serving_campaign(
        self,
        platforms,
        families=None,
        include_own_platform: bool = True,
        seed: Optional[int] = None,
        **kwargs,
    ):
        """Search a platform grid, then rank the boards under traffic families.

        Thin wrapper over :func:`repro.campaign.run_serving_campaign` bound
        to ``self.network``: every platform is searched exactly as in
        :meth:`campaign` (own platform prepended unless already listed or
        ``include_own_platform=False``), then each front is deployed under
        every member of every workload family
        (:mod:`repro.serving.families`) and the platforms are ranked by
        served-p99-per-joule.  Render the result with
        :func:`repro.core.report.traffic_ranking_summary`.  The same
        cost-model restriction as :meth:`campaign` applies.  See
        :func:`repro.campaign.run_serving_campaign` for the remaining
        keyword arguments (families, members_per_family, duration_ms,
        metric, deadline_ms, checkpoint_dir, cell_workers, the
        ``policies=`` axis deploying each front under static, switcher and
        DVFS-governor runtime policies, and
        ``measured_objectives=``/``serving_cache=`` for measured campaigns
        whose replays reuse the very simulations the searches paid for).  As
        in :meth:`campaign`, a measured set shapes every searched front, and
        steers the searches themselves only under ``strategy="nsga2"``.
        """
        from ..campaign.serving_runner import run_serving_campaign

        forwarded = self._campaign_keywords("serving_campaign", seed)
        return run_serving_campaign(
            self.network,
            self._campaign_platforms(platforms, include_own_platform),
            families=families,
            **forwarded,
            **kwargs,
        )

    def fleet_campaign(
        self,
        mixes,
        families=None,
        seed: Optional[int] = None,
        **kwargs,
    ):
        """Search the mixes' platforms, then sweep fleet mixes over families.

        Thin wrapper over :func:`repro.campaign.run_fleet_campaign` bound to
        ``self.network``: the union of the mixes' platforms is searched
        exactly as in :meth:`campaign`, one front point per mix selection is
        distilled into a deployment, and every
        :class:`~repro.campaign.FleetMix` — platform counts x front-point
        choice x router x autoscaler — serves every member of every workload
        family, ranked by total joules within the p99 SLO.  Render the
        result with :func:`repro.core.report.fleet_summary`.  Unlike
        :meth:`campaign`, the grid comes entirely from the mixes — the
        framework's own platform only participates if some mix fields it —
        but the same cost-model restriction applies.  See
        :func:`repro.campaign.run_fleet_campaign` for the remaining keyword
        arguments (members_per_family, duration_ms, p99_slo_ms, deadline_ms,
        checkpoint_dir, cell_workers, ``measured_objectives=``/
        ``serving_cache=``, ...).
        """
        from ..campaign.fleet_runner import run_fleet_campaign

        forwarded = self._campaign_keywords("fleet_campaign", seed)
        return run_fleet_campaign(
            self.network, mixes, families=families, **forwarded, **kwargs
        )

    # -- Pareto selection -------------------------------------------------------------
    def pareto(
        self,
        evaluated: Sequence[EvaluatedConfig],
        objectives: Optional[ObjectiveSet] = None,
    ) -> list:
        """Non-dominated subset of ``evaluated`` (default objective trio,
        or a custom :class:`~repro.search.objectives.ObjectiveSet`)."""
        return pareto_front(list(evaluated), objectives)

    def select_latency_oriented(
        self, evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float] = None
    ) -> EvaluatedConfig:
        """Pick the "Ours-L" model from a (Pareto) set."""
        return select_latency_oriented(list(evaluated), max_accuracy_drop=max_accuracy_drop)

    def select_energy_oriented(
        self, evaluated: Sequence[EvaluatedConfig], max_accuracy_drop: Optional[float] = None
    ) -> EvaluatedConfig:
        """Pick the "Ours-E" model from a (Pareto) set."""
        return select_energy_oriented(list(evaluated), max_accuracy_drop=max_accuracy_drop)

    def select_serving_oriented(
        self,
        evaluated: Sequence[EvaluatedConfig],
        family=None,
        rate_rps: Optional[float] = None,
        max_accuracy_drop: Optional[float] = None,
    ) -> EvaluatedConfig:
        """Pick the front member that serves ``family`` (or ``rate_rps``) best.

        Unlike :meth:`select_energy_oriented`, which ignores load, this
        scores each candidate by its isolated latency *plus* the M/D/1
        queueing delay its throughput implies at the family's peak arrival
        rate, scaled by relative accuracy — so energy-frugal mappings that
        saturate under bursts lose to slightly hungrier ones that keep the
        queue short.  See :func:`repro.search.pareto.select_serving_oriented`.
        """
        return select_serving_oriented(
            list(evaluated),
            family=family,
            rate_rps=rate_rps,
            max_accuracy_drop=max_accuracy_drop,
        )

    def select_measured_serving(
        self,
        evaluated: Sequence[EvaluatedConfig],
        family,
        duration_ms: float = 400.0,
        members: int = 3,
        cache=None,
        max_accuracy_drop: Optional[float] = None,
    ) -> EvaluatedConfig:
        """Pick the front member that *measurably* serves ``family`` best.

        The measured counterpart of :meth:`select_serving_oriented`: instead
        of the M/D/1 closed form, each candidate is distilled into a
        deployment and replayed through the traffic simulator under the
        family's peak member on this framework's platform, scoring by
        isolated latency plus the *measured* mean queueing delay (scaled by
        relative accuracy).  Pass a :class:`~repro.serving.ServingResultCache`
        (or a path) as ``cache`` to skip re-simulating repeated deployments.
        See :func:`repro.search.pareto.select_measured_serving`.
        """
        return select_measured_serving(
            list(evaluated),
            self.platform,
            family,
            duration_ms=duration_ms,
            seed=self.seed,
            members=members,
            cache=cache,
            max_accuracy_drop=max_accuracy_drop,
        )
