"""Map-and-Conquer reproduction library.

A from-scratch Python reproduction of *"Map-and-Conquer: Energy-Efficient
Mapping of Dynamic Neural Nets onto Heterogeneous MPSoCs"* (DAC 2023).  The
package provides:

* a symbolic neural-network IR and model zoo (:mod:`repro.nn`),
* a calibrated heterogeneous MPSoC model with DVFS (:mod:`repro.soc`),
* analytical and learned (GBDT surrogate) layer cost models plus the
  concurrent-execution characterisation of Eq. 8-14 (:mod:`repro.perf`),
* the dynamic multi-exit inference simulator (:mod:`repro.dynamics`),
* the evolutionary mapping optimiser and baselines (:mod:`repro.search`),
* the pluggable search engine: ask/tell strategies (evolutionary, NSGA-II,
  random) over one in-process evaluation loop and a persistent
  content-keyed evaluation cache (:mod:`repro.engine`),
* the serving subsystem: a deterministic discrete-event traffic simulator
  that deploys searched mappings behind per-compute-unit FIFO queues under
  constant/Poisson/bursty/diurnal arrival scenarios, with load-adaptive
  mapping switching and DVFS governing (:mod:`repro.serving`),
* the platform zoo: calibrated presets spanning Orin-class, Nano-class,
  mobile big.LITTLE+NPU and server-GPU regimes behind a named registry,
  plus a scaling helper for what-if variants (:mod:`repro.soc.presets`),
* cross-platform campaigns: one search fanned over a platform x scenario
  grid, per-platform Pareto fronts and a portability matrix quantifying how
  platform-specific the searched mappings are (:mod:`repro.campaign`),
* a first-class objective layer: named, pluggable
  :class:`~repro.search.objectives.ObjectiveSet` objectives (a direction
  per spec) threaded through the search, NSGA-II and campaign
  checkpoints — including serving-aware search that optimises expected
  queueing delay at a workload family's peak rate
  (:mod:`repro.search.objectives`),
* serving campaigns: parameterised workload families (steady, bursty,
  diurnal, multi-tenant) swept over every platform's front, ranking the
  boards by served-p99-per-joule under real traffic instead of isolated
  objectives (:mod:`repro.serving.families`,
  :mod:`repro.campaign.serving_runner`),
* the high-level :class:`~repro.core.framework.MapAndConquer` facade and
  report helpers (:mod:`repro.core`).

Quickstart::

    from repro import MapAndConquer, jetson_agx_xavier, visformer

    framework = MapAndConquer(visformer(), jetson_agx_xavier())
    result = framework.search(generations=20, population_size=16)
    print(result.best.summary_row())
"""

from .campaign import (
    CampaignResult,
    CampaignScenario,
    FleetCampaignResult,
    FleetMix,
    ServingCampaignResult,
    run_campaign,
    run_fleet_campaign,
    run_serving_campaign,
)
from .core.framework import MapAndConquer
from .core.report import (
    campaign_summary,
    campaign_table,
    fleet_summary,
    fleet_table,
    format_table,
    policy_adaptivity_table,
    serving_campaign_table,
    traffic_ranking_summary,
)
from .engine import (
    EvaluationCache,
    EvolutionaryStrategy,
    NSGA2Strategy,
    RandomStrategy,
    SearchEngine,
    SerialBackend,
)
from .nn.models import build_model, resnet20, vgg19, visformer
from .search.constraints import SearchConstraints
from .search.objectives import (
    ObjectiveSet,
    ObjectiveSpec,
    default_objective_set,
    MeasuredObjectives,
    measured_serving_objectives,
    serving_objectives,
)
from .search.pareto import select_measured_serving, select_serving_oriented
from .search.space import MappingConfig, SearchSpace
from .serving import (
    POLICY_KINDS,
    AdaptiveSwitchPolicy,
    Deployment,
    DvfsGovernorPolicy,
    OnOffBursts,
    PoissonArrivals,
    ReplayScenario,
    ServingResultCache,
    StaticPolicy,
    SteadyPoissonFamily,
    TrafficSimulator,
    default_families,
    family_names,
    get_family,
    rank_under_traffic,
)
from .soc.platform import Platform, jetson_agx_xavier
from .soc.presets import derive, get_platform, platform_names, platform_registry

__version__ = "1.5.0"

__all__ = [
    "MapAndConquer",
    "format_table",
    "SearchConstraints",
    "MappingConfig",
    "SearchSpace",
    "ObjectiveSpec",
    "ObjectiveSet",
    "default_objective_set",
    "serving_objectives",
    "MeasuredObjectives",
    "measured_serving_objectives",
    "select_serving_oriented",
    "select_measured_serving",
    "Platform",
    "jetson_agx_xavier",
    "platform_registry",
    "platform_names",
    "get_platform",
    "derive",
    "CampaignScenario",
    "CampaignResult",
    "run_campaign",
    "campaign_table",
    "campaign_summary",
    "ServingCampaignResult",
    "run_serving_campaign",
    "serving_campaign_table",
    "traffic_ranking_summary",
    "policy_adaptivity_table",
    "POLICY_KINDS",
    "ServingResultCache",
    "SteadyPoissonFamily",
    "FleetMix",
    "FleetCampaignResult",
    "run_fleet_campaign",
    "fleet_table",
    "fleet_summary",
    "family_names",
    "get_family",
    "default_families",
    "visformer",
    "vgg19",
    "resnet20",
    "build_model",
    "EvaluationCache",
    "SearchEngine",
    "SerialBackend",
    "EvolutionaryStrategy",
    "NSGA2Strategy",
    "RandomStrategy",
    "Deployment",
    "TrafficSimulator",
    "StaticPolicy",
    "AdaptiveSwitchPolicy",
    "DvfsGovernorPolicy",
    "PoissonArrivals",
    "OnOffBursts",
    "ReplayScenario",
    "rank_under_traffic",
    "__version__",
]
