"""Search objectives (Sect. V-B) and the pluggable objective layer.

The paper's composite objective (Eq. 16) rewards configurations whose early
stages absorb many samples cheaply while keeping the final-stage accuracy
close to the pretrained baseline:

    P = (Acc_base / Acc_SM) * (sum_i T_{S_i} * N_i) * (sum_i E_{S_{1:i}} * N_i)

where ``N_i`` is the number of validation samples first classified correctly
at stage ``i``, ``T_{S_i}`` the stage latency (Eq. 9) and ``E_{S_{1:i}}`` the
cumulative energy of instantiating the first ``i`` stages (Eq. 14).  Smaller
is better.  Two additional scalarisations -- latency-oriented and
energy-oriented -- are provided for selecting the "Ours-L" and "Ours-E"
models of Table II from a Pareto set.

On top of the scalarisations, this module defines the *objective layer* the
multi-objective machinery is built on: an :class:`ObjectiveSpec` names one
axis (how to extract it from an :class:`~repro.search.evaluation.EvaluatedConfig`
and whether it is minimised or maximised), and an :class:`ObjectiveSet`
bundles the axes the search optimises.  :func:`default_objective_set`
reproduces the historical (latency, energy, -accuracy) behaviour exactly;
:func:`serving_objectives`
extends it with the M/D/1 expected queueing wait so NSGA-II optimises for
load directly.
"""

from __future__ import annotations

import hashlib
import math
import types
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .evaluation import EvaluatedConfig

__all__ = [
    "paper_objective",
    "latency_oriented_objective",
    "energy_oriented_objective",
    "serving_oriented_objective",
    "nan_guarded",
    "ObjectiveSpec",
    "ObjectiveSet",
    "default_objective_set",
    "serving_objectives",
    "measured_serving_objectives",
    "MeasuredObjectives",
    "ExpectedWaitExtractor",
    "MeasuredWaitExtractor",
    "as_objective_set",
    "DEFAULT_OBJECTIVES",
]

#: Numerical floor preventing division by a zero final-stage accuracy.
_MIN_ACCURACY = 1e-3


def _accuracy_term(evaluated: EvaluatedConfig) -> float:
    """``Acc_base / Acc_SM`` of Eq. 16, the penalty every scalarisation applies."""
    return evaluated.base_accuracy / max(_MIN_ACCURACY, evaluated.accuracy)


def paper_objective(evaluated: EvaluatedConfig) -> float:
    """Composite objective of Eq. 16 (lower is better)."""
    accuracy_term = _accuracy_term(evaluated)
    statistics = evaluated.inference.exit_statistics
    latency_term = 0.0
    energy_term = 0.0
    # HardwareProfile.stage_latency_ms and cumulative_energy_mj, read off the
    # stages: each prefix energy adds its prefix left to right from zero, as
    # the running total does.
    stages = evaluated.profile.stages
    prefix_energy = 0.0
    for stage_index, count in enumerate(statistics.correct_counts):
        stage = stages[stage_index]
        prefix_energy += stage.energy_mj
        latency_term += stage.latency_ms * count
        energy_term += prefix_energy * count
    # A degenerate configuration that classifies nothing correctly produces
    # zero latency/energy terms; give it the worst possible score instead of
    # an artificially perfect one.
    if latency_term == 0.0 or energy_term == 0.0:
        return float("inf")
    return accuracy_term * latency_term * energy_term


def latency_oriented_objective(evaluated: EvaluatedConfig) -> float:
    """Average latency penalised by accuracy loss (used to pick "Ours-L")."""
    return evaluated.latency_ms * _accuracy_term(evaluated)


def energy_oriented_objective(evaluated: EvaluatedConfig) -> float:
    """Average energy penalised by accuracy loss (used to pick "Ours-E")."""
    return evaluated.energy_mj * _accuracy_term(evaluated)


def serving_oriented_objective(evaluated: EvaluatedConfig, rate_rps: float) -> float:
    """Sojourn time under load penalised by accuracy loss.

    Scores a candidate by its M/D/1 response time — service latency plus the
    expected queueing wait at ``rate_rps`` requests/s — times the same
    accuracy penalty the other scalarisations use.  A mapping whose
    bottleneck saturates at the offered rate scores ``inf`` and sorts last.
    """
    from ..serving.policies import Deployment

    wait_ms = Deployment.from_evaluated(evaluated).expected_wait_ms(rate_rps)
    return (evaluated.latency_ms + wait_ms) * _accuracy_term(evaluated)


def nan_guarded(
    objective: Callable[[EvaluatedConfig], float]
) -> Callable[[EvaluatedConfig], float]:
    """Wrap a scalar objective so NaN scores sort last instead of randomly.

    ``sorted(pool, key=objective)`` silently mis-orders a pool when the key
    returns NaN (every comparison against NaN is false, so NaN entries keep
    whatever position the sort happens to probe).  Mapping NaN to ``+inf``
    keeps degenerate candidates deterministically at the bottom; finite and
    ``inf`` scores pass through unchanged.
    """

    def guarded(item: EvaluatedConfig) -> float:
        value = float(objective(item))
        return float("inf") if math.isnan(value) else value

    return guarded


# -- the objective layer ---------------------------------------------------------

_DIRECTIONS = ("min", "max")


def _latency_extractor(item: EvaluatedConfig) -> float:
    return item.latency_ms


def _energy_extractor(item: EvaluatedConfig) -> float:
    return item.energy_mj


def _accuracy_extractor(item: EvaluatedConfig) -> float:
    return item.accuracy


@dataclass(frozen=True)
class ExpectedWaitExtractor:
    """Picklable extractor: M/D/1 expected queueing wait at a fixed rate.

    Distills the candidate into a :class:`~repro.serving.policies.Deployment`
    and reads :meth:`~repro.serving.policies.Deployment.expected_wait_ms` at
    ``rate_rps`` — ``inf`` when the bottleneck compute unit saturates, which
    the objective layer treats as "worst possible", so saturated mappings are
    dominated by every mapping that keeps up with the offered load.
    """

    rate_rps: float

    def __call__(self, item: EvaluatedConfig) -> float:
        from ..serving.policies import Deployment

        return Deployment.from_evaluated(item).expected_wait_ms(self.rate_rps)


@dataclass(frozen=True)
class MeasuredWaitExtractor:
    """Picklable extractor: *measured* mean queueing wait under a replay.

    Where :class:`ExpectedWaitExtractor` answers from the M/D/1 formula, this
    extractor distils the candidate into a
    :class:`~repro.serving.policies.Deployment` and replays a short seeded
    traffic scenario through the deterministic event-loop simulator
    (:class:`~repro.serving.bridge.MeasuredReplay`), reading the
    measured ``mean_queueing_ms`` — directly comparable to the proxy, but
    aware of burst shapes, transient queue build-up and the finite horizon
    the proxy's steady-state assumption ignores.

    The content-bearing fields (platform, workload member, traffic seed,
    replay duration) define the extractor's identity: they appear in ``repr``
    and therefore in objective-set fingerprints, so changing the replay
    re-runs exactly the affected campaign cells.  The attached
    :class:`~repro.serving.result_cache.ServingResultCache` is excluded from
    both ``repr`` and equality — it is an accelerator, not an identity.
    Campaign cells bind their extractor in the process that runs the cell
    (:class:`MeasuredObjectives`), so the cache never crosses processes with
    it.

    One replay key per candidate: the extractor keeps each
    :class:`~repro.search.evaluation.EvaluatedConfig`'s
    :class:`~repro.serving.bridge.MeasuredReplay` (its deployment and cache
    key), so a candidate is distilled and hashed once per bound set, not once
    per domination check or NSGA-II matrix row.  Every interrogation still
    makes one cache lookup, so hit/miss and recorder counts are those of an
    unmemoised extractor.  The memo holds candidates through weak references
    (it never keeps a search's candidates alive) and, since
    ``EvaluatedConfig`` compares by identity, keys them by identity.  Its
    replays share one :class:`~repro.serving.bridge.ReplayScenario`, built
    once per extractor from its fields: the request stream is generated once
    and the scenario half of every key is derived once.  Memo and scenario
    stay out of ``repr``, equality, the hash and fingerprints, and are not
    pickled: a clone starts empty.
    """

    platform: object
    workload: object
    traffic_seed: int
    duration_ms: float
    family_name: str = ""
    cache: Optional[object] = field(default=None, repr=False, compare=False)
    _replays: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )
    _scenario: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, item: EvaluatedConfig) -> float:
        replay = self._replays.get(item)
        if replay is None:
            from ..serving.bridge import MeasuredReplay, ReplayScenario

            scenario = self._scenario
            if scenario is None:
                scenario = ReplayScenario(
                    self.platform, self.workload, self.duration_ms, self.traffic_seed
                )
                object.__setattr__(self, "_scenario", scenario)
            replay = self._replays[item] = MeasuredReplay(
                item, scenario, self.cache, self.family_name
            )
        return replay.metrics().mean_queueing_ms

    def __getstate__(self) -> dict:
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in ("_replays", "_scenario")
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _replays=weakref.WeakKeyDictionary(), _scenario=None)


def _extractor_identity(extractor: Callable[[EvaluatedConfig], float]) -> str:
    """Stable, process-independent identity of an extractor callable.

    Module-level functions are identified by qualified name; other callables
    (frozen dataclasses such as :class:`ExpectedWaitExtractor`) by ``repr``,
    which for dataclasses encodes the class and every field value.  Plain
    ``repr`` of a function would embed a memory address and break
    fingerprints across processes.
    """
    if isinstance(extractor, (types.FunctionType, types.BuiltinFunctionType)):
        return f"{extractor.__module__}.{extractor.__qualname__}"
    return repr(extractor)


@dataclass(frozen=True)
class ObjectiveSpec:
    """One named search objective.

    Parameters
    ----------
    name:
        Column name in reports.
    extractor:
        Callable mapping an :class:`~repro.search.evaluation.EvaluatedConfig`
        to the raw objective value.  Must be picklable (a module-level
        function or a frozen-dataclass instance), because campaign cells ship
        their objectives to worker processes.
    direction:
        ``"min"`` or ``"max"``; internally every objective is minimised, so
        ``"max"`` values are negated at the boundary.
    """

    name: str
    extractor: Callable[[EvaluatedConfig], float]
    direction: str = "min"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("objective name must be non-empty")
        if self.direction not in _DIRECTIONS:
            raise ConfigurationError(
                f"objective direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if not callable(self.extractor):
            raise ConfigurationError(
                f"objective extractor must be callable, got {type(self.extractor).__name__}"
            )

    def raw_value(self, item: EvaluatedConfig) -> float:
        """The objective in its natural units (accuracy as accuracy, etc.)."""
        return float(self.extractor(item))

    def value(self, item: EvaluatedConfig) -> float:
        """The minimised objective value, with NaN mapped to ``+inf``.

        NaN from a degenerate extractor would otherwise silently poison
        sorting and domination checks (every comparison against NaN is
        false); mapping it to ``inf`` makes "undefined" deterministically
        worst.
        """
        raw = self.raw_value(item)
        if math.isnan(raw):
            return float("inf")
        return -raw if self.direction == "max" else raw

    def describe(self) -> str:
        """Canonical one-line identity used in checkpoint fingerprints."""
        return f"{self.name}:{self.direction}:{_extractor_identity(self.extractor)}"


@dataclass(frozen=True)
class ObjectiveSet:
    """The ordered, named objectives one search minimises jointly.

    The set is what gets threaded through the stack: Pareto analysis and
    NSGA-II ranking read :meth:`values` / :meth:`matrix`, reports render one
    column per name, and campaign checkpoints embed :meth:`describe` so a
    changed set re-runs exactly the affected cells.

    Each spec's ``(extractor, direction == "max")`` pair is read off once,
    into ``_readers``, so :meth:`values` calls the extractors without a
    lookup on every spec.  ``_readers`` is out of ``repr``, equality and the
    pickled state; an unpickled or copied set rebuilds it from its own specs.
    A set can be hashed when all of its extractors can (a measured set's
    extractor hashes by the fields it compares).  Compare sets with ``==`` or
    by :meth:`fingerprint`.
    """

    specs: Tuple[ObjectiveSpec, ...]

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        object.__setattr__(self, "specs", specs)
        if not specs:
            raise ConfigurationError("an ObjectiveSet needs at least one objective")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"objective names must be unique, got {names}")
        self._bind_readers()

    def _bind_readers(self) -> None:
        readers = tuple((spec.extractor, spec.direction == "max") for spec in self.specs)
        object.__setattr__(self, "_readers", readers)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_readers"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_readers()

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[ObjectiveSpec]:
        return iter(self.specs)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def values(self, item: EvaluatedConfig) -> Tuple[float, ...]:
        """Minimised objective vector of one candidate.

        Entry ``k`` is ``specs[k].value(item)``, read off the spec's
        extractor and direction directly: each extractor is called once, in
        spec order, its result taken through ``float``, NaN mapped to
        ``+inf`` and a ``"max"`` objective negated, so a row holds no NaN
        and rows compare totally as tuples.  Nothing is memoised: every call
        reads every extractor again.  :func:`~repro.search.pareto.pareto_front`
        reads each candidate once, except under a
        :class:`MeasuredWaitExtractor`, whose every read is one counted
        serving-cache lookup, so its front keeps the pairwise reads.
        """
        row = []
        for extractor, maximise in self._readers:
            raw = float(extractor(item))
            if raw != raw:
                raw = math.inf
            elif maximise:
                raw = -raw
            row.append(raw)
        return tuple(row)

    def matrix(self, evaluated: Sequence[EvaluatedConfig]) -> np.ndarray:
        """Stack :meth:`values` rows for NSGA-II's non-dominated sorting.

        One row per candidate and one column per objective, so no candidates
        give shape ``(0, len(self))``.
        """
        rows = [self.values(item) for item in evaluated]
        return np.array(rows, dtype=float).reshape(len(rows), len(self.specs))

    def describe(self) -> str:
        """Canonical identity string (stable across processes and runs)."""
        return " | ".join(spec.describe() for spec in self.specs)

    def fingerprint(self) -> str:
        """Short digest of :meth:`describe` for checkpoint records."""
        return hashlib.sha256(self.describe().encode("utf-8")).hexdigest()[:16]


#: The historical axes: minimise latency and energy, maximise accuracy.
_LATENCY_SPEC = ObjectiveSpec(name="latency_ms", extractor=_latency_extractor)
_ENERGY_SPEC = ObjectiveSpec(name="energy_mj", extractor=_energy_extractor)
_ACCURACY_SPEC = ObjectiveSpec(
    name="accuracy", extractor=_accuracy_extractor, direction="max"
)

DEFAULT_OBJECTIVES = ObjectiveSet(specs=(_LATENCY_SPEC, _ENERGY_SPEC, _ACCURACY_SPEC))


def default_objective_set() -> ObjectiveSet:
    """The (latency, energy, accuracy) set, byte-identical to the seed keys."""
    return DEFAULT_OBJECTIVES


def serving_objectives(
    family=None, target_rps: Optional[float] = None
) -> ObjectiveSet:
    """Default axes plus the M/D/1 expected wait at the family's peak rate.

    Turns the PR-7 queueing helpers into a fourth search objective: NSGA-II
    then trades latency/energy/accuracy against how gracefully a mapping
    absorbs the offered load, instead of discovering saturation only when the
    serving campaign replays traffic afterwards.

    Parameters
    ----------
    family:
        A :class:`~repro.serving.families.WorkloadFamily`; its
        ``peak_rate_rps`` sets the rate the wait is evaluated at.
    target_rps:
        Explicit rate in requests/s, overriding (or replacing) the family.
    """
    if target_rps is None:
        if family is None:
            raise ConfigurationError(
                "serving_objectives needs a workload family or an explicit target_rps"
            )
        target_rps = family.peak_rate_rps
    rate = float(target_rps)
    if not rate > 0.0:
        raise ConfigurationError(f"target_rps must be positive, got {target_rps}")
    wait_spec = ObjectiveSpec(
        name="expected_wait_ms", extractor=ExpectedWaitExtractor(rate_rps=rate)
    )
    return ObjectiveSet(specs=DEFAULT_OBJECTIVES.specs + (wait_spec,))


def measured_serving_objectives(
    family,
    platform,
    duration_ms: float = 400.0,
    seed: int = 0,
    members: int = 3,
    cache=None,
) -> ObjectiveSet:
    """Default axes plus the *measured* queueing wait of a simulated replay.

    The other half of the serving-aware loop: where :func:`serving_objectives`
    scores candidates with the M/D/1 steady-state formula, this set replays
    the family's busiest member (:meth:`WorkloadFamily.peak_member
    <repro.serving.families.WorkloadFamily.peak_member>` under ``seed``)
    through the deterministic traffic simulator for every candidate NSGA-II
    evaluates, so the fourth objective reflects burst shapes and transient
    queue build-up the proxy cannot see.  A content-keyed
    :class:`~repro.serving.result_cache.ServingResultCache` makes each
    distinct deployment pay for exactly one replay across all generations
    and domination checks.

    Parameters
    ----------
    family:
        A :class:`~repro.serving.families.WorkloadFamily`; its busiest member
        under ``seed`` becomes the replayed scenario.
    platform:
        The :class:`~repro.soc.platform.Platform` the deployment is simulated
        on (a measured wait, unlike the proxy, needs concrete hardware).
    duration_ms:
        Replay horizon per simulation; also the probe window for picking the
        peak member.  Short by design — the replay runs inside the search
        loop.
    seed:
        Campaign seed selecting the member parameters and traffic stream.
    members:
        How many family members to expand when probing for the peak.
    cache:
        Optional :class:`~repro.serving.result_cache.ServingResultCache`
        instance (or a compatible lookup/store wrapper such as
        :class:`~repro.serving.result_cache.ServingCacheRecorder`), or a path
        for a persistent one; defaults to a fresh in-memory cache private to
        this objective set.
    """
    from pathlib import Path as _Path

    from ..serving.families import WorkloadFamily
    from ..serving.result_cache import ServingResultCache

    if not isinstance(family, WorkloadFamily):
        raise ConfigurationError(
            f"measured_serving_objectives needs a WorkloadFamily, "
            f"got {type(family).__name__}"
        )
    if platform is None:
        raise ConfigurationError(
            "measured_serving_objectives needs a platform to simulate on"
        )
    if not float(duration_ms) > 0.0:
        raise ConfigurationError(f"duration_ms must be positive, got {duration_ms}")
    if cache is None:
        cache = ServingResultCache()
    elif isinstance(cache, (str, _Path)):
        cache = ServingResultCache(path=cache)
    _, workload, traffic_seed = family.peak_member(
        int(seed), int(members), probe_ms=float(duration_ms)
    )
    wait_spec = ObjectiveSpec(
        name="measured_wait_ms",
        extractor=MeasuredWaitExtractor(
            platform=platform,
            workload=workload,
            traffic_seed=traffic_seed,
            duration_ms=float(duration_ms),
            family_name=family.name,
            cache=cache,
        ),
    )
    return ObjectiveSet(specs=DEFAULT_OBJECTIVES.specs + (wait_spec,))


@dataclass(frozen=True)
class MeasuredObjectives:
    """Picklable per-cell factory for measured serving objective sets.

    A campaign cannot take a ready-made
    :func:`measured_serving_objectives` set: the set binds one concrete
    platform (the extractor simulates on it), while a campaign fans the same
    search out across a *grid* of platforms.  This factory carries the
    platform-independent half of the recipe — family, replay budget, member
    count, optional seed override — and each cell calls :meth:`bind` with its
    own platform (and the campaign seed and shared result cache) at fan-out
    time.  Frozen and pickle-friendly, so it ships inside cell tasks to
    process-pool workers unchanged.

    Parameters
    ----------
    family:
        The :class:`~repro.serving.families.WorkloadFamily` whose busiest
        member becomes every cell's replayed scenario.
    duration_ms:
        Replay horizon per simulation (also the peak-member probe window).
    members:
        Family members expanded when probing for the peak.
    seed:
        Optional override; ``None`` (default) binds with the campaign seed,
        keeping the measured replays aligned with the serving-cell replays so
        the shared cache can reuse search-time entries.
    """

    family: object
    duration_ms: float = 400.0
    members: int = 3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        from ..serving.families import WorkloadFamily

        if not isinstance(self.family, WorkloadFamily):
            raise ConfigurationError(
                f"MeasuredObjectives needs a WorkloadFamily, "
                f"got {type(self.family).__name__}"
            )
        if not float(self.duration_ms) > 0.0:
            raise ConfigurationError(
                f"duration_ms must be positive, got {self.duration_ms}"
            )
        if int(self.members) < 1:
            raise ConfigurationError(f"members must be >= 1, got {self.members}")

    def bind(self, platform, seed: Optional[int] = None, cache=None) -> ObjectiveSet:
        """The cell-level set: :func:`measured_serving_objectives` on ``platform``.

        ``seed`` is the campaign seed (ignored when the factory carries its
        own); ``cache`` is the cell's view of the shared
        :class:`~repro.serving.result_cache.ServingResultCache`.  The bound
        set's ``fingerprint()``/``describe()`` cover platform, workload
        member, traffic seed and duration — the cache deliberately does not
        participate in the identity.
        """
        effective = self.seed if self.seed is not None else (0 if seed is None else seed)
        return measured_serving_objectives(
            self.family,
            platform,
            duration_ms=float(self.duration_ms),
            seed=int(effective),
            members=int(self.members),
            cache=cache,
        )


def as_objective_set(objectives) -> ObjectiveSet:
    """Coerce ``None`` / an ``ObjectiveSet`` / legacy key sequences.

    ``None`` resolves to the default set.  A sequence of plain callables (the
    seed's ``keys=`` convention: every key already minimised) is wrapped into
    anonymous specs so older call sites keep working.
    """
    if objectives is None:
        return DEFAULT_OBJECTIVES
    if isinstance(objectives, ObjectiveSet):
        return objectives
    if isinstance(objectives, ObjectiveSpec):
        return ObjectiveSet(specs=(objectives,))
    try:
        keys = tuple(objectives)
    except TypeError:
        raise ConfigurationError(
            f"objectives must be an ObjectiveSet or a sequence of callables, "
            f"got {type(objectives).__name__}"
        )
    specs = tuple(
        ObjectiveSpec(name=f"objective_{index}", extractor=key)
        for index, key in enumerate(keys)
    )
    return ObjectiveSet(specs=specs)
