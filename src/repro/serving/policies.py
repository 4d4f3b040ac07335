"""Runtime serving policies: which mapping (and DVFS point) serves a request.

A :class:`Deployment` is the serving-time distillation of one searched
mapping: per-stage service times, energies and exit accuracies on named
compute units.  Policies pick a deployment per request from the live load:

* :class:`StaticPolicy` -- one fixed mapping (the paper's implicit model),
* :class:`AdaptiveSwitchPolicy` -- swaps between two Pareto points when the
  number of in-flight requests crosses hysteresis watermarks (an
  energy-oriented mapping in calm traffic, a latency-oriented one in surges),
* :class:`DvfsGovernorPolicy` -- keeps the mapping but walks a ladder of
  DVFS operating points, built on the existing :class:`~repro.soc.dvfs.DvfsTable`
  and :class:`~repro.soc.dvfs.PowerModel` (race-to-idle under load, slow and
  frugal when the queue drains).

Policies are deliberately state-machine simple so their decisions are
reproducible and unit-testable in isolation from the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..soc.platform import Platform
from ..utils import (
    _check_int,
    _left_sum,
    check_fraction,
    check_non_negative,
    check_positive,
    check_stage_accuracies,
)

__all__ = [
    "Deployment",
    "ServingPolicy",
    "StaticPolicy",
    "AdaptiveSwitchPolicy",
    "DvfsGovernorPolicy",
    "rescale_deployment",
    "POLICY_KINDS",
    "build_policy",
]

#: Policy kinds a serving campaign can sweep (`policies=` axis); "static"
#: is the baseline every adaptivity comparison is made against.
POLICY_KINDS = ("static", "switcher", "dvfs-governor")


@dataclass(frozen=True)
class Deployment:
    """One servable mapping: per-stage cost and exit behaviour.

    The fields mirror what :class:`~repro.perf.evaluator.HardwareProfile` and
    the exit statistics provide for a searched configuration; requests
    terminating at stage ``i`` occupy the compute units of stages ``0..i``
    (the concurrent-execution model of Eq. 13) and pay the cumulative energy
    of those stages (Eq. 14).
    """

    name: str
    unit_names: Tuple[str, ...]
    service_ms: Tuple[float, ...]
    energy_mj: Tuple[float, ...]
    stage_accuracies: Tuple[float, ...]
    dvfs_scales: Tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = {
            len(self.unit_names),
            len(self.service_ms),
            len(self.energy_mj),
            len(self.stage_accuracies),
            len(self.dvfs_scales),
        }
        if len(lengths) != 1 or not self.unit_names:
            raise ConfigurationError("per-stage tuples must be non-empty and equal-length")
        for value in self.service_ms:
            check_positive(value, "service_ms")
        for value in self.energy_mj:
            check_positive(value, "energy_mj")
        check_stage_accuracies(self.stage_accuracies)
        for value in self.dvfs_scales:
            check_fraction(value, "dvfs scale", allow_zero=False)

    @property
    def num_stages(self) -> int:
        """Number of inference stages."""
        return len(self.unit_names)

    def exit_stage(self, difficulty: float) -> int:
        """Stage a request of latent ``difficulty`` exits at (see :meth:`exit_stages`)."""
        return int(self.exit_stages((difficulty,))[0])

    def exit_stages(self, difficulties: Sequence[float]) -> np.ndarray:
        """Stage each request of latent difficulty exits at, ideally (Sect. III-B).

        The first stage whose accuracy is ``>= difficulty`` (the first that
        classifies it), else the last stage, which answers wrongly.  A
        first-match scan, not a bisection: accuracies may dip by up to 1e-9.
        """
        difficulties = np.asarray(difficulties, dtype=float)
        last = len(self.stage_accuracies) - 1
        stages = np.full(difficulties.shape, last)
        # Latest stage first, so each request ends on the first that covers it.
        for stage in range(last - 1, -1, -1):
            stages[difficulties <= self.stage_accuracies[stage]] = stage
        return stages

    def cumulative_latency_ms(self, stage: int) -> float:
        """Zero-contention latency when terminating at ``stage`` (Eq. 13)."""
        return max(self.service_ms[: stage + 1])

    def cumulative_energy_mj(self, stage: int) -> float:
        """Energy of instantiating stages up to ``stage`` (Eq. 14)."""
        return float(_left_sum(self.energy_mj[: stage + 1]))

    @property
    def bottleneck_service_ms(self) -> float:
        """Service time of the slowest stage: the capacity bound of the mapping."""
        return max(self.service_ms)

    def capacity_rps(self) -> float:
        """Worst-case sustainable throughput (requests/s) if every request
        instantiated all stages: the bottleneck unit admits one request per
        ``bottleneck_service_ms``."""
        return 1000.0 / self.bottleneck_service_ms

    @property
    def stage_visit_fractions(self) -> Tuple[float, ...]:
        """Fraction of requests instantiating each stage under ideal exits.

        Every request instantiates stage 0; stage ``i`` is only reached by
        requests no earlier exit could classify, i.e. a fraction
        ``1 - stage_accuracies[i - 1]``.
        """
        return (1.0,) + tuple(1.0 - acc for acc in self.stage_accuracies[:-1])

    @property
    def bottleneck_busy_ms(self) -> float:
        """Expected bottleneck occupancy per request under ideal exits.

        Compute unit ``i`` is busy ``service_ms[i]`` only for the fraction of
        requests that actually reach stage ``i``, so the serving bottleneck
        is ``max_i service_ms[i] * visit_fraction[i]`` -- often the *first*
        stage, which every request pays, rather than the slowest one.
        """
        return max(
            service * visit
            for service, visit in zip(self.service_ms, self.stage_visit_fractions)
        )

    def effective_capacity_rps(self, max_wait_ms: Optional[float] = None) -> float:
        """Sustainable throughput accounting for early exits and queueing.

        With ``max_wait_ms=None`` this is the saturation throughput: the
        bottleneck unit admits one request per :attr:`bottleneck_busy_ms`.
        Passing a waiting-time budget instead returns the M/G/1-style
        *headroom* capacity — the highest Poisson arrival rate at which the
        mean queueing delay predicted by :meth:`expected_wait_ms` stays
        within the budget.  With deterministic per-stage service (M/D/1,
        ``W = rho * S / (2 (1 - rho))``) that bound solves to
        ``rho <= 2 W / (S + 2 W)``, so the headroom capacity is the
        saturation capacity scaled by that utilisation cap.  Routers use it
        to estimate how much load an instance can absorb *without running a
        simulator*.
        """
        base = 1000.0 / self.bottleneck_busy_ms
        if max_wait_ms is None:
            return base
        check_positive(max_wait_ms, "max_wait_ms")
        rho_cap = 2.0 * max_wait_ms / (self.bottleneck_busy_ms + 2.0 * max_wait_ms)
        return base * rho_cap

    def expected_wait_ms(self, rate_rps: float) -> float:
        """M/G/1 mean queueing delay at the bottleneck under Poisson arrivals.

        The bottleneck unit sees deterministic service of
        :attr:`bottleneck_busy_ms` per admitted request (early exits folded
        into the visit fraction), so the Pollaczek-Khinchine mean wait
        reduces to the M/D/1 form ``W = rho * S / (2 (1 - rho))`` with
        ``rho = rate * S``.  Returns ``inf`` at or beyond saturation — the
        queue has no steady state there.  This is the cheap queueing
        approximation the fleet routers (and serving-aware selection) use in
        place of a full simulation.
        """
        check_non_negative(rate_rps, "rate_rps")
        busy_ms = self.bottleneck_busy_ms
        rho = rate_rps * busy_ms / 1000.0
        if rho >= 1.0:
            return float("inf")
        return rho * busy_ms / (2.0 * (1.0 - rho))

    @property
    def expected_energy_per_request_mj(self) -> float:
        """Mean energy of one request under ideal exits.

        Stage ``i``'s energy is only paid by the fraction of requests that
        instantiate it, so the expectation is the visit-weighted sum -- the
        number an energy-aware router compares across heterogeneous
        instances.
        """
        return float(
            _left_sum(
                energy * visit
                for energy, visit in zip(self.energy_mj, self.stage_visit_fractions)
            )
        )

    @classmethod
    def from_evaluated(cls, evaluated, name: Optional[str] = None) -> "Deployment":
        """Distil a searched :class:`~repro.search.evaluation.EvaluatedConfig`.

        Accepts anything exposing ``profile`` (a
        :class:`~repro.perf.evaluator.HardwareProfile`) and ``inference``
        (whose exit statistics carry the stage accuracies).
        """
        profile = evaluated.profile
        accuracies = evaluated.inference.exit_statistics.stage_accuracies
        return cls(
            name=name if name is not None else evaluated.config.describe(),
            unit_names=tuple(stage.unit_name for stage in profile.stages),
            service_ms=tuple(stage.latency_ms for stage in profile.stages),
            energy_mj=tuple(stage.energy_mj for stage in profile.stages),
            stage_accuracies=tuple(accuracies),
            dvfs_scales=tuple(stage.dvfs_scale for stage in profile.stages),
        )


def rescale_deployment(
    deployment: Deployment, platform: Platform, target_scale: float
) -> Deployment:
    """Re-derive a deployment at a different DVFS operating point.

    Each stage snaps ``target_scale`` to the nearest point of its unit's
    :class:`~repro.soc.dvfs.DvfsTable`.  Service time scales as
    ``theta_ref / theta`` (the compute-bound model of Eq. 10's surroundings)
    and energy follows the unit's linear :class:`~repro.soc.dvfs.PowerModel`:
    ``E' = E * (theta_ref / theta) * P(theta) / P(theta_ref)``, so the
    profiled numbers are recovered exactly at the reference point.
    """
    check_fraction(target_scale, "target_scale", allow_zero=False)
    services = []
    energies = []
    scales = []
    for unit_name, service, energy, reference_scale in zip(
        deployment.unit_names,
        deployment.service_ms,
        deployment.energy_mj,
        deployment.dvfs_scales,
    ):
        unit = platform.unit(unit_name)
        scale = unit.dvfs.scale(unit.dvfs.nearest_index(target_scale))
        slowdown = reference_scale / scale
        power_ratio = unit.power.power_w(scale) / unit.power.power_w(reference_scale)
        services.append(service * slowdown)
        energies.append(energy * slowdown * power_ratio)
        scales.append(scale)
    return replace(
        deployment,
        name=f"{deployment.name}@theta={target_scale:.2f}",
        service_ms=tuple(services),
        energy_mj=tuple(energies),
        dvfs_scales=tuple(scales),
    )


def build_policy(
    kind: str,
    winner: Deployment,
    platform: Platform,
    front: Tuple[Deployment, ...] = (),
) -> "ServingPolicy":
    """Instantiate one campaign policy kind over a cell's deployed front.

    ``winner`` is the best *static* deployment for the scenario (the member
    ``rank_under_traffic`` selected); ``front`` is the full set of deployed
    front members the adaptive policies may switch between.  Construction is
    a pure function of its arguments, so serial, cell-parallel and resumed
    campaigns build byte-identical policies:

    * ``"static"`` serves every request with ``winner``;
    * ``"switcher"`` hysteresis-switches between the front's most energy
      frugal member (calm) and its highest-capacity member (surge), ties
      broken by deployment name;
    * ``"dvfs-governor"`` walks ``winner`` up and down its platform's DVFS
      ladder with the load.
    """
    if kind == "static":
        return StaticPolicy(winner)
    if kind == "switcher":
        pool = tuple(front) if front else (winner,)
        calm = min(pool, key=lambda d: (d.expected_energy_per_request_mj, d.name))
        surge = min(pool, key=lambda d: (d.bottleneck_busy_ms, d.name))
        return AdaptiveSwitchPolicy(calm, surge)
    if kind == "dvfs-governor":
        return DvfsGovernorPolicy(winner, platform)
    raise ConfigurationError(
        f"unknown policy kind {kind!r}; expected one of {list(POLICY_KINDS)}"
    )


def _watermarks(high_watermark, low_watermark) -> Tuple[int, int]:
    """The checked ``(high, low)`` in-flight watermarks of a load-driven policy."""
    high = _check_int(high_watermark, "high_watermark")
    low = _check_int(low_watermark, "low_watermark")
    if low < 0 or high <= low:
        raise ConfigurationError(
            f"need high_watermark > low_watermark >= 0, got {high} / {low}"
        )
    return high, low


class ServingPolicy:
    """Base class: maps live queue state to the deployment serving a request."""

    name: str = "policy"

    def reset(self) -> None:
        """Clear any hysteresis state before a fresh simulation run."""

    def select(self, queue_depth: int, now_ms: float) -> Deployment:
        """Pick the deployment for a request arriving at ``now_ms`` while
        ``queue_depth`` requests are already in flight."""
        raise NotImplementedError


class StaticPolicy(ServingPolicy):
    """Always serve with one fixed deployment (the paper's implicit model).

    :class:`~repro.serving.simulator.TrafficSimulator` asks this class's own
    :meth:`select` once per run and tracks no load for it; a subclass that
    overrides :meth:`select`, or a wrapper set on the class or an instance,
    is asked at every arrival like any other policy.
    """

    def __init__(self, deployment: Deployment, name: Optional[str] = None) -> None:
        self.deployment = deployment
        self.name = name if name is not None else f"static({deployment.name})"

    def select(self, queue_depth: int, now_ms: float) -> Deployment:
        return self.deployment


class AdaptiveSwitchPolicy(ServingPolicy):
    """Hysteresis switch between a calm and a surge deployment.

    While calm, a request arriving with ``queue_depth >= high_watermark``
    flips the policy into surge mode (typically a latency-oriented Pareto
    point); it flips back to the calm (energy-oriented) deployment only once
    the depth has drained to ``low_watermark``.  The dead band between the
    watermarks prevents flapping on every queue oscillation.
    """

    def __init__(
        self,
        calm: Deployment,
        surge: Deployment,
        high_watermark: int = 8,
        low_watermark: int = 2,
        name: Optional[str] = None,
    ) -> None:
        self.high_watermark, self.low_watermark = _watermarks(high_watermark, low_watermark)
        self.calm = calm
        self.surge = surge
        self.name = name if name is not None else "adaptive-switch"
        self.switches = 0
        self._surging = False

    def reset(self) -> None:
        self._surging = False
        self.switches = 0

    @property
    def surging(self) -> bool:
        """Whether the policy is currently in surge mode."""
        return self._surging

    def select(self, queue_depth: int, now_ms: float) -> Deployment:
        if not self._surging and queue_depth >= self.high_watermark:
            self._surging = True
            self.switches += 1
        elif self._surging and queue_depth <= self.low_watermark:
            self._surging = False
            self.switches += 1
        return self.surge if self._surging else self.calm


class DvfsGovernorPolicy(ServingPolicy):
    """Load-driven DVFS ladder over one mapping.

    The governor pre-computes the deployment at each rung of ``levels``
    (fractions of maximum frequency, snapped to each unit's
    :class:`~repro.soc.dvfs.DvfsTable`) via :func:`rescale_deployment`.  A
    request seeing ``queue_depth >= high_watermark`` steps the ladder one
    rung up; one seeing ``queue_depth <= low_watermark`` steps it back down
    -- the conservative one-rung-at-a-time walk mirrors interactive CPU
    governors and keeps decisions reproducible.
    """

    def __init__(
        self,
        deployment: Deployment,
        platform: Platform,
        levels: Tuple[float, ...] = (0.4, 0.6, 0.8, 1.0),
        high_watermark: int = 4,
        low_watermark: int = 1,
        name: Optional[str] = None,
    ) -> None:
        self.high_watermark, self.low_watermark = _watermarks(high_watermark, low_watermark)
        if not levels:
            raise ConfigurationError("the governor needs at least one DVFS level")
        ordered = tuple(sorted(check_fraction(f, "level", allow_zero=False) for f in levels))
        self.rungs = tuple(
            rescale_deployment(deployment, platform, fraction) for fraction in ordered
        )
        self.levels = ordered
        self.name = name if name is not None else f"dvfs-governor({deployment.name})"
        self._rung = 0

    def reset(self) -> None:
        self._rung = 0

    @property
    def rung(self) -> int:
        """Current ladder position (0 = slowest/frugal rung)."""
        return self._rung

    def select(self, queue_depth: int, now_ms: float) -> Deployment:
        if queue_depth >= self.high_watermark and self._rung < len(self.rungs) - 1:
            self._rung += 1
        elif queue_depth <= self.low_watermark and self._rung > 0:
            self._rung -= 1
        return self.rungs[self._rung]
