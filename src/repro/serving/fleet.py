"""Fleet-scale serving: heterogeneous instances behind a router + autoscaler.

One :class:`~repro.serving.simulator.TrafficSimulator` deploys one mapping on
one board; a production service runs a *fleet* — N instances across mixed zoo
platforms, each serving its own :class:`~repro.serving.policies.Deployment`
drawn from that platform's Pareto front.  This module simulates such fleets
deterministically on top of the single-board serving path:

1. **Routing pass** — the shared request stream (one seeded
   :class:`~repro.serving.workload.ArrivalProcess`) is walked in arrival
   order.  A pluggable :class:`FleetRouter` assigns every request to one
   *ready* instance using a fluid-backlog view of per-instance load (the
   M/G/1-style :meth:`~repro.serving.policies.Deployment.effective_capacity_rps`
   headroom estimate — no inner simulation), while an optional
   :class:`AutoscalerPolicy` boots instances up (paying a boot latency) and
   spins them down (saving their idle power) as the observed arrival rate
   swings.
2. **Replay pass** — each instance's assigned sub-stream is replayed by
   :func:`repro.serving.bridge.simulate_deployment` with the fleet's seed,
   so a fleet of one instance behind a round-robin router *is*
   single-instance serving, byte for byte.

Everything is seed-deterministic: routing consumes no randomness beyond the
request stream itself, and per-instance replays derive their seeds from
values only, so serial and cell-parallel fleet campaigns agree bit for bit.

Request conservation holds by construction: every generated request is
assigned to exactly one instance or dropped (load shedding / no ready
instance) exactly once — :func:`repro.serving.fleet_metrics.compute_fleet_metrics`
and the fleet invariants test suite check it end to end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..soc.platform import Platform
from ..utils import _check_int, _left_sum, check_fraction, check_positive
from .bridge import simulate_deployment
from .metrics import write_trace_jsonl
from .policies import Deployment
from .simulator import ServingResult
from .workload import ArrivalProcess, Request, _resolve_requests

__all__ = [
    "FleetInstance",
    "FleetRouter",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "DeadlineAwareRouter",
    "EnergyAwareRouter",
    "router_names",
    "get_router",
    "AutoscalerPolicy",
    "AutoscaleEvent",
    "InstanceOutcome",
    "FleetResult",
    "FleetSimulator",
    "simulate_fleet",
]


@dataclass(frozen=True)
class FleetInstance:
    """One servable instance: a deployment pinned to a platform.

    ``boot_ms`` is the cold-start latency the autoscaler pays before the
    instance can take traffic; ``idle_power_w`` is the static draw of the
    powered board (``None`` derives it from the platform: the sum of every
    compute unit's static power, the floor the linear Eq. 10 model charges
    whenever silicon is on).
    """

    name: str
    platform: Platform
    deployment: Deployment
    boot_ms: float = 250.0
    idle_power_w: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("instance name must be non-empty")
        check_positive(self.boot_ms, "boot_ms")
        if self.idle_power_w is not None:
            check_positive(self.idle_power_w, "idle_power_w")
        for unit_name in self.deployment.unit_names:
            if unit_name not in self.platform.unit_names:
                raise ConfigurationError(
                    f"instance {self.name!r}: deployment {self.deployment.name!r} maps "
                    f"a stage to unknown compute unit {unit_name!r} on platform "
                    f"{self.platform.name!r}"
                )

    @property
    def static_power_by_unit(self) -> Dict[str, float]:
        """Static draw (watts) of each compute unit while powered."""
        return {
            unit.name: unit.power.static_w for unit in self.platform.compute_units
        }

    def resolved_idle_power_w(self) -> float:
        """Idle draw of the whole powered instance (watts)."""
        if self.idle_power_w is not None:
            return self.idle_power_w
        return float(_left_sum(self.static_power_by_unit.values()))


class _RoutingView:
    """What a router may observe: per-instance fluid load and cost estimates.

    ``backlog_ms[i]`` is the estimated bottleneck work queued on instance
    ``i`` (each routed request adds its deployment's expected bottleneck
    occupancy; the backlog drains in real time) — a deterministic fluid
    stand-in for live queue depth that needs no inner simulation.
    """

    def __init__(self, instances: Sequence[FleetInstance], deadline_ms: Optional[float]):
        self.instances = tuple(instances)
        self.default_deadline_ms = deadline_ms
        self.busy_ms = tuple(
            instance.deployment.bottleneck_busy_ms for instance in self.instances
        )
        self.zero_load_latency_ms = tuple(
            instance.deployment.cumulative_latency_ms(instance.deployment.num_stages - 1)
            for instance in self.instances
        )
        self.energy_per_request_mj = tuple(
            instance.deployment.expected_energy_per_request_mj
            for instance in self.instances
        )
        self.backlog_ms = [0.0 for _ in self.instances]
        self._last_ms = 0.0

    def advance(self, now_ms: float) -> None:
        elapsed = now_ms - self._last_ms
        if elapsed > 0.0:
            self.backlog_ms = [max(0.0, backlog - elapsed) for backlog in self.backlog_ms]
            self._last_ms = now_ms

    def assign(self, index: int) -> None:
        self.backlog_ms[index] += self.busy_ms[index]

    def estimated_wait_ms(self, index: int) -> float:
        """Backlog plus one service: when a request routed now would finish."""
        return self.backlog_ms[index] + self.busy_ms[index]


class FleetRouter:
    """Base class: assigns each arriving request to one ready instance.

    Routers are deterministic state machines over the routing view — no
    randomness — so the same seed (hence the same request stream) always
    yields the same per-instance assignment, serially or inside campaign
    worker processes.
    """

    name: str = "router"

    def reset(self) -> None:
        """Clear any cursor/state before a fresh fleet run."""

    def route(
        self,
        request: Request,
        now_ms: float,
        ready: Sequence[int],
        view: _RoutingView,
    ) -> int:
        """Index (into the fleet's instance list) serving ``request``."""
        raise NotImplementedError


class RoundRobinRouter(FleetRouter):
    """Cycle through the ready instances in fleet order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def route(self, request, now_ms, ready, view) -> int:
        choice = ready[self._cursor % len(ready)]
        self._cursor += 1
        return choice


class LeastLoadedRouter(FleetRouter):
    """Send the request where it is estimated to finish queueing soonest.

    Headroom is judged from the fluid backlog plus one expected service, so a
    fast-but-busy instance loses to an idle slower one exactly when queueing
    says it should; ties break on fleet order.
    """

    name = "least-loaded"

    def route(self, request, now_ms, ready, view) -> int:
        return min(ready, key=lambda index: (view.estimated_wait_ms(index), index))


class DeadlineAwareRouter(FleetRouter):
    """Meet the deadline first, then spend as little energy as possible.

    The estimated completion of routing to instance ``i`` is its backlog plus
    the deployment's zero-load critical-path latency.  Among instances
    estimated to meet the request's deadline, the most energy-frugal wins;
    when none can, the earliest-finishing one takes the request (minimising
    the overshoot).  Requests without a deadline fall back to least-loaded
    behaviour.
    """

    name = "deadline-aware"

    def route(self, request, now_ms, ready, view) -> int:
        deadline = (
            request.deadline_ms
            if request.deadline_ms is not None
            else view.default_deadline_ms
        )

        def completion(index: int) -> float:
            return view.backlog_ms[index] + view.zero_load_latency_ms[index]

        if deadline is None:
            return min(ready, key=lambda index: (view.estimated_wait_ms(index), index))
        meeting = [index for index in ready if completion(index) <= deadline]
        if meeting:
            return min(meeting, key=lambda index: (view.energy_per_request_mj[index], index))
        return min(ready, key=lambda index: (completion(index), index))


class EnergyAwareRouter(FleetRouter):
    """Prefer the cheapest joules-per-request instance that still has headroom.

    An instance has headroom while its estimated backlog stays below
    ``max_backlog_requests`` expected services — i.e. while the M/G/1 view
    says its queue is short.  Among instances with headroom the lowest
    expected energy per request wins; when every ready instance is saturated
    the router degrades to least-loaded, trading joules for tail latency
    exactly when it must.
    """

    name = "energy-aware"

    def __init__(self, max_backlog_requests: float = 4.0) -> None:
        check_positive(max_backlog_requests, "max_backlog_requests")
        self.max_backlog_requests = float(max_backlog_requests)

    def route(self, request, now_ms, ready, view) -> int:
        with_headroom = [
            index
            for index in ready
            if view.backlog_ms[index] <= self.max_backlog_requests * view.busy_ms[index]
        ]
        if with_headroom:
            return min(
                with_headroom, key=lambda index: (view.energy_per_request_mj[index], index)
            )
        return min(ready, key=lambda index: (view.estimated_wait_ms(index), index))


#: The router registry: canonical name -> zero-argument factory.
_ROUTERS: Dict[str, Callable[[], FleetRouter]] = {
    "round-robin": RoundRobinRouter,
    "least-loaded": LeastLoadedRouter,
    "deadline-aware": DeadlineAwareRouter,
    "energy-aware": EnergyAwareRouter,
}


def router_names() -> Tuple[str, ...]:
    """Canonical names of every registered router, sorted."""
    return tuple(sorted(_ROUTERS))


def get_router(name: str) -> FleetRouter:
    """Build the registered router called ``name`` (case/separator-insensitive,
    exactly like :func:`repro.soc.presets.get_platform`)."""
    canonical = name.strip().lower().replace("_", "-").replace(" ", "-")
    factory = _ROUTERS.get(canonical)
    if factory is None:
        raise ConfigurationError(
            f"unknown fleet router {name!r}; registered routers: {list(router_names())}"
        )
    return factory()


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Reactive rate-based scaling of the powered instance set.

    Every ``decision_interval_ms`` the autoscaler compares the arrival rate
    observed over the trailing ``window_ms`` against the powered fleet's
    aggregate :meth:`~repro.serving.policies.Deployment.effective_capacity_rps`:

    * rate above ``target_utilisation`` x capacity boots the next powered-off
      instance (fleet order), which becomes ready ``boot_ms`` later;
    * rate below ``scale_down_utilisation`` x the capacity that would remain
      stops the highest-indexed powered instance (never below
      ``min_instances``), ending its idle-power draw.

    The dead band between the two thresholds prevents flapping, mirroring the
    hysteresis of the serving policies.
    """

    min_instances: int = 1
    max_instances: Optional[int] = None
    target_utilisation: float = 0.70
    scale_down_utilisation: float = 0.30
    decision_interval_ms: float = 200.0
    window_ms: float = 1000.0

    def __post_init__(self) -> None:
        # Stored as Python ints, so the bounds compared are the bounds used.
        object.__setattr__(self, "min_instances", _check_int(self.min_instances, "min_instances"))
        if self.max_instances is not None:
            object.__setattr__(
                self, "max_instances", _check_int(self.max_instances, "max_instances")
            )
        if self.min_instances < 1:
            raise ConfigurationError(
                f"min_instances must be >= 1, got {self.min_instances}"
            )
        if self.max_instances is not None and self.max_instances < self.min_instances:
            raise ConfigurationError(
                f"max_instances ({self.max_instances}) must be >= min_instances "
                f"({self.min_instances})"
            )
        check_fraction(self.target_utilisation, "target_utilisation", allow_zero=False)
        check_fraction(
            self.scale_down_utilisation, "scale_down_utilisation", allow_zero=False
        )
        if self.scale_down_utilisation >= self.target_utilisation:
            raise ConfigurationError(
                f"scale_down_utilisation ({self.scale_down_utilisation}) must lie below "
                f"target_utilisation ({self.target_utilisation}) to form a dead band"
            )
        check_positive(self.decision_interval_ms, "decision_interval_ms")
        check_positive(self.window_ms, "window_ms")


@dataclass(frozen=True)
class AutoscaleEvent:
    """One autoscaler action, for the fleet trace and examples."""

    time_ms: float
    action: str  # "boot" | "stop"
    instance: str
    active: int  # powered instances after the action


@dataclass(frozen=True)
class InstanceOutcome:
    """Everything one instance did during a fleet run.

    ``assigned`` holds the *global* indices (positions in the fleet's
    arrival-sorted stream) of the requests routed here, in arrival order —
    the k-th entry corresponds to the instance-local ``RequestRecord.index``
    ``k``.  ``result`` is ``None`` for instances that never received a
    request.
    """

    instance: FleetInstance
    assigned: Tuple[int, ...]
    result: Optional[ServingResult]
    up_ms: float
    boots: int

    @property
    def num_requests(self) -> int:
        """Requests served by this instance."""
        return len(self.assigned)

    def idle_energy_mj(self) -> float:
        """Static energy of powered-but-not-executing silicon (Eq. 10 floor).

        Each compute unit draws its static power for the instance's whole
        powered time minus the time it actually executed (execution energy
        already includes the static share).  With an explicit
        ``idle_power_w`` the whole draw is charged against the bottleneck
        occupancy instead.
        """
        if self.up_ms <= 0.0:
            return 0.0
        busy_ms = dict(self.result.busy_ms) if self.result is not None else {}
        if self.instance.idle_power_w is not None:
            busiest = max(busy_ms.values()) if busy_ms else 0.0
            return self.instance.idle_power_w * max(0.0, self.up_ms - busiest)
        return float(
            _left_sum(
                static_w * max(0.0, self.up_ms - busy_ms.get(unit_name, 0.0))
                for unit_name, static_w in self.instance.static_power_by_unit.items()
            )
        )

    def utilisation(self) -> float:
        """Bottleneck-unit busy fraction of the instance's powered time."""
        if self.result is None or self.up_ms <= 0.0:
            return 0.0
        return max(self.result.busy_ms.values()) / self.up_ms


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet simulation produced.

    ``assignments[k]`` is the instance index serving the k-th request of the
    arrival-sorted stream, or ``-1`` when it was dropped; ``requests`` is
    that sorted stream, so conservation (served + dropped == generated) is
    checkable directly.
    """

    router: str
    requests: Tuple[Request, ...]
    outcomes: Tuple[InstanceOutcome, ...]
    assignments: Tuple[int, ...]
    dropped: Tuple[int, ...]
    events: Tuple[AutoscaleEvent, ...]
    initial_active: int
    duration_ms: float

    @property
    def num_requests(self) -> int:
        """Served requests across the whole fleet."""
        return sum(outcome.num_requests for outcome in self.outcomes)

    @property
    def num_dropped(self) -> int:
        """Requests no ready instance could (or would) take."""
        return len(self.dropped)

    def records(self):
        """Fleet-wide request records, sorted by global index."""
        from .fleet_metrics import fleet_records

        return fleet_records(self)

    def metrics(self):
        """Aggregate fleet metrics (percentiles, joules, utilisation)."""
        from .fleet_metrics import compute_fleet_metrics

        return compute_fleet_metrics(self)

    def write_trace(self, path) -> None:
        """Export the per-request fleet trace as JSONL (byte-deterministic)."""
        write_trace_jsonl(self.records(), path)


@dataclass
class _InstanceState:
    """Mutable power/bookkeeping state of one instance during routing."""

    powered: bool = False
    ready_at_ms: float = 0.0
    up_since_ms: float = 0.0
    up_ms: float = 0.0
    boots: int = 0

    def power_on(self, now_ms: float, boot_ms: float) -> None:
        self.powered = True
        self.ready_at_ms = now_ms + boot_ms
        self.up_since_ms = now_ms
        self.boots += 1

    def power_off(self, now_ms: float) -> None:
        self.powered = False
        self.up_ms += now_ms - self.up_since_ms


class FleetSimulator:
    """Seedable simulator of a heterogeneous fleet behind one router.

    Parameters
    ----------
    instances:
        The fleet, in priority order (routers and the autoscaler break ties
        towards earlier instances; put the board you want serving the trough
        first).
    router:
        A registered router name (:func:`router_names`) or a ready
        :class:`FleetRouter` instance.
    autoscaler:
        ``None`` keeps every instance powered for the whole run; a policy
        starts ``min_instances`` warm at t=0 and scales within
        ``[min_instances, max_instances]`` as the observed rate swings.
    seed:
        Seed of the generated request stream and of every instance's replay
        (:func:`repro.serving.bridge.simulate_deployment`), so a fleet of one
        reproduces single-instance serving byte for byte.
    deadline_ms:
        Default relative deadline for requests not carrying one.
    shed_backlog_ms:
        Optional load-shedding bound: a request is dropped when every ready
        instance's estimated backlog exceeds it (``None`` never sheds).
    """

    def __init__(
        self,
        instances: Sequence[FleetInstance],
        router: Union[str, FleetRouter] = "round-robin",
        autoscaler: Optional[AutoscalerPolicy] = None,
        seed: int = 0,
        deadline_ms: Optional[float] = None,
        shed_backlog_ms: Optional[float] = None,
    ) -> None:
        if not instances:
            raise ConfigurationError("a fleet needs at least one instance")
        names = [instance.name for instance in instances]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"fleet instances must have distinct names, got {names}")
        self.instances = tuple(instances)
        self.router = get_router(router) if isinstance(router, str) else router
        if autoscaler is not None and autoscaler.min_instances > len(self.instances):
            raise ConfigurationError(
                f"min_instances ({autoscaler.min_instances}) exceeds the fleet size "
                f"({len(self.instances)})"
            )
        self.autoscaler = autoscaler
        self.seed = int(seed)
        if deadline_ms is not None:
            check_positive(deadline_ms, "deadline_ms")
        self.deadline_ms = deadline_ms
        if shed_backlog_ms is not None:
            check_positive(shed_backlog_ms, "shed_backlog_ms")
        self.shed_backlog_ms = shed_backlog_ms

    # -- public API --------------------------------------------------------------
    def run(
        self,
        workload: Union[ArrivalProcess, Sequence[Request]],
        duration_ms: Optional[float] = None,
    ) -> FleetResult:
        """Route and replay one request stream through the fleet."""
        requests = _resolve_requests(workload, duration_ms, self.seed)
        ordered = tuple(sorted(requests, key=lambda request: request.arrival_ms))

        assignments, dropped, events, states, initial_active = self._route(ordered)

        # Replay pass: each instance's sub-stream through single-board serving.
        per_instance: List[List[int]] = [[] for _ in self.instances]
        for global_index, instance_index in enumerate(assignments):
            if instance_index >= 0:
                per_instance[instance_index].append(global_index)
        results: List[Optional[ServingResult]] = [
            simulate_deployment(
                instance.deployment,
                instance.platform,
                [ordered[index] for index in assigned],
                duration_ms=duration_ms,
                seed=self.seed,
                deadline_ms=self.deadline_ms,
            )
            if assigned
            else None
            for instance, assigned in zip(self.instances, per_instance)
        ]

        horizon = max(
            [float(duration_ms) if duration_ms is not None else 0.0]
            + [result.duration_ms for result in results if result is not None]
            + [ordered[-1].arrival_ms]
        )
        # Close the books on instances still powered at the horizon.
        for state in states:
            if state.powered:
                state.power_off(horizon)

        outcomes = tuple(
            InstanceOutcome(
                instance=instance,
                assigned=tuple(per_instance[index]),
                result=results[index],
                up_ms=states[index].up_ms,
                boots=states[index].boots,
            )
            for index, instance in enumerate(self.instances)
        )
        return FleetResult(
            router=self.router.name,
            requests=ordered,
            outcomes=outcomes,
            assignments=tuple(assignments),
            dropped=tuple(dropped),
            events=tuple(events),
            initial_active=initial_active,
            duration_ms=horizon,
        )

    # -- internals ---------------------------------------------------------------
    def _route(self, ordered: Sequence[Request]):
        """The deterministic routing pass (no randomness consumed)."""
        view = _RoutingView(self.instances, self.deadline_ms)
        self.router.reset()
        states = [_InstanceState() for _ in self.instances]
        initial = (
            len(self.instances) if self.autoscaler is None else self.autoscaler.min_instances
        )
        for state in states[:initial]:
            state.powered = True  # warm at t=0: no boot latency, no boot count
        events: List[AutoscaleEvent] = []
        assignments: List[int] = []
        dropped: List[int] = []
        window: deque = deque()
        last_decision_ms = -float("inf")

        for global_index, request in enumerate(ordered):
            now = request.arrival_ms
            view.advance(now)
            if self.autoscaler is not None:
                window.append(now)
                cutoff = now - self.autoscaler.window_ms
                while window and window[0] < cutoff:
                    window.popleft()
                if now - last_decision_ms >= self.autoscaler.decision_interval_ms:
                    event = self._autoscale(now, window, states)
                    last_decision_ms = now
                    if event is not None:
                        events.append(event)
            ready = [
                index
                for index, state in enumerate(states)
                if state.powered and state.ready_at_ms <= now
            ]
            if self.shed_backlog_ms is not None:
                ready = [
                    index
                    for index in ready
                    if view.backlog_ms[index] <= self.shed_backlog_ms
                ]
            if not ready:
                assignments.append(-1)
                dropped.append(global_index)
                continue
            choice = self.router.route(request, now, ready, view)
            if choice not in ready:
                raise ConfigurationError(
                    f"router {self.router.name!r} picked instance index {choice}, "
                    f"which is not ready at t={now:.3f} ms"
                )
            assignments.append(choice)
            view.assign(choice)
        return assignments, dropped, events, states, initial

    def _autoscale(
        self, now: float, window: deque, states: List[_InstanceState]
    ) -> Optional[AutoscaleEvent]:
        policy = self.autoscaler
        rate_rps = 1000.0 * len(window) / policy.window_ms
        powered = [index for index, state in enumerate(states) if state.powered]
        capacity = _left_sum(
            self.instances[index].deployment.effective_capacity_rps() for index in powered
        )
        limit = (
            len(self.instances)
            if policy.max_instances is None
            else min(policy.max_instances, len(self.instances))
        )
        if rate_rps > policy.target_utilisation * capacity and len(powered) < limit:
            for index, state in enumerate(states):
                if not state.powered:
                    state.power_on(now, self.instances[index].boot_ms)
                    return AutoscaleEvent(
                        time_ms=now,
                        action="boot",
                        instance=self.instances[index].name,
                        active=len(powered) + 1,
                    )
        if len(powered) > policy.min_instances:
            candidate = powered[-1]
            remaining = capacity - self.instances[
                candidate
            ].deployment.effective_capacity_rps()
            if rate_rps < policy.scale_down_utilisation * remaining:
                states[candidate].power_off(now)
                return AutoscaleEvent(
                    time_ms=now,
                    action="stop",
                    instance=self.instances[candidate].name,
                    active=len(powered) - 1,
                )
        return None


def simulate_fleet(
    instances: Sequence[FleetInstance],
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float] = None,
    router: Union[str, FleetRouter] = "round-robin",
    autoscaler: Optional[AutoscalerPolicy] = None,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    shed_backlog_ms: Optional[float] = None,
) -> FleetResult:
    """One-call fleet simulation (the :func:`simulate_deployment` sibling)."""
    simulator = FleetSimulator(
        instances,
        router=router,
        autoscaler=autoscaler,
        seed=seed,
        deadline_ms=deadline_ms,
        shed_backlog_ms=shed_backlog_ms,
    )
    return simulator.run(workload, duration_ms=duration_ms)
