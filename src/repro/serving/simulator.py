"""Deterministic discrete-event simulation of mappings under traffic.

The paper evaluates each mapping on one sample at a time, under ideal input
mapping (Sect. III-B).  This module keeps the ideal exits and drops the
isolation: requests *contend*, every compute unit serves a FIFO queue, so the
latency a user sees is queueing delay plus service, not the isolated
per-sample makespan of Table II.  (The noisy runtime exit controller,
``ThresholdExitController.simulate``, is a separate Monte-Carlo study.)

Execution model
---------------
A request admitted at time ``t`` is assigned a deployment by the serving
policy (from the live queue depth) and exits where ideal input mapping puts
it: at :meth:`~repro.serving.policies.Deployment.exit_stage` of its latent
difficulty, the first stage whose accuracy covers that difficulty.  The
difficulties are a seeded permutation of an evenly spaced grid over
``(0, 1)``, so a trace's exit fractions match the ideal analysis almost
exactly at any trace length.

Under the paper's concurrent-execution model the instantiated stages
``S_1 .. S_i`` run in parallel on their (distinct) compute units, so the
request enqueues one task per instantiated stage at admission; each task
occupies its unit's FIFO queue for the stage's service time, and the request
completes when its last task does.  At zero contention this reproduces
Eq. 13/14 exactly: latency ``max_{k<=i} T_{S_k}``, energy ``E_{S_{1:i}}``.

Two replays implement the model, and they produce the same outputs float
for float:

* A :class:`~repro.serving.policies.StaticPolicy` serves every request with
  one deployment whatever the load, so each unit's queue is fed in (request,
  stage) order and the replay needs no event heap.  It runs the per-unit
  Lindley recursion ``done_k = max(arrival_k, done_{k-1}) + service_k`` on
  Python floats, then reads the in-flight statistics off the sorted arrival
  and task-completion times.
* Every other policy (the load-driven switcher and DVFS governor) reads the
  in-flight count at each arrival, so it replays through an event heap of
  arrivals and task completions, arrivals first at equal times.  That loop
  is also the reference the static replay is tested against.

Both write one :class:`RequestColumns` store, one tuple per
:class:`RequestRecord` field.  :func:`~repro.serving.metrics.compute_metrics`
reduces the columns directly, and :attr:`ServingResult.records` builds the
records only when something reads them (trace export, fleet pooling).

Determinism: identical seed + scenario + policy replays the identical event
sequence; the exported JSONL trace is byte-identical across runs.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..soc.platform import Platform
from ..utils import as_rng, check_positive
from .policies import ServingPolicy, StaticPolicy
from .workload import Request

__all__ = ["RequestRecord", "RequestColumns", "ServingResult", "TrafficSimulator"]


@dataclass(frozen=True)
class RequestRecord:
    """Trace entry for one completed request."""

    index: int
    tenant: str
    arrival_ms: float
    completion_ms: float
    latency_ms: float
    service_ms: float
    queueing_ms: float
    exit_stage: int
    num_stages: int
    deployment: str
    correct: bool
    energy_mj: float
    deadline_ms: Optional[float]
    deadline_missed: bool

    def to_json_dict(self) -> dict:
        """Flat JSON-serialisable view used by the JSONL trace export."""
        return {
            "index": self.index,
            "tenant": self.tenant,
            "arrival_ms": self.arrival_ms,
            "completion_ms": self.completion_ms,
            "latency_ms": self.latency_ms,
            "service_ms": self.service_ms,
            "queueing_ms": self.queueing_ms,
            "exit_stage": self.exit_stage,
            "num_stages": self.num_stages,
            "deployment": self.deployment,
            "correct": self.correct,
            "energy_mj": self.energy_mj,
            "deadline_ms": self.deadline_ms,
            "deadline_missed": self.deadline_missed,
        }


@dataclass(frozen=True)
class RequestColumns:
    """The per-request values of one replay, stored by column.

    One tuple per :class:`RequestRecord` field, with the same name and in the
    same order; row ``i`` across the tuples is record ``i``.
    """

    index: Tuple[int, ...]
    tenant: Tuple[str, ...]
    arrival_ms: Tuple[float, ...]
    completion_ms: Tuple[float, ...]
    latency_ms: Tuple[float, ...]
    service_ms: Tuple[float, ...]
    queueing_ms: Tuple[float, ...]
    exit_stage: Tuple[int, ...]
    num_stages: Tuple[int, ...]
    deployment: Tuple[str, ...]
    correct: Tuple[bool, ...]
    energy_mj: Tuple[float, ...]
    deadline_ms: Tuple[Optional[float], ...]
    deadline_missed: Tuple[bool, ...]

    @classmethod
    def from_records(cls, records: Sequence[RequestRecord]) -> "RequestColumns":
        """The columns of ``records``, rows in the given order."""
        names = [column.name for column in fields(cls)]
        if not records:
            return cls(*(() for _ in names))
        return cls(*zip(*[[getattr(record, name) for name in names] for record in records]))

    def records(self) -> Tuple[RequestRecord, ...]:
        """One :class:`RequestRecord` per row."""
        return tuple(map(RequestRecord, *(getattr(self, column.name) for column in fields(self))))


@dataclass(frozen=True)
class ServingResult:
    """Everything one simulation run produced.

    ``columns`` holds the per-request values; :attr:`records` turns them into
    :class:`RequestRecord` objects on first access and keeps them, so a
    replay that is only reduced to metrics never builds one.  ``busy_ms``
    maps compute-unit names to total occupied time; ``mean_in_flight`` is the
    time-averaged number of requests in the system (measured independently
    of per-request latencies, so Little's law ``L = lambda * W`` is a
    non-trivial consistency check of either replay).
    """

    policy: str
    columns: RequestColumns
    duration_ms: float
    busy_ms: Mapping[str, float]
    mean_in_flight: float
    peak_in_flight: int
    _records: Optional[Tuple[RequestRecord, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def records(self) -> Tuple[RequestRecord, ...]:
        """Per-request trace entries in request-index order."""
        if self._records is None:
            object.__setattr__(self, "_records", self.columns.records())
        return self._records

    @property
    def num_requests(self) -> int:
        """Number of completed requests."""
        return len(self.columns.index)

    def metrics(self):
        """Aggregate percentile/throughput/energy metrics for this run."""
        from .metrics import compute_metrics

        return compute_metrics(self)

    def write_trace(self, path) -> None:
        """Export the per-request trace as JSON lines (byte-deterministic)."""
        from .metrics import write_trace_jsonl

        write_trace_jsonl(self.records, path)


@dataclass
class _Task:
    """One stage of one in-flight request, queued on a compute unit."""

    state: "_RequestState"
    service_ms: float


@dataclass
class _RequestState:
    """Mutable bookkeeping of one admitted request."""

    index: int
    deployment_name: str
    exit_stage: int
    correct: bool
    energy_mj: float
    critical_service_ms: float
    remaining_tasks: int
    completion_ms: float = 0.0


class TrafficSimulator:
    """Seedable discrete-event simulator of one platform under a policy.

    Parameters
    ----------
    platform:
        The MPSoC; deployments returned by the policy must only name its
        compute units.
    policy:
        Serving policy choosing a deployment per request
        (:mod:`repro.serving.policies`).
    seed:
        Seed of the permutation that deals the evenly spaced difficulty grid
        out to the requests.
    deadline_ms:
        Default relative deadline applied to requests that do not carry one;
        ``None`` disables deadline accounting for those requests.
    """

    def __init__(
        self,
        platform: Platform,
        policy: ServingPolicy,
        *,
        seed: "int | np.random.Generator | None" = 0,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.platform = platform
        self.policy = policy
        self._seed = seed
        if deadline_ms is not None:
            check_positive(deadline_ms, "deadline_ms")
        self.deadline_ms = deadline_ms

    def run(
        self,
        requests: Sequence[Request],
        duration_ms: Optional[float] = None,
    ) -> ServingResult:
        """Play ``requests`` through the platform and return the full trace.

        Parameters
        ----------
        requests:
            The request stream (any order; sorted by arrival internally).
        duration_ms:
            Observation window used for throughput/utilisation
            normalisation, a positive finite number; defaults to the last
            completion time.  A window that ends before the last completion
            is extended to it.
        """
        if not requests:
            raise ConfigurationError("cannot simulate an empty request stream")
        if duration_ms is not None:
            check_positive(duration_ms, "duration_ms")
        ordered = sorted(requests, key=lambda r: r.arrival_ms)
        grid = (np.arange(len(ordered)) + 0.5) / len(ordered)
        difficulties = as_rng(self._seed).permutation(grid).tolist()
        self.policy.reset()

        # A StaticPolicy ignores the load, so it needs no event heap; any other
        # policy (a subclass too: it may override select) reads the in-flight
        # count at each arrival.
        replay = self._replay_static if type(self.policy) is StaticPolicy else self._replay_events
        columns, busy_ms, in_flight_area, peak_in_flight, makespan = replay(
            ordered, difficulties
        )
        horizon = makespan if duration_ms is None else max(float(duration_ms), makespan)
        return ServingResult(
            policy=self.policy.name,
            columns=columns,
            duration_ms=horizon,
            busy_ms=busy_ms,
            mean_in_flight=in_flight_area / horizon if horizon > 0 else 0.0,
            peak_in_flight=peak_in_flight,
        )

    # -- internals ---------------------------------------------------------------
    def _replay_static(self, ordered: Sequence[Request], difficulties: Sequence[float]):
        """One fixed deployment, replayed by the per-unit Lindley recursion.

        Returns what :meth:`_replay_events` returns, float for float.
        """
        deployment = self.policy.deployment
        self._check_deployment_units(deployment)
        stages = range(deployment.num_stages)
        service_at = [deployment.cumulative_latency_ms(stage) for stage in stages]
        energy_at = [deployment.cumulative_energy_mj(stage) for stage in stages]
        # As floats, so ``correct`` holds Python bools whatever the tuple holds.
        accuracy_at = [float(accuracy) for accuracy in deployment.stage_accuracies]
        slot_of = {name: slot for slot, name in enumerate(dict.fromkeys(deployment.unit_names))}
        # The tasks a request exiting at each stage queues, in stage order,
        # which is the order they join their units' FIFO queues.
        tasks_at = [
            tuple(
                (slot_of[deployment.unit_names[task]], deployment.service_ms[task])
                for task in range(stage + 1)
            )
            for stage in stages
        ]
        exit_stage = list(map(deployment.exit_stage, difficulties))
        arrival_ms = [request.arrival_ms for request in ordered]

        free_ms = [float("-inf")] * len(slot_of)
        busy = [0.0] * len(slot_of)
        completion_ms = []
        done_ms = []
        for arrival, stage in zip(arrival_ms, exit_stage):
            completion = 0.0
            for slot, service in tasks_at[stage]:
                free = free_ms[slot]
                # At a tie the unit is still busy (arrivals precede
                # completions), so the task starts at the previous completion.
                done = (arrival if arrival > free else free) + service
                free_ms[slot] = done
                busy[slot] += service
                done_ms.append(done)
                if done > completion:
                    completion = done
            completion_ms.append(completion)

        # The heap adds in_flight * (now - last) at every event, which is
        # exactly 0.0 at a repeated time: summing over the distinct arrival
        # and task-completion times in order gives the same float.  cumsum
        # adds left to right; np.sum's pairwise reduction would not.
        arrivals = np.array(arrival_ms, dtype=float)
        completions = np.sort(np.array(completion_ms, dtype=float))
        times = np.unique(np.concatenate((arrivals, np.array(done_ms, dtype=float))))
        in_flight = np.searchsorted(arrivals, times, "right") - np.searchsorted(
            completions, times, "right"
        )
        area = np.cumsum(in_flight[:-1] * np.diff(times))
        # An arrival precedes the completions at its own time, so request k
        # sees k + 1 arrivals and the completions strictly before it.
        peak = np.arange(1, len(ordered) + 1) - np.searchsorted(completions, arrivals, "left")

        busy_ms = {name: 0.0 for name in self.platform.unit_names}
        busy_ms.update({name: busy[slot] for name, slot in slot_of.items()})
        columns = self._columns(
            ordered,
            arrival_ms=arrival_ms,
            completion_ms=completion_ms,
            service_ms=[service_at[stage] for stage in exit_stage],
            exit_stage=exit_stage,
            deployment=(deployment.name,) * len(ordered),
            correct=[
                difficulty <= accuracy_at[stage]
                for difficulty, stage in zip(difficulties, exit_stage)
            ],
            energy_mj=[energy_at[stage] for stage in exit_stage],
        )
        return (
            columns,
            busy_ms,
            float(area[-1]) if len(area) else 0.0,
            int(peak.max()),
            max(completion_ms),
        )

    def _replay_events(self, ordered: Sequence[Request], difficulties: Sequence[float]):
        """Any policy, replayed through an event heap (the reference loop).

        Returns ``(columns, busy_ms, in-flight area, peak in flight,
        makespan)``; the makespan is the time of the last event.
        """
        unit_names = self.platform.unit_names
        # Policies hand back the same few Deployment objects for the whole
        # run; validate each distinct one once instead of per arrival.  Keyed
        # by id with the object kept referenced, so a freed id can't alias.
        validated_deployments: Dict[int, object] = {}
        queues: Dict[str, deque] = {name: deque() for name in unit_names}
        busy: Dict[str, bool] = {name: False for name in unit_names}
        busy_ms: Dict[str, float] = {name: 0.0 for name in unit_names}

        # Event heap entries: (time_ms, sequence, kind, payload).  Arrivals are
        # pre-seeded with the lowest sequence numbers so simultaneous
        # arrival/completion ties resolve deterministically (arrival first).
        events: list = []
        for seq, request in enumerate(ordered):
            heapq.heappush(events, (request.arrival_ms, seq, "arrival", seq))
        next_seq = len(ordered)

        in_flight = 0
        peak_in_flight = 0
        in_flight_area = 0.0
        last_event_ms = 0.0
        finished: list = []

        def start_task(unit: str, task: _Task, now: float) -> None:
            nonlocal next_seq
            busy[unit] = True
            busy_ms[unit] += task.service_ms
            heapq.heappush(events, (now + task.service_ms, next_seq, "done", (unit, task)))
            next_seq += 1

        while events:
            now, _, kind, payload = heapq.heappop(events)
            in_flight_area += in_flight * (now - last_event_ms)
            last_event_ms = now

            if kind == "arrival":
                request_index = payload
                deployment = self.policy.select(in_flight, now)
                if id(deployment) not in validated_deployments:
                    self._check_deployment_units(deployment)
                    validated_deployments[id(deployment)] = deployment
                difficulty = difficulties[request_index]
                exit_stage = deployment.exit_stage(difficulty)
                state = _RequestState(
                    index=request_index,
                    deployment_name=deployment.name,
                    exit_stage=exit_stage,
                    correct=bool(difficulty <= deployment.stage_accuracies[exit_stage]),
                    energy_mj=deployment.cumulative_energy_mj(exit_stage),
                    critical_service_ms=deployment.cumulative_latency_ms(exit_stage),
                    remaining_tasks=exit_stage + 1,
                )
                in_flight += 1
                peak_in_flight = max(peak_in_flight, in_flight)
                for stage in range(exit_stage + 1):
                    unit = deployment.unit_names[stage]
                    task = _Task(state=state, service_ms=deployment.service_ms[stage])
                    if busy[unit]:
                        queues[unit].append(task)
                    else:
                        start_task(unit, task, now)
            else:  # "done"
                unit, task = payload
                state = task.state
                state.remaining_tasks -= 1
                state.completion_ms = max(state.completion_ms, now)
                if state.remaining_tasks == 0:
                    in_flight -= 1
                    finished.append(state)
                if queues[unit]:
                    start_task(unit, queues[unit].popleft(), now)
                else:
                    busy[unit] = False

        finished.sort(key=lambda state: state.index)
        columns = self._columns(
            ordered,
            arrival_ms=[request.arrival_ms for request in ordered],
            completion_ms=[state.completion_ms for state in finished],
            service_ms=[state.critical_service_ms for state in finished],
            exit_stage=[state.exit_stage for state in finished],
            deployment=[state.deployment_name for state in finished],
            correct=[state.correct for state in finished],
            energy_mj=[state.energy_mj for state in finished],
        )
        return columns, dict(busy_ms), in_flight_area, peak_in_flight, last_event_ms

    def _columns(
        self,
        ordered: Sequence[Request],
        *,
        arrival_ms: Sequence[float],
        completion_ms: Sequence[float],
        service_ms: Sequence[float],
        exit_stage: Sequence[int],
        deployment: Sequence[str],
        correct: Sequence[bool],
        energy_mj: Sequence[float],
    ) -> RequestColumns:
        """The request store both replays write, rows in request-index order."""
        latency_ms = [done - arrival for done, arrival in zip(completion_ms, arrival_ms)]
        default = self.deadline_ms
        deadline_ms = [
            default if request.deadline_ms is None else request.deadline_ms
            for request in ordered
        ]
        return RequestColumns(
            index=tuple(range(len(ordered))),
            tenant=tuple([request.tenant for request in ordered]),
            arrival_ms=tuple(arrival_ms),
            completion_ms=tuple(completion_ms),
            latency_ms=tuple(latency_ms),
            service_ms=tuple(service_ms),
            queueing_ms=tuple(
                [latency - service for latency, service in zip(latency_ms, service_ms)]
            ),
            exit_stage=tuple(exit_stage),
            num_stages=tuple([stage + 1 for stage in exit_stage]),
            deployment=tuple(deployment),
            correct=tuple(correct),
            energy_mj=tuple(energy_mj),
            deadline_ms=tuple(deadline_ms),
            deadline_missed=tuple(
                [
                    deadline is not None and latency > deadline
                    for latency, deadline in zip(latency_ms, deadline_ms)
                ]
            ),
        )

    def _check_deployment_units(self, deployment) -> None:
        for name in deployment.unit_names:
            if name not in self.platform.unit_names:
                raise ConfigurationError(
                    f"deployment {deployment.name!r} maps a stage to unknown "
                    f"compute unit {name!r} on platform {self.platform.name!r}"
                )
