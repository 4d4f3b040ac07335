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

Determinism: identical seed + scenario + policy replays the identical event
sequence; the exported JSONL trace is byte-identical across runs.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..soc.platform import Platform
from ..utils import as_rng, check_positive
from .policies import ServingPolicy
from .workload import Request

__all__ = ["RequestRecord", "ServingResult", "TrafficSimulator"]


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
class ServingResult:
    """Everything one simulation run produced.

    ``busy_ms`` maps compute-unit names to total occupied time;
    ``mean_in_flight`` is the time-averaged number of requests in the system
    (measured independently of per-request latencies, so Little's law
    ``L = lambda * W`` is a non-trivial consistency check of the event loop).
    """

    policy: str
    records: Tuple[RequestRecord, ...]
    duration_ms: float
    busy_ms: Mapping[str, float]
    mean_in_flight: float
    peak_in_flight: int

    @property
    def num_requests(self) -> int:
        """Number of completed requests."""
        return len(self.records)

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
    request: Request
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
            normalisation; defaults to the last completion time.
        """
        if not requests:
            raise ConfigurationError("cannot simulate an empty request stream")
        ordered = sorted(requests, key=lambda r: r.arrival_ms)
        grid = (np.arange(len(ordered)) + 0.5) / len(ordered)
        difficulties = as_rng(self._seed).permutation(grid).tolist()
        self.policy.reset()

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
        records: list = []

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
                request = ordered[request_index]
                deployment = self.policy.select(in_flight, now)
                if id(deployment) not in validated_deployments:
                    self._check_deployment_units(deployment)
                    validated_deployments[id(deployment)] = deployment
                difficulty = difficulties[request_index]
                exit_stage = deployment.exit_stage(difficulty)
                state = _RequestState(
                    index=request_index,
                    request=request,
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
                    records.append(self._finish(state))
                if queues[unit]:
                    start_task(unit, queues[unit].popleft(), now)
                else:
                    busy[unit] = False

        makespan = last_event_ms
        horizon = makespan if duration_ms is None else max(float(duration_ms), makespan)
        mean_in_flight = in_flight_area / horizon if horizon > 0 else 0.0
        records.sort(key=lambda record: record.index)
        return ServingResult(
            policy=self.policy.name,
            records=tuple(records),
            duration_ms=horizon,
            busy_ms=dict(busy_ms),
            mean_in_flight=mean_in_flight,
            peak_in_flight=peak_in_flight,
        )

    # -- internals ---------------------------------------------------------------
    def _check_deployment_units(self, deployment) -> None:
        for name in deployment.unit_names:
            if name not in self.platform.unit_names:
                raise ConfigurationError(
                    f"deployment {deployment.name!r} maps a stage to unknown "
                    f"compute unit {name!r} on platform {self.platform.name!r}"
                )

    def _finish(self, state: _RequestState) -> RequestRecord:
        latency = state.completion_ms - state.request.arrival_ms
        deadline = (
            state.request.deadline_ms
            if state.request.deadline_ms is not None
            else self.deadline_ms
        )
        return RequestRecord(
            index=state.index,
            tenant=state.request.tenant,
            arrival_ms=state.request.arrival_ms,
            completion_ms=state.completion_ms,
            latency_ms=latency,
            service_ms=state.critical_service_ms,
            queueing_ms=latency - state.critical_service_ms,
            exit_stage=state.exit_stage,
            num_stages=state.exit_stage + 1,
            deployment=state.deployment_name,
            correct=state.correct,
            energy_mj=state.energy_mj,
            deadline_ms=deadline,
            deadline_missed=deadline is not None and latency > deadline,
        )
