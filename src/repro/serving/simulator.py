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

One replay implements the model for every policy.  A policy reads only
``(in_flight, now)``, and only at arrivals, and whichever deployment a
request gets, its tasks join their units' FIFO queues in (request, stage)
order.  So each task follows the per-unit Lindley recursion
``done = max(arrival, free) + service`` on Python floats, with ``free`` the
completion of the unit's previous task.  Arrivals precede completions at
equal times, so at arrival ``k`` the in-flight count is ``k`` minus the
admitted requests that completed strictly before it.  A policy that reads
the load gets that count from a min-heap of completion times.  A
:class:`~repro.serving.policies.StaticPolicy` (its own ``select``, not an
override or a wrapper) reads no load: its replay plans the one deployment
before the loop and runs the Lindley recursion alone.  Under every policy
the peak in flight is read off the sorted completions after the loop, since
no request completes before its own arrival, and the mean in flight from the
sorted arrival and task-completion times.  The ideal exits are decided once
per distinct accuracy tuple over all requests, and each distinct deployment
is planned once.  ``tests/`` keeps an event heap of arrivals and task completions as
the reference this replay is pinned against, float for float.

The replay hands over an unboxed :class:`RequestColumns` store that derives
each of its two forms on first read, both from one derivation of each
request's numbers as arrays: exit stage, correctness, service and energy
gathered from the plans that served it, latency as completion minus
arrival, queueing, and the deadline and its miss (no deadline reads as
NaN), each one elementwise IEEE operation.  The float block
:func:`~repro.serving.metrics.compute_metrics` reduces stacks seven of them;
the tuples (one per :class:`RequestRecord` field, as
:attr:`ServingResult.records` builds the records for trace export and fleet
pooling) hold their ``.tolist()`` values beside the requests' own arrivals,
deadlines and tenants and the loop's completions.  A replay that is only
reduced boxes nothing, and one that is only boxed derives no block.

Determinism: identical seed + scenario + policy replays the identical event
sequence; the exported JSONL trace is byte-identical across runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import accumulate
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..soc.platform import Platform
from ..utils import as_rng, check_positive
from .policies import Deployment, ServingPolicy, StaticPolicy
from .workload import Request

__all__ = ["RequestRecord", "RequestColumns", "ServingResult", "TrafficSimulator"]

#: ``StaticPolicy.select`` as defined at import: a policy whose bound select
#: is this function serves one deployment whatever the load.
_STATIC_SELECT = StaticPolicy.select


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

    A replay's store comes unboxed: it derives the float rows
    :func:`~repro.serving.metrics.compute_metrics` reduces
    (:meth:`_float_rows`) on their first read, and builds its tuples on
    theirs (trace export, fleet pooling, equality, ``repr``, pickling), so a
    replay that is only reduced to metrics boxes no value and one that is
    only boxed derives no block.  A store built from tuples is reduced from
    them.
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

    @classmethod
    def _unboxed(
        cls,
        count: int,
        rows: Callable[[], np.ndarray],
        box: Callable[[], "RequestColumns"],
    ) -> "RequestColumns":
        """A store of ``count`` rows whose float block ``rows()`` and tuples
        ``box()`` derive, each on its first read."""
        columns = cls.__new__(cls)
        columns.__dict__.update(_count=count, _derive=rows, _box=box)
        return columns

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: a column of an
        # unboxed store before its first read.
        box = self.__dict__.get("_box")
        if box is None or name not in _COLUMN_NAMES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(box().__dict__)
        del self.__dict__["_box"]
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        # The columns alone, so an unboxed store pickles and copies boxed.
        return {name: getattr(self, name) for name in _COLUMN_NAMES}

    def _row_count(self) -> int:
        """Number of rows, read without boxing."""
        count = self.__dict__.get("_count")
        return len(self.index) if count is None else count

    def _float_rows(self) -> np.ndarray:
        """The ``7 x n`` float block :func:`~repro.serving.metrics.compute_metrics` reduces.

        Rows latency, queueing, energy, stages, correct, has-deadline and
        deadline-missed, columns in request order.  A replay's store derives
        its block once and keeps it (callers must not write to it); a store
        built from tuples converts them on every call.
        """
        derive = self.__dict__.pop("_derive", None)
        if derive is not None:
            self.__dict__["_rows"] = derive()
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = np.array(
                (
                    self.latency_ms,
                    self.queueing_ms,
                    self.energy_mj,
                    self.num_stages,
                    self.correct,
                    [deadline is not None for deadline in self.deadline_ms],
                    self.deadline_missed,
                ),
                dtype=float,
            )
        return rows


_COLUMN_NAMES = tuple(column.name for column in fields(RequestColumns))


@dataclass(frozen=True)
class ServingResult:
    """Everything one simulation run produced.

    ``columns`` holds the per-request values; :attr:`records` turns them into
    :class:`RequestRecord` objects on first access and keeps them, so a
    replay that is only reduced to metrics never builds one.  ``busy_ms``
    maps compute-unit names to total occupied time; ``mean_in_flight`` is the
    time-averaged number of requests in the system (measured independently
    of per-request latencies, so Little's law ``L = lambda * W`` is a
    non-trivial consistency check of the replay).  Every policy's result
    comes from the same Lindley replay (see the module docstring).
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
        return self.columns._row_count()

    def metrics(self):
        """Aggregate percentile/throughput/energy metrics for this run."""
        from .metrics import compute_metrics

        return compute_metrics(self)

    def write_trace(self, path) -> None:
        """Export the per-request trace as JSON lines (byte-deterministic)."""
        from .metrics import write_trace_jsonl

        write_trace_jsonl(self.records, path)


class _Plan(NamedTuple):
    """What a replay needs of one deployment, built once per object."""

    deployment: Deployment
    exits: List[int]  # exit stage of every request, by request index
    exit_array: np.ndarray  # the same, as an array
    correct: np.ndarray  # whether each request's exit classifies it
    tasks_at: List[Tuple[Tuple[int, float], ...]]  # per exit stage: (unit slot, service)
    service_at: List[float]  # per exit stage: zero-contention latency (Eq. 13)
    energy_at: List[float]  # per exit stage: energy (Eq. 14)


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

        Every policy replays by the same per-unit Lindley recursion, which
        is exact because a policy reads only the in-flight count and the
        time at each arrival, and each request's tasks join their units'
        FIFO queues in (request, stage) order whichever deployment it gets.
        A :class:`~repro.serving.policies.StaticPolicy` reads no load, so
        its replay skips the in-flight tracking.

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
        ordered = sorted(requests, key=attrgetter("arrival_ms"))
        grid = (np.arange(len(ordered)) + 0.5) / len(ordered)
        difficulties = as_rng(self._seed).permutation(grid)
        self.policy.reset()
        columns, busy_ms, in_flight_area, peak_in_flight, makespan = self._replay(
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
    def _replay(self, ordered: Sequence[Request], difficulties: np.ndarray):
        """The per-unit Lindley recursion, under any policy.

        The in-flight tracking (completion heap, ``select`` per request,
        deployment switches) runs only for a policy that reads the load; a
        :class:`~repro.serving.policies.StaticPolicy` is planned once.  The
        peak in flight is read off the sorted completions for every policy.

        Returns ``(columns, busy_ms, in-flight area, peak in flight,
        makespan)``; the makespan is the last completion time.
        """
        # Looked up per run, so a select wrapped on the policy's class after
        # construction still sees every call.
        select = self.policy.select
        # A policy reads the load unless its select is StaticPolicy's own as
        # defined at import; an override or a wrapper (on the class or the
        # instance) keeps the tracking path and sees every call.
        tracks_load = getattr(select, "__func__", None) is not _STATIC_SELECT
        unit_names = self.platform.unit_names
        slot_of = {name: slot for slot, name in enumerate(unit_names)}
        # The ideal exits (and their correctness) depend on the accuracies
        # alone, so the switcher's two deployments and the governor's rungs
        # decide them once per distinct tuple, over every request: the
        # replay costs one pass per request plus one vector pass per tuple.
        exits_of: Dict[Tuple[float, ...], Tuple[list, np.ndarray, np.ndarray]] = {}
        # Keyed by identity with the deployment kept in the plan, so a freed
        # id cannot alias a fresh object.
        plans: Dict[int, _Plan] = {}

        def plan_of(deployment) -> _Plan:
            self._check_deployment_units(deployment)
            accuracies = tuple(deployment.stage_accuracies)
            if accuracies not in exits_of:
                exits = deployment.exit_stages(difficulties)
                correct = difficulties <= np.array(accuracies, dtype=float)[exits]
                exits_of[accuracies] = (exits.tolist(), exits, correct)
            tasks = [
                (slot_of[name], service)
                for name, service in zip(deployment.unit_names, deployment.service_ms)
            ]
            stages = range(deployment.num_stages)
            return _Plan(
                deployment,
                *exits_of[accuracies],
                # The tasks a request exiting at each stage queues, in stage
                # order, which is the order they join their units' queues.
                [tuple(tasks[: stage + 1]) for stage in stages],
                [deployment.cumulative_latency_ms(stage) for stage in stages],
                [deployment.cumulative_energy_mj(stage) for stage in stages],
            )

        arrival_ms = [request.arrival_ms for request in ordered]
        free_ms = [float("-inf")] * len(unit_names)
        busy = [0.0] * len(unit_names)
        completion_ms = []
        done_ms = []
        admitted: list = []  # min-heap of the admitted requests' completion times
        completed = 0
        segments = []  # (first request, plan) at every change of deployment
        last = None
        if not tracks_load:
            # The deployment the first request gets serves every request.
            plan = plan_of(select(0, arrival_ms[0]))
            exits, tasks_at = plan.exits, plan.tasks_at
            segments.append((0, plan))
        for index, arrival in enumerate(arrival_ms):
            if tracks_load:
                # Arrivals precede completions at equal times, so a request
                # that completes exactly now is still in flight.
                while admitted and admitted[0] < arrival:
                    heappop(admitted)
                    completed += 1
                deployment = select(index - completed, arrival)
                if deployment is not last:
                    last = deployment
                    plan = plans.get(id(deployment))
                    if plan is None:
                        plan = plans[id(deployment)] = plan_of(deployment)
                    exits, tasks_at = plan.exits, plan.tasks_at
                    segments.append((index, plan))
            completion = 0.0
            for slot, service in tasks_at[exits[index]]:
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
            if tracks_load:
                heappush(admitted, completion)

        # An event loop adds in_flight * (now - last) at every arrival and
        # task completion, exactly 0.0 at a repeated time: summing over the
        # distinct arrival and task-completion times in order gives the same
        # float.  cumsum adds left to right; np.sum's pairwise reduction
        # would not.
        arrivals = np.array(arrival_ms, dtype=float)
        completions = np.array(completion_ms, dtype=float)
        finished = np.sort(completions)
        times = np.unique(np.concatenate((arrivals, np.array(done_ms, dtype=float))))
        in_flight = np.searchsorted(arrivals, times, "right") - np.searchsorted(
            finished, times, "right"
        )
        area = np.cumsum(in_flight[:-1] * np.diff(times))
        # Arrival k sees k minus the completions strictly before it.  No
        # request completes before its own arrival, so none of those is a
        # later request's, whatever deployment each request got.
        depth = np.arange(len(ordered)) - np.searchsorted(finished, arrivals, "left")
        peak = int(depth.max()) + 1

        stops = [start for start, _ in segments[1:]] + [len(ordered)]
        default = self.deadline_ms

        def deadlines(missing) -> list:
            # Each request's deadline, ``missing`` where it has none.
            return [
                missing if request.deadline_ms is None else request.deadline_ms
                for request in ordered
            ]

        def numbers():
            # Each request's numbers as arrays, each one elementwise IEEE
            # operation on the loop's values and the plans' per-stage tables:
            # the float block's rows, then the exit stages and service times.
            stage, correct, service, energy = _exits_and_costs(segments, stops)
            # No deadline reads as NaN: none to have, none to miss.  (Written
            # as NaN, not None, which numpy converts on a slow path.)
            deadline = np.array(deadlines(float("nan") if default is None else default), float)
            latency = completions - arrivals
            block = (
                latency,
                latency - service,
                energy,
                stage + 1,
                correct,
                deadline == deadline,
                latency > deadline,
            )
            return block, stage, service

        def rows() -> np.ndarray:
            # The float block compute_metrics reduces.
            return np.array(numbers()[0], dtype=float)

        def box() -> RequestColumns:
            # The arrays' Python values; the requests' own arrivals and
            # deadlines keep their objects (an int stays an int).
            block, stage, service = numbers()
            latency, queueing, energy, stages, correct, _, missed = block
            names = []
            for (start, plan), stop in zip(segments, stops):
                names += [plan.deployment.name] * (stop - start)
            return RequestColumns(
                index=tuple(range(len(ordered))),
                tenant=tuple([request.tenant for request in ordered]),
                arrival_ms=tuple(arrival_ms),
                completion_ms=tuple(completion_ms),
                latency_ms=tuple(latency.tolist()),
                service_ms=tuple(service.tolist()),
                queueing_ms=tuple(queueing.tolist()),
                exit_stage=tuple(stage.tolist()),
                num_stages=tuple(stages.tolist()),
                deployment=tuple(names),
                correct=tuple(correct.tolist()),
                energy_mj=tuple(energy.tolist()),
                deadline_ms=tuple(deadlines(default)),
                deadline_missed=tuple(missed.tolist()),
            )

        return (
            RequestColumns._unboxed(len(ordered), rows, box),
            dict(zip(unit_names, busy)),
            float(area[-1]) if len(area) else 0.0,
            peak,
            max(completion_ms),
        )

    def _check_deployment_units(self, deployment) -> None:
        for name in deployment.unit_names:
            if name not in self.platform.unit_names:
                raise ConfigurationError(
                    f"deployment {deployment.name!r} maps a stage to unknown "
                    f"compute unit {name!r} on platform {self.platform.name!r}"
                )


def _exits_and_costs(segments, stops):
    """Every request's exit stage, correctness, service and energy arrays.

    Each is read off the plan that served the request, whatever the number
    of switches.  A replay that never switched reads its one plan's exits
    and per-stage tables directly.  Otherwise exits and correctness are
    gathered from each distinct decision (plans of equal accuracies share
    one) laid end to end, and costs from each distinct plan's per-stage
    table laid end to end, so the gather grows with the requests, the
    decisions and the plans' stages, never with plans times requests.
    """
    if len(segments) == 1:
        plan = segments[0][1]
        stage = plan.exit_array
        service = np.array(plan.service_at, dtype=float)
        energy = np.array(plan.energy_at, dtype=float)
        return stage, plan.correct, service[stage], energy[stage]
    lengths = [stop - start for (start, _), stop in zip(segments, stops)]
    plans = {id(plan): plan for _, plan in segments}
    decided = {id(plan.exit_array): plan for plan in plans.values()}
    count = stops[-1]
    row = {key: index * count for index, key in enumerate(decided)}
    table = dict(zip(plans, accumulate([0] + [len(plan.service_at) for plan in plans.values()])))
    entry = np.repeat([row[id(plan.exit_array)] for _, plan in segments], lengths)
    entry += np.arange(count)
    stage = np.concatenate([plan.exit_array for plan in decided.values()])[entry]
    correct = np.concatenate([plan.correct for plan in decided.values()])[entry]
    cost = np.repeat([table[id(plan)] for _, plan in segments], lengths) + stage
    service = np.array([value for plan in plans.values() for value in plan.service_at], dtype=float)
    energy = np.array([value for plan in plans.values() for value in plan.energy_at], dtype=float)
    return stage, correct, service[cost], energy[cost]
