"""Fleet-level aggregation: pooled tails, joules (dynamic + idle), utilisation.

:func:`repro.serving.metrics.compute_metrics` judges one instance; a fleet is
judged on the *pooled* request population plus costs no single instance sees:
idle power of boards kept warm for headroom, boot events, dropped requests.
:func:`compute_fleet_metrics` reduces a
:class:`~repro.serving.fleet.FleetResult` to those numbers, checking request
conservation (served + dropped == generated) on the way and pooling through
``compute_metrics`` itself.  :func:`fleet_records` yields the fleet-wide
trace, each record carrying the serving instance and the request's *global*
index in the shared stream; :func:`repro.serving.metrics.write_trace_jsonl`
exports it with the byte-deterministic single-instance formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from ..errors import ConfigurationError
from ..utils import _left_sum
from .metrics import compute_metrics
from .simulator import RequestColumns, RequestRecord, ServingResult

__all__ = [
    "FleetRequestRecord",
    "FleetMetrics",
    "fleet_records",
    "compute_fleet_metrics",
]


@dataclass(frozen=True)
class FleetRequestRecord:
    """One served request of the fleet-wide trace.

    ``index`` is the request's position in the fleet's arrival-sorted stream
    (so traces from different routers align line for line); ``record`` is the
    untouched per-instance trace entry, whose own ``index`` is local to the
    serving instance's sub-stream.
    """

    index: int
    instance: str
    record: RequestRecord

    def to_json_dict(self) -> dict:
        """Flat JSON view: the instance record keyed by the global index."""
        payload = self.record.to_json_dict()
        payload["instance_index"] = payload.pop("index")
        payload["index"] = self.index
        payload["instance"] = self.instance
        return payload


@dataclass(frozen=True)
class FleetMetrics:
    """Distributional behaviour of one fleet run.

    Latency percentiles and accuracy pool every served request across
    instances; energy splits into the dynamic joules the traces account for
    and the idle joules of powered-but-waiting silicon, which is what the
    autoscaler exists to reclaim.  ``mean_in_flight`` sums the per-instance
    time-averaged occupancies over the shared horizon, so fleet-level
    Little's law (``L = lambda * W`` with the pooled mean latency) remains a
    non-trivial consistency check of routing + replay together.
    """

    router: str
    num_instances: int
    num_requests: int
    num_dropped: int
    duration_ms: float
    throughput_rps: float
    drop_rate: float
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    max_latency_ms: float
    mean_queueing_ms: float
    deadline_miss_rate: float
    accuracy: float
    dynamic_energy_mj: float
    idle_energy_mj: float
    total_energy_mj: float
    energy_per_request_mj: float
    mean_in_flight: float
    mean_active_instances: float
    peak_active_instances: int
    boots: int
    instance_requests: Mapping[str, int] = field(default_factory=dict)
    instance_utilisation: Mapping[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Served requests; ``0`` marks a fully shedding (degenerate) fleet.

        Mirrors :attr:`repro.serving.metrics.ServingMetrics.completed`: when
        load shedding drops every request the pooled aggregates follow the
        same degenerate convention (latencies/energy-per-request ``inf``,
        accuracy 0) and such mixes rank strictly last instead of raising.
        """
        return int(self.num_requests)

    def summary_row(self) -> dict:
        """Flat dictionary for :func:`repro.core.report.format_table`."""
        return {
            "router": self.router,
            "instances": self.num_instances,
            "requests": self.num_requests,
            "drop_%": 100.0 * self.drop_rate,
            "rps": self.throughput_rps,
            "p50_ms": self.p50_latency_ms,
            "p99_ms": self.p99_latency_ms,
            "miss_%": 100.0 * self.deadline_miss_rate,
            "acc_%": 100.0 * self.accuracy,
            "J_total": self.total_energy_mj / 1000.0,
            "mJ/req": self.energy_per_request_mj,
            "mean_active": self.mean_active_instances,
        }


def fleet_records(result) -> Tuple[FleetRequestRecord, ...]:
    """Fleet-wide request records, sorted by global (stream) index.

    Raises :class:`~repro.errors.ConfigurationError` when the fleet result
    violates request conservation — a request assigned to an instance whose
    replay produced no trace entry for it, or duplicated across instances —
    which would mean the routing pass and the replay pass disagree.
    """
    merged = {}
    for outcome in result.outcomes:
        records = outcome.result.records if outcome.result is not None else ()
        if len(records) != len(outcome.assigned):
            raise ConfigurationError(
                f"instance {outcome.instance.name!r} was assigned "
                f"{len(outcome.assigned)} requests but replayed {len(records)}"
            )
        for record in records:
            global_index = outcome.assigned[record.index]
            if global_index in merged:
                raise ConfigurationError(
                    f"request {global_index} served by more than one instance"
                )
            merged[global_index] = FleetRequestRecord(
                index=global_index, instance=outcome.instance.name, record=record
            )
    expected = len(result.requests) - len(result.dropped)
    if len(merged) != expected:
        raise ConfigurationError(
            f"request conservation violated: {len(result.requests)} generated, "
            f"{len(result.dropped)} dropped, but {len(merged)} served"
        )
    return tuple(merged[index] for index in sorted(merged))


def _mean_peak_active(result) -> Tuple[float, int]:
    """Time-average and peak of the powered-instance count over the horizon."""
    active = result.initial_active
    peak = active
    area = 0.0
    last_ms = 0.0
    for event in result.events:
        area += active * (event.time_ms - last_ms)
        last_ms = event.time_ms
        active = event.active
        peak = max(peak, active)
    area += active * (result.duration_ms - last_ms)
    mean = area / result.duration_ms if result.duration_ms > 0 else 0.0
    return mean, peak


def compute_fleet_metrics(result) -> FleetMetrics:
    """Reduce a :class:`~repro.serving.fleet.FleetResult` to fleet aggregates.

    The pooled request statistics are :func:`~repro.serving.metrics.compute_metrics`
    over the served records in stream order.  A result that served nothing
    (hand-built: a simulated fleet always serves its first arrival) reduces
    through :meth:`~repro.serving.metrics.ServingMetrics.degenerate` (``inf``
    tails, accuracy 0, miss rate 1) while its system-side numbers — idle
    joules of warm silicon, drops, active instances, boots — stay real.
    """
    pooled = fleet_records(result)
    duration_ms = result.duration_ms
    served = compute_metrics(
        ServingResult(
            policy=result.router,
            columns=RequestColumns.from_records([entry.record for entry in pooled]),
            duration_ms=duration_ms,
            busy_ms={},
            mean_in_flight=0.0,
            peak_in_flight=0,
        )
    )
    idle_mj = float(_left_sum(outcome.idle_energy_mj() for outcome in result.outcomes))
    total_mj = served.total_energy_mj + idle_mj
    in_flight_area = _left_sum(
        outcome.result.mean_in_flight * outcome.result.duration_ms
        for outcome in result.outcomes
        if outcome.result is not None
    )
    mean_active, peak_active = _mean_peak_active(result)
    generated = len(result.requests)
    return FleetMetrics(
        router=result.router,
        num_instances=len(result.outcomes),
        num_requests=served.num_requests,
        num_dropped=result.num_dropped,
        duration_ms=duration_ms,
        throughput_rps=served.throughput_rps,
        drop_rate=result.num_dropped / generated if generated else 0.0,
        mean_latency_ms=served.mean_latency_ms,
        p50_latency_ms=served.p50_latency_ms,
        p95_latency_ms=served.p95_latency_ms,
        p99_latency_ms=served.p99_latency_ms,
        max_latency_ms=served.max_latency_ms,
        mean_queueing_ms=served.mean_queueing_ms,
        deadline_miss_rate=served.deadline_miss_rate,
        accuracy=served.accuracy,
        dynamic_energy_mj=served.total_energy_mj,
        idle_energy_mj=idle_mj,
        total_energy_mj=total_mj,
        energy_per_request_mj=(
            total_mj / served.num_requests if served.completed else float("inf")
        ),
        mean_in_flight=in_flight_area / duration_ms if duration_ms > 0 else 0.0,
        mean_active_instances=mean_active,
        peak_active_instances=int(peak_active),
        boots=sum(outcome.boots for outcome in result.outcomes),
        instance_requests={
            outcome.instance.name: outcome.num_requests for outcome in result.outcomes
        },
        instance_utilisation={
            outcome.instance.name: outcome.utilisation() for outcome in result.outcomes
        },
    )
