"""Traffic scenario library: seedable request arrival processes.

The paper (and the runtime-controller extension) scores one request at a
time; a deployed system instead sees a *stream* of requests whose statistics
decide how much queueing the mapping suffers.  This module generates those
streams deterministically from a seed:

* :class:`ConstantRate` -- evenly spaced arrivals (closed-loop load tester),
* :class:`PoissonArrivals` -- memoryless open-loop traffic (M/·/1 style),
* :class:`OnOffBursts` -- alternating burst/idle phases (flash crowds),
* :class:`DiurnalArrivals` -- sinusoidal rate over a day-like period,
  generated by thinning a homogeneous Poisson process,
* :class:`MultiTenantStream` -- a deterministic merge of per-tenant streams.

All times are in milliseconds on the same clock as stage latencies, so a
scenario plugs straight into :class:`repro.serving.simulator.TrafficSimulator`.
Every process is deterministic given ``(duration_ms, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..utils import as_rng, check_non_negative, check_positive

__all__ = [
    "Request",
    "ArrivalProcess",
    "ConstantRate",
    "PoissonArrivals",
    "OnOffBursts",
    "DiurnalArrivals",
    "MultiTenantStream",
]


@dataclass(frozen=True)
class Request:
    """One inference request entering the serving system.

    ``deadline_ms`` is relative to the arrival time; ``None`` means the
    simulator's default deadline (if any) applies.
    """

    arrival_ms: float
    tenant: str = "default"
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        check_non_negative(self.arrival_ms, "arrival_ms")
        if not self.tenant:
            raise ConfigurationError("tenant must be non-empty")
        if self.deadline_ms is not None:
            check_positive(self.deadline_ms, "deadline_ms")


class ArrivalProcess:
    """Base class: a named, seedable generator of request arrival times.

    Subclasses implement :meth:`_arrival_times`; :meth:`generate` wraps the
    times into :class:`Request` objects carrying the process's tenant label
    and per-request deadline.
    """

    def __init__(self, tenant: str = "default", deadline_ms: Optional[float] = None) -> None:
        if not tenant:
            raise ConfigurationError("tenant must be non-empty")
        if deadline_ms is not None:
            check_positive(deadline_ms, "deadline_ms")
        self.tenant = str(tenant)
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)

    def __repr__(self) -> str:
        # Content-bearing and process-independent: every subclass keeps its
        # whole configuration in instance attributes, so this repr is a
        # stable identity for cache keys and checkpoint fingerprints
        # (serving_digest, MeasuredWaitExtractor) — the default object repr
        # would embed a memory address and break them across processes.
        fields = ", ".join(
            f"{name}={value!r}" for name, value in sorted(self.__dict__.items())
        )
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        # Same content, same process: lets composed identities (extractor
        # dataclasses, multi-tenant streams) compare by configuration.
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(repr(self))

    def generate(
        self, duration_ms: float, seed: "int | np.random.Generator | None" = 0
    ) -> Tuple[Request, ...]:
        """Generate all requests arriving in ``[0, duration_ms)``."""
        check_positive(duration_ms, "duration_ms")
        rng = as_rng(seed)
        times = np.asarray(self._arrival_times(float(duration_ms), rng), dtype=float)
        times = times[(times >= 0.0) & (times < duration_ms)]
        times = np.sort(times)
        return tuple(
            Request(arrival_ms=float(t), tenant=self.tenant, deadline_ms=self.deadline_ms)
            for t in times
        )

    def _arrival_times(self, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class ConstantRate(ArrivalProcess):
    """Evenly spaced arrivals at ``rate_rps`` requests per second."""

    def __init__(
        self,
        rate_rps: float,
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
        phase_ms: float = 0.0,
    ) -> None:
        super().__init__(tenant=tenant, deadline_ms=deadline_ms)
        self.rate_rps = check_positive(rate_rps, "rate_rps")
        self.phase_ms = check_non_negative(phase_ms, "phase_ms")

    def _arrival_times(self, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
        gap_ms = 1000.0 / self.rate_rps
        count = int(np.ceil((duration_ms - self.phase_ms) / gap_ms)) + 1
        return self.phase_ms + gap_ms * np.arange(max(count, 0))


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_rps`` requests per second."""

    def __init__(
        self,
        rate_rps: float,
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
    ) -> None:
        super().__init__(tenant=tenant, deadline_ms=deadline_ms)
        self.rate_rps = check_positive(rate_rps, "rate_rps")

    def _arrival_times(self, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
        return _poisson_times(rng, self.rate_rps, 0.0, duration_ms)


class OnOffBursts(ArrivalProcess):
    """Alternating burst/idle phases with Poisson arrivals inside each phase.

    The process starts in a burst phase of ``burst_ms`` at ``burst_rps``,
    then idles for ``idle_ms`` at ``idle_rps`` (which may be zero), and
    repeats.  Phase boundaries are deterministic; only the within-phase
    arrivals are random, so the burst envelope is identical across seeds.
    """

    def __init__(
        self,
        burst_rps: float,
        idle_rps: float,
        burst_ms: float,
        idle_ms: float,
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
    ) -> None:
        super().__init__(tenant=tenant, deadline_ms=deadline_ms)
        self.burst_rps = check_positive(burst_rps, "burst_rps")
        self.idle_rps = check_non_negative(idle_rps, "idle_rps")
        self.burst_ms = check_positive(burst_ms, "burst_ms")
        self.idle_ms = check_positive(idle_ms, "idle_ms")

    def _arrival_times(self, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
        chunks = []
        start = 0.0
        bursting = True
        while start < duration_ms:
            phase_ms = self.burst_ms if bursting else self.idle_ms
            rate = self.burst_rps if bursting else self.idle_rps
            end = min(start + phase_ms, duration_ms)
            if rate > 0:
                chunks.append(_poisson_times(rng, rate, start, end))
            start = end
            bursting = not bursting
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day-shaped rate between ``trough_rps`` and ``peak_rps``.

    The instantaneous rate is
    ``trough + (peak - trough) * (1 - cos(2 pi t / period)) / 2`` -- the
    stream starts at the trough, peaks at half a period, and returns.  The
    non-homogeneous process is realised by thinning a homogeneous one at the
    peak rate, which keeps generation exact and seed-deterministic.
    """

    def __init__(
        self,
        peak_rps: float,
        trough_rps: float,
        period_ms: float,
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
    ) -> None:
        super().__init__(tenant=tenant, deadline_ms=deadline_ms)
        self.peak_rps = check_positive(peak_rps, "peak_rps")
        self.trough_rps = check_non_negative(trough_rps, "trough_rps")
        if self.trough_rps > self.peak_rps:
            raise ConfigurationError(
                f"trough_rps ({trough_rps}) must not exceed peak_rps ({peak_rps})"
            )
        self.period_ms = check_positive(period_ms, "period_ms")

    def rate_rps_at(self, time_ms: float) -> float:
        """Instantaneous arrival rate at ``time_ms``."""
        swing = self.peak_rps - self.trough_rps
        phase = 2.0 * np.pi * time_ms / self.period_ms
        return float(self.trough_rps + swing * 0.5 * (1.0 - np.cos(phase)))

    def _arrival_times(self, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
        candidates = _poisson_times(rng, self.peak_rps, 0.0, duration_ms)
        if candidates.size == 0:
            return candidates
        swing = self.peak_rps - self.trough_rps
        phases = 2.0 * np.pi * candidates / self.period_ms
        rates = self.trough_rps + swing * 0.5 * (1.0 - np.cos(phases))
        accepted = rng.random(candidates.size) < rates / self.peak_rps
        return candidates[accepted]


class MultiTenantStream(ArrivalProcess):
    """Deterministic merge of several per-tenant arrival processes.

    Each child process receives an independent sub-seed derived from the
    stream's seed, so adding or re-ordering tenants never perturbs another
    tenant's arrivals more than the derivation order implies, and the merged
    trace is reproducible end to end.
    """

    def __init__(self, processes: Sequence[ArrivalProcess]) -> None:
        super().__init__(tenant="multi")
        if not processes:
            raise ConfigurationError("MultiTenantStream needs at least one process")
        self.processes = tuple(processes)

    def generate(
        self, duration_ms: float, seed: "int | np.random.Generator | None" = 0
    ) -> Tuple[Request, ...]:
        check_positive(duration_ms, "duration_ms")
        rng = as_rng(seed)
        merged: list = []
        for process in self.processes:
            child_seed = int(rng.integers(0, 2**31 - 1))
            merged.extend(process.generate(duration_ms, seed=child_seed))
        merged.sort(key=lambda request: (request.arrival_ms, request.tenant))
        return tuple(merged)

    def _arrival_times(self, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError("MultiTenantStream overrides generate() directly")


def _resolve_requests(
    workload: ArrivalProcess | Sequence[Request],
    duration_ms: Optional[float],
    seed,
) -> Tuple[Request, ...]:
    """The request stream ``workload`` replays: generated, or the given requests."""
    if isinstance(workload, ArrivalProcess):
        if duration_ms is None:
            raise ConfigurationError(
                "duration_ms is required when passing an ArrivalProcess"
            )
        return workload.generate(duration_ms, seed=seed)
    requests = tuple(workload)
    if not requests:
        raise ConfigurationError("the request stream is empty")
    return requests


def _poisson_times(
    rng: np.random.Generator, rate_rps: float, start_ms: float, end_ms: float
) -> np.ndarray:
    """Poisson arrival times in ``[start_ms, end_ms)`` at ``rate_rps``."""
    if end_ms <= start_ms or rate_rps <= 0:
        return np.empty(0)
    mean_gap_ms = 1000.0 / rate_rps
    window_ms = end_ms - start_ms
    # Draw in chunks sized to overshoot the window with high probability.
    expected = window_ms / mean_gap_ms
    times: list = []
    elapsed = 0.0
    while elapsed < window_ms:
        chunk = rng.exponential(mean_gap_ms, size=max(16, int(1.5 * expected) + 1))
        cumulative = elapsed + np.cumsum(chunk)
        times.append(cumulative)
        elapsed = float(cumulative[-1])
    merged = np.concatenate(times)
    return start_ms + merged[merged < window_ms]
