"""Bit-identity pin of the columnar :func:`compute_metrics` reduction.

``compute_metrics`` reduces a result's request columns directly: one float
array per reduced field, built from the column tuples, instead of one pass
over the per-request records, and one ``np.percentile`` call for p50, p95
and p99.  The refactor is only legal if every aggregate keeps its exact bits
— the serving goldens and the fleet summary both hash these floats.  This
file keeps the *old* row-wise implementation, which reads
``result.records`` and takes each percentile with its own call, as an
executable reference and asserts equality with ``==`` (never ``approx``)
across tenants and deadline shapes, and across the two ways a store is
written: the simulator's one replay (under a static policy, the switcher
and the DVFS governor) and a fleet pool built from records.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serving import (
    Deployment,
    FleetInstance,
    MultiTenantStream,
    PoissonArrivals,
    ServingResult,
    TrafficSimulator,
    build_policy,
    compute_metrics,
    fleet_records,
    simulate_fleet,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.simulator import RequestColumns

#: How the reduced store was written: the simulator's replay under a static
#: or a load-driven policy, or pooled fleet records.
KINDS = ("static", "switcher", "dvfs-governor", "fleet-pool")


def _reference_metrics(result, tenant=None) -> ServingMetrics:
    """The pre-vectorisation implementation: one comprehension per field."""
    records = result.records
    if tenant is not None:
        records = [record for record in records if record.tenant == tenant]
    if not records:
        raise ConfigurationError("no records to aggregate")
    latencies = np.sort(np.array([r.latency_ms for r in records], dtype=float))
    queueing = np.array([r.queueing_ms for r in records], dtype=float)
    energies = np.array([r.energy_mj for r in records], dtype=float)
    stages = np.array([float(r.num_stages) for r in records], dtype=float)
    correct = np.array(
        [1.0 if r.correct else 0.0 for r in records], dtype=float
    )
    with_deadline = [r for r in records if r.deadline_ms is not None]
    missed = sum(1 for r in with_deadline if r.deadline_missed)
    duration_s = result.duration_ms / 1000.0
    return ServingMetrics(
        policy=result.policy,
        num_requests=len(records),
        duration_ms=result.duration_ms,
        throughput_rps=len(records) / duration_s if duration_s > 0 else 0.0,
        mean_latency_ms=float(latencies.mean()),
        p50_latency_ms=float(np.percentile(latencies, 50.0)),
        p95_latency_ms=float(np.percentile(latencies, 95.0)),
        p99_latency_ms=float(np.percentile(latencies, 99.0)),
        max_latency_ms=float(latencies[-1]),
        mean_queueing_ms=float(queueing.mean()),
        deadline_miss_rate=(
            missed / len(with_deadline) if with_deadline else 0.0
        ),
        accuracy=float(correct.mean()),
        mean_stages=float(stages.mean()),
        total_energy_mj=float(energies.sum()),
        energy_per_request_mj=float(energies.mean()),
        mean_in_flight=result.mean_in_flight,
        peak_in_flight=result.peak_in_flight,
        utilisation={
            name: busy / result.duration_ms if result.duration_ms > 0 else 0.0
            for name, busy in result.busy_ms.items()
        },
    )


@pytest.fixture()
def cascade():
    return Deployment(
        name="cascade",
        unit_names=("gpu", "dla0", "dla1"),
        service_ms=(5.0, 20.0, 30.0),
        energy_mj=(40.0, 10.0, 12.0),
        stage_accuracies=(0.5, 0.7, 0.9),
        dvfs_scales=(1.0, 1.0, 1.0),
    )


@pytest.fixture()
def sprinter():
    return Deployment(
        name="sprinter",
        unit_names=("gpu", "dla0"),
        service_ms=(4.0, 9.0),
        energy_mj=(70.0, 20.0),
        stage_accuracies=(0.6, 0.9),
        dvfs_scales=(1.0, 1.0),
    )


def _replay(kind, platform, cascade, sprinter, requests, seed, deadline_ms=None):
    """One result of ``kind`` for ``requests``."""
    if kind == "fleet-pool":
        # Pooled the way compute_fleet_metrics pools: the served records in
        # stream order, reaching the store through RequestColumns.from_records.
        fleet = simulate_fleet(
            (
                FleetInstance(name="a", platform=platform, deployment=cascade),
                FleetInstance(name="b", platform=platform, deployment=sprinter),
            ),
            requests,
            seed=seed,
            deadline_ms=deadline_ms,
        )
        pooled = tuple(entry.record for entry in fleet_records(fleet))
        result = ServingResult(
            policy=fleet.router,
            columns=RequestColumns.from_records(pooled),
            duration_ms=fleet.duration_ms,
            busy_ms={},
            mean_in_flight=0.0,
            peak_in_flight=0,
        )
        assert result.records == pooled
        return result
    policy = build_policy(kind, cascade, platform, front=(cascade, sprinter))
    simulator = TrafficSimulator(platform, policy, seed=seed, deadline_ms=deadline_ms)
    return simulator.run(requests)


def _assert_bit_identical(vectorised: ServingMetrics, reference: ServingMetrics):
    # Strict equality on every float: the two reductions must agree to the
    # last bit, not within a tolerance.
    assert vectorised == reference


class TestVectorisedBitIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_poisson_no_deadlines(self, platform, cascade, sprinter, seed, kind):
        result = _replay(
            kind,
            platform,
            cascade,
            sprinter,
            PoissonArrivals(60.0).generate(duration_ms=3000.0, seed=seed),
            seed,
        )
        _assert_bit_identical(compute_metrics(result), _reference_metrics(result))

    @pytest.mark.parametrize("kind", KINDS)
    def test_with_deadlines(self, platform, cascade, sprinter, kind):
        result = _replay(
            kind,
            platform,
            cascade,
            sprinter,
            PoissonArrivals(80.0).generate(duration_ms=2000.0, seed=5),
            5,
            deadline_ms=45.0,
        )
        metrics = compute_metrics(result)
        _assert_bit_identical(metrics, _reference_metrics(result))
        assert metrics.deadline_miss_rate > 0.0  # the comparison is non-trivial

    @pytest.mark.parametrize("kind", KINDS)
    def test_multi_tenant_filter(self, platform, cascade, sprinter, kind):
        stream = MultiTenantStream(
            (
                PoissonArrivals(30.0, tenant="interactive", deadline_ms=50.0),
                PoissonArrivals(20.0, tenant="batch"),
            )
        )
        result = _replay(
            kind, platform, cascade, sprinter, stream.generate(duration_ms=2500.0, seed=2), 2
        )
        for tenant in (None, "interactive", "batch"):
            _assert_bit_identical(
                compute_metrics(result, tenant=tenant),
                _reference_metrics(result, tenant=tenant),
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_request_edges(self, platform, cascade, sprinter, kind):
        result = _replay(
            kind,
            platform,
            cascade,
            sprinter,
            PoissonArrivals(2.0).generate(duration_ms=3000.0, seed=9),
            1,
        )
        assert result.records  # tiny but non-empty stream
        _assert_bit_identical(compute_metrics(result), _reference_metrics(result))


def _latency_only_result(latencies) -> ServingResult:
    """A one-tenant result whose requests differ only in latency."""
    count = len(latencies)
    return ServingResult(
        policy="latencies",
        columns=RequestColumns(
            index=tuple(range(count)),
            tenant=("default",) * count,
            arrival_ms=(0.0,) * count,
            completion_ms=tuple(latencies),
            latency_ms=tuple(latencies),
            service_ms=tuple(latencies),
            queueing_ms=(0.0,) * count,
            exit_stage=(0,) * count,
            num_stages=(1,) * count,
            deployment=("d",) * count,
            correct=(True,) * count,
            energy_mj=(1.0,) * count,
            deadline_ms=(None,) * count,
            deadline_missed=(False,) * count,
        ),
        duration_ms=1000.0,
        busy_ms={},
        mean_in_flight=0.0,
        peak_in_flight=0,
    )


class TestOnePercentileCall:
    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=2000),
        distinct=st.integers(min_value=1, max_value=2000),
        scale=st.sampled_from([1e-3, 1.0, 37.5, 1e4]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_three_separate_calls(self, count, distinct, scale, seed):
        # Drawn from ``distinct`` values, so small pools tie heavily.
        rng = np.random.default_rng(seed)
        latencies = np.sort(rng.choice(scale * rng.random(distinct), size=count))
        metrics = compute_metrics(_latency_only_result(latencies.tolist()))
        one_call = (metrics.p50_latency_ms, metrics.p95_latency_ms, metrics.p99_latency_ms)
        three_calls = tuple(float(np.percentile(latencies, q)) for q in (50.0, 95.0, 99.0))
        assert one_call == three_calls
        assert repr(one_call) == repr(three_calls)
