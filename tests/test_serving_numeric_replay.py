"""Bit-identity pins of the numeric replay store and its reduction.

A replay hands :func:`compute_metrics` the float block it reduces and boxes
its :class:`RequestColumns` tuples only on first read; ``compute_metrics``
takes every sum from one row-wise reduction and reads p50/p95/p99 by index.
Each is only legal if every value keeps its exact bits.  This file keeps the
tuple-building store and the reduction they replaced, verbatim, as
``parent_columns`` and ``parent_compute_metrics``, and asserts with ``==``
and ``repr`` (never ``approx``) that a replay's block, boxed columns,
metrics and JSONL trace equal what those built from the same replay.  The
replay loop itself is pinned against the event heap in
``test_serving_simulator.py``.
"""

from __future__ import annotations

import copy
import hashlib
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    AdaptiveSwitchPolicy,
    Deployment,
    DvfsGovernorPolicy,
    MultiTenantStream,
    PoissonArrivals,
    Request,
    ServingPolicy,
    ServingResult,
    StaticPolicy,
    TrafficSimulator,
    compute_metrics,
)
from repro.serving.metrics import ServingMetrics, _percentile
from repro.serving.simulator import RequestColumns
from repro.soc.platform import jetson_agx_xavier


# -- the parent's store and reduction, verbatim ------------------------------------------
def parent_columns(
    self,
    ordered,
    *,
    arrival_ms,
    completion_ms,
    service_ms,
    exit_stage,
    deployment,
    correct,
    energy_mj,
) -> RequestColumns:
    """The request store of one replay, rows in request-index order."""
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


def parent_float_block(columns) -> np.ndarray:
    """The float array the parent's ``compute_metrics`` built from the tuples."""
    return np.array(
        (
            columns.latency_ms,
            columns.queueing_ms,
            columns.energy_mj,
            columns.num_stages,
            columns.correct,
            [deadline is not None for deadline in columns.deadline_ms],
            columns.deadline_missed,
        ),
        dtype=float,
    )


def parent_compute_metrics(result: ServingResult, tenant=None) -> ServingMetrics:
    columns = result.columns
    values = parent_float_block(columns)
    if tenant is not None:
        values = values[:, [name == tenant for name in columns.tenant]]
    count = values.shape[1]
    if not count:
        return ServingMetrics.degenerate(
            result.policy,
            result.duration_ms,
            mean_in_flight=result.mean_in_flight,
            peak_in_flight=result.peak_in_flight,
            utilisation={
                name: busy / result.duration_ms if result.duration_ms > 0 else 0.0
                for name, busy in result.busy_ms.items()
            },
        )
    latencies = np.sort(values[0])
    queueing, energies, stages, correct = values[1:5]
    num_with_deadline = int(values[5].sum())
    missed = int(values[6].sum())
    duration_s = result.duration_ms / 1000.0
    p50, p95, p99 = np.percentile(latencies, (50.0, 95.0, 99.0)).tolist()
    return ServingMetrics(
        policy=result.policy,
        num_requests=count,
        duration_ms=result.duration_ms,
        throughput_rps=count / duration_s if duration_s > 0 else 0.0,
        mean_latency_ms=float(latencies.mean()),
        p50_latency_ms=p50,
        p95_latency_ms=p95,
        p99_latency_ms=p99,
        max_latency_ms=float(latencies[-1]),
        mean_queueing_ms=float(queueing.mean()),
        deadline_miss_rate=missed / num_with_deadline if num_with_deadline else 0.0,
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


# -- scenarios ------------------------------------------------------------------------
PLATFORM = jetson_agx_xavier()
CASCADE = Deployment(
    name="cascade",
    unit_names=("gpu", "dla0", "dla1"),
    service_ms=(5.0, 20.0, 30.0),
    energy_mj=(40.0, 10.0, 12.0),
    stage_accuracies=(0.5, 0.7, 0.9),
    dvfs_scales=(1.0, 1.0, 1.0),
)
SPRINTER = Deployment(
    name="sprinter",
    unit_names=("gpu", "dla0"),
    service_ms=(4.0, 9.0),
    energy_mj=(70.0, 20.0),
    stage_accuracies=(0.6, 0.9),
    dvfs_scales=(1.0, 1.0),
)
TENANT_FILTERS = (None, "a", "b", "nobody")


class _FreshPolicy(ServingPolicy):
    """A new deployment object on every call: one plan per request, of two
    accuracy profiles and three service-time contents."""

    name = "fresh"

    def __init__(self, first, second):
        self.deployments = (first, second)
        self.reset()

    def reset(self):
        self.calls = 0

    def select(self, queue_depth, now_ms):
        self.calls += 1
        deployment = self.deployments[self.calls % 2]
        scale = 1.0 + 0.5 * (self.calls % 3)
        return replace(
            deployment, service_ms=tuple(scale * service for service in deployment.service_ms)
        )


def _policy(kind, first=CASCADE, second=SPRINTER):
    if kind == "static":
        return StaticPolicy(first)
    if kind == "switcher":
        return AdaptiveSwitchPolicy(first, second, high_watermark=3, low_watermark=1)
    if kind == "fresh":
        return _FreshPolicy(first, second)
    return DvfsGovernorPolicy(first, PLATFORM, high_watermark=3, low_watermark=1)


def _parent_result(simulator, requests, result) -> ServingResult:
    """``result`` with its store rebuilt by the parent's tuple code.

    The replay loop's own values (arrivals, completions, exits, services,
    energies, deployments, correctness) come from the boxed store; the parent
    derived every other column from them.
    """
    ordered = sorted(requests, key=lambda r: r.arrival_ms)
    boxed = result.columns
    columns = parent_columns(
        simulator,
        ordered,
        arrival_ms=list(boxed.arrival_ms),
        completion_ms=list(boxed.completion_ms),
        service_ms=list(boxed.service_ms),
        exit_stage=list(boxed.exit_stage),
        deployment=list(boxed.deployment),
        correct=list(boxed.correct),
        energy_mj=list(boxed.energy_mj),
    )
    return replace(result, columns=columns)


def _assert_matches_parent(simulator, requests, duration_ms=None):
    """The replay's block, metrics, columns and records equal the parent's."""
    result = simulator.run(requests, duration_ms=duration_ms)
    unboxed = result.columns
    # Counted and reduced over all tenants before anything boxes it; a
    # tenant filter reads the tenant column, which boxes the store.
    assert result.num_requests == len(requests)
    metrics = {None: compute_metrics(result)}
    assert result._records is None and "_box" in unboxed.__dict__
    metrics.update((tenant, compute_metrics(result, tenant=tenant)) for tenant in TENANT_FILTERS)
    assert result._records is None
    block = unboxed._float_rows()

    parent = _parent_result(simulator, requests, result)
    assert unboxed == parent.columns
    assert repr(unboxed) == repr(parent.columns)
    expected_block = parent_float_block(parent.columns)
    assert block.shape == expected_block.shape and block.dtype == expected_block.dtype
    assert repr(block.tolist()) == repr(expected_block.tolist())
    for tenant, measured in metrics.items():
        expected = parent_compute_metrics(parent, tenant=tenant)
        assert measured == expected, tenant
        assert repr(measured) == repr(expected), tenant
        # The boxed store reduces from its block, and to the same metrics.
        assert repr(compute_metrics(result, tenant=tenant)) == repr(expected), tenant
    assert result.records == parent.records
    assert repr(result.records) == repr(parent.records)
    return result


@st.composite
def _replays(draw):
    """A simulator and 1-600 requests on a coarse time grid (ties and
    duplicate latencies), two tenants, per-request and default deadlines or
    none, under a static, switching, governed or fresh-object-per-call
    policy."""
    count = draw(st.integers(min_value=1, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    step_ms = draw(st.sampled_from([0.5, 2.5, 5.0]))
    spread = draw(st.sampled_from([1, 3, 10]))
    offsets = draw(st.sampled_from([(0.0,), (0.0, 0.1, 1e-3)]))
    deadlines = draw(st.sampled_from([(None,), (None, 4.0, 30.0), (25.0,)]))
    tenants = draw(st.sampled_from([("a",), ("a", "b")]))
    requests = [
        Request(
            arrival_ms=step_ms * int(rng.integers(0, spread * count + 1))
            + float(rng.choice(offsets)),
            tenant=str(rng.choice(tenants)),
            deadline_ms=deadlines[int(rng.integers(0, len(deadlines)))],
        )
        for _ in range(count)
    ]
    kind = draw(st.sampled_from(("static", "switcher", "dvfs-governor", "fresh")))
    simulator = TrafficSimulator(
        PLATFORM,
        _policy(kind),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        deadline_ms=draw(st.sampled_from([None, 12.0])),
    )
    return simulator, requests, draw(st.sampled_from([None, 1.0, 1e5]))


class TestReplayStoreMatchesParent:
    @settings(max_examples=120, deadline=None)
    @given(_replays())
    def test_generated_replays(self, drawn):
        simulator, requests, duration_ms = drawn
        _assert_matches_parent(simulator, requests, duration_ms)

    @pytest.mark.parametrize("kind", ["static", "switcher", "dvfs-governor", "fresh"])
    def test_two_tenants_with_deadlines(self, kind):
        requests = MultiTenantStream(
            (
                PoissonArrivals(40.0, tenant="a", deadline_ms=35.0),
                PoissonArrivals(25.0, tenant="b"),
            )
        ).generate(3000.0, seed=4)
        simulator = TrafficSimulator(PLATFORM, _policy(kind), seed=2, deadline_ms=60.0)
        result = _assert_matches_parent(simulator, requests, 4000.0)
        if kind != "static":
            assert len(set(result.columns.deployment)) > 1
        assert any(result.columns.deadline_missed)

    def test_integer_arrivals_and_deadlines_keep_their_type(self):
        # Request does not coerce its fields: the boxed columns keep ints,
        # and the block holds their float values.
        requests = [Request(arrival_ms=slot // 2, deadline_ms=9) for slot in range(40)]
        simulator = TrafficSimulator(PLATFORM, StaticPolicy(SPRINTER), seed=3)
        result = _assert_matches_parent(simulator, requests)
        assert type(result.columns.arrival_ms[0]) is int
        assert type(result.columns.deadline_ms[0]) is int

    def test_one_plan_per_request_gathers_in_linear_memory(self):
        # Every request gets a fresh deployment object, so a replay of n
        # requests plans n deployments: a gather that laid out plans x
        # requests would allocate ~9 n^2 bytes (36 MB here) to derive the block.
        requests = PoissonArrivals(100.0).generate(25_000.0, seed=3)[:2000]
        simulator = TrafficSimulator(PLATFORM, _policy("fresh"), seed=4, deadline_ms=40.0)
        result = simulator.run(requests)
        tracemalloc.start()
        try:
            result.columns._float_rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(requests) == 2000 and len(set(result.columns.service_ms)) > 2
        assert peak < 2_000_000
        _assert_matches_parent(simulator, requests)

    def test_single_request(self):
        simulator = TrafficSimulator(PLATFORM, StaticPolicy(CASCADE), seed=5, deadline_ms=1.0)
        _assert_matches_parent(simulator, [Request(arrival_ms=3.0)])


class TestJsonlTrace:
    def test_two_tenant_switcher_trace_bytes_are_the_parents(self, tmp_path):
        requests = MultiTenantStream(
            (
                PoissonArrivals(40.0, tenant="interactive", deadline_ms=35.0),
                PoissonArrivals(25.0, tenant="batch"),
            )
        ).generate(3000.0, seed=4)
        simulator = TrafficSimulator(PLATFORM, _policy("switcher"), seed=2, deadline_ms=60.0)
        result = simulator.run(requests, duration_ms=4000.0)
        result.write_trace(tmp_path / "fast.jsonl")
        _parent_result(simulator, requests, result).write_trace(tmp_path / "parent.jsonl")
        fast = (tmp_path / "fast.jsonl").read_bytes()
        assert fast == (tmp_path / "parent.jsonl").read_bytes()
        # The bytes the tuple-building replay wrote for this scenario.
        assert hashlib.sha256(fast).hexdigest() == (
            "6716ff27047ba7763c63301406f956f44002900b7fb637fb9b62bba4ce5a3d5a"
        )
        metrics = "\n".join(
            repr(compute_metrics(result, tenant=tenant))
            for tenant in (None, "interactive", "batch", "nobody")
        )
        assert hashlib.sha256(metrics.encode("utf-8")).hexdigest() == (
            "5f9e2aedd41aaa5caf0caa3d50f962eead5cafdb2a2c5075ed5ee6f205e27d74"
        )


class TestLazyBoxing:
    @pytest.fixture()
    def result(self):
        requests = PoissonArrivals(60.0, deadline_ms=40.0).generate(2000.0, seed=1)
        return TrafficSimulator(PLATFORM, _policy("switcher"), seed=1).run(requests)

    def test_counting_and_reducing_box_nothing(self, result):
        assert result.num_requests > 50
        compute_metrics(result)
        assert result._records is None
        assert "_box" in result.columns.__dict__
        # A tenant filter reads the tenant column: the store boxes, the
        # records are still not built.
        compute_metrics(result, tenant="default")
        assert result._records is None
        assert "_box" not in result.columns.__dict__

    @pytest.mark.parametrize("kind", ["static", "switcher"])
    def test_boxing_derives_no_block(self, kind, tmp_path):
        # Fleet pooling and trace export read the tuples alone: the block is
        # derived only when a reduction reads it, and then equals the one
        # the parent converted from the tuples.
        requests = PoissonArrivals(60.0, deadline_ms=40.0).generate(2000.0, seed=1)
        simulator = TrafficSimulator(PLATFORM, _policy(kind), seed=1)
        result = simulator.run(requests)
        columns = result.columns
        assert result.records and result.num_requests == len(requests)
        result.write_trace(tmp_path / "trace.jsonl")
        assert "_box" not in columns.__dict__
        assert "_derive" in columns.__dict__ and "_rows" not in columns.__dict__
        parent = _parent_result(simulator, requests, result)
        expected = parent_compute_metrics(parent)
        assert repr(compute_metrics(result)) == repr(expected)
        block = columns._float_rows()
        assert "_derive" not in columns.__dict__ and columns._float_rows() is block
        assert repr(block.tolist()) == repr(parent_float_block(parent.columns).tolist())

    def test_boxed_columns_equal_the_records(self, result):
        columns = result.columns
        assert RequestColumns.from_records(result.records) == columns
        assert "_box" not in columns.__dict__
        assert result.num_requests == len(columns.index)

    @pytest.mark.parametrize(
        "clone",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_unboxed_store_clones_boxed(self, result, clone):
        columns = result.columns
        cloned = clone(columns)
        assert set(cloned.__dict__) == set(RequestColumns.__dataclass_fields__)
        assert cloned == columns and repr(cloned) == repr(columns)
        assert hash(cloned) == hash(columns)
        cloned_result = clone(result)
        assert cloned_result == result
        assert compute_metrics(cloned_result) == compute_metrics(result)

    def test_unknown_attribute_raises_without_boxing(self, result):
        with pytest.raises(AttributeError, match="nope"):
            result.columns.nope
        assert "_box" in result.columns.__dict__

    def test_hand_built_store_reduces_from_its_tuples(self, result):
        hand_built = replace(result, columns=RequestColumns.from_records(result.records))
        assert "_rows" not in hand_built.columns.__dict__
        for tenant in (None, "default", "nobody"):
            assert repr(compute_metrics(hand_built, tenant=tenant)) == repr(
                compute_metrics(result, tenant=tenant)
            )


# -- the reduction's two families of statistics -------------------------------------------
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestIndexPercentile:
    @settings(max_examples=400, deadline=None)
    @given(
        values=st.lists(_FINITE, min_size=1, max_size=40),
        q=st.one_of(st.sampled_from([0.0, 50.0, 95.0, 99.0, 100.0]), st.floats(0.0, 100.0)),
    )
    def test_matches_np_percentile_on_any_floats(self, values, q):
        ordered = np.sort(np.array(values, dtype=float))
        expected = float(np.percentile(ordered, q))
        assert repr(_percentile(ordered, q)) == repr(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=3000),
        distinct=st.integers(min_value=1, max_value=50),
        scale=st.sampled_from([1e-300, 1e-6, 1.0, 37.5, 1e6, 1e300]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_np_percentile_with_ties_and_wide_magnitudes(
        self, count, distinct, scale, seed
    ):
        rng = np.random.default_rng(seed)
        ordered = np.sort(rng.choice(scale * rng.random(distinct), size=count))
        for q in (50.0, 95.0, 99.0):
            assert repr(_percentile(ordered, q)) == repr(float(np.percentile(ordered, q)))

    @pytest.mark.parametrize(
        "values",
        [[3.0], [-0.0], [0.0], [1.0, 2.0], [2.0, 2.0], [-0.0, 0.0], [1e-308, 1e308],
         [1.0, float("nan")], [float("nan")], [-1e308, 1e308]],
    )
    def test_one_and_two_values_and_nan(self, values):
        ordered = np.sort(np.array(values, dtype=float))
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = float(np.percentile(ordered, q))
            assert repr(_percentile(ordered, q)) == repr(expected)


class TestRowWiseSums:
    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=5000),
        scale=st.sampled_from([1e-9, 1.0, 37.5, 1e9]),
        rounded=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_row_means_equal_five_one_dimensional_means(self, count, scale, rounded, seed):
        rng = np.random.default_rng(seed)
        block = scale * rng.random((7, count))
        if rounded:
            block = np.round(block, 1)
        block[0].sort()
        sums = block.sum(axis=1)
        for row in range(7):
            one_d = block[row]
            assert repr(float(one_d.sum())) == repr(float(sums[row]))
            assert repr(float(one_d.mean())) == repr(float(sums[row]) / count)
        assert repr(block[:5].mean(axis=1).tolist()) == repr(
            [float(block[row].mean()) for row in range(5)]
        )

    def test_large_replay_means_match(self):
        # Past numpy's pairwise-summation block sizes.
        rng = np.random.default_rng(11)
        latencies = np.sort(rng.random(20_000) * 50.0).tolist()
        result = _latency_result(latencies)
        measured, expected = compute_metrics(result), parent_compute_metrics(result)
        assert repr(measured) == repr(expected)
        assert math.isfinite(measured.mean_latency_ms)


def _latency_result(latencies) -> ServingResult:
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
            queueing_ms=tuple(0.5 * latency for latency in latencies),
            exit_stage=(0,) * count,
            num_stages=(1,) * count,
            deployment=("d",) * count,
            correct=tuple(index % 3 == 0 for index in range(count)),
            energy_mj=tuple(1.0 + latency for latency in latencies),
            deadline_ms=(None,) * count,
            deadline_missed=(False,) * count,
        ),
        duration_ms=1000.0,
        busy_ms={},
        mean_in_flight=0.0,
        peak_in_flight=0,
    )
