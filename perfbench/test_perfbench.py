"""Self-tests of the benchmark's own arithmetic (no workload is run).

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Ledger, Outcome, digest  # noqa: E402
from tracing import Tracer, covered_ns, instrument, layer_stats  # noqa: E402


def fake_clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


class TestSelfTime:
    def test_self_time_subtracts_children(self):
        # parent [0, 100) with children [10, 30) and [50, 60); grandchild
        # [12, 20) inside the first child.
        spans = [
            ["parent", 0, 100, -1],
            ["child", 10, 30, 0],
            ["grandchild", 12, 20, 1],
            ["child", 50, 60, 0],
        ]
        stats = layer_stats(spans)
        assert stats["parent"] == {"calls": 1, "total_ns": 100, "self_ns": 70}
        assert stats["child"] == {"calls": 2, "total_ns": 30, "self_ns": 22}
        assert stats["grandchild"]["self_ns"] == 8
        total_self = sum(entry["self_ns"] for entry in stats.values())
        assert total_self == 100

    def test_overlapping_children_are_not_subtracted_twice(self):
        assert covered_ns([(10, 30), (20, 40), (50, 55)]) == 35
        spans = [["p", 0, 100, -1], ["c", 10, 30, 0], ["c", 20, 40, 0]]
        assert layer_stats(spans)["p"]["self_ns"] == 70

    def test_wrapped_calls_record_nested_spans(self):
        tracer = Tracer(clock=fake_clock([0, 5, 9, 20]))
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
        outer()
        assert tracer.spans == [["outer", 0, 20, -1], ["inner", 5, 9, 0]]
        assert layer_stats(tracer.spans)["outer"]["self_ns"] == 16

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=fake_clock([0, 3]))

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            tracer.wrap("boom", boom)()
        assert tracer.spans == [["boom", 0, 3, -1]]
        assert tracer._stack == []


class TestInstrument:
    def test_patches_every_binding_and_restores(self):
        pytest.importorskip("numpy")
        sys.path.insert(0, str(HERE.parent / "src"))
        import repro.engine.engine as engine_module
        import repro.search.pareto as pareto_module

        original = pareto_module.pareto_front
        tracer = Tracer()
        undo = instrument(tracer)
        try:
            assert pareto_module.pareto_front is not original
            assert engine_module.pareto_front is pareto_module.pareto_front
            assert pareto_module.pareto_front([]) == []
        finally:
            undo()
        assert pareto_module.pareto_front is original
        assert engine_module.pareto_front is original
        assert [span[0] for span in tracer.spans] == ["search.pareto_front"]


def outcome(value, attempted=10, failed=0):
    return Outcome(digest=digest([value]), attempted=attempted, failed=failed, work=attempted)


class TestOutputChecks:
    def test_perturbed_output_fails_the_recorded_digest(self):
        ledger = Ledger(expected={"a": digest([1.0])})
        assert ledger.record("a", outcome(1.0))
        assert not ledger.record("a", outcome(1.0 + 1e-12))
        assert (ledger.attempted, ledger.failed, ledger.mismatches) == (20, 10, 1)
        assert not ledger.correct

    def test_without_a_record_repeats_must_agree(self):
        ledger = Ledger()
        assert ledger.record("a", outcome("x"))
        assert ledger.record("b", outcome("y"))
        assert ledger.record("a", outcome("x"))
        assert not ledger.record("b", outcome("z"))
        assert ledger.failed == 10

    def test_unrecorded_label_fails(self):
        ledger = Ledger(expected={})
        assert not ledger.record("a", outcome(1))

    def test_digest_keeps_every_float_digit(self):
        assert digest([0.1 + 0.2]) != digest([0.3])
        assert digest([b"x"]) == digest([b"x"])

    def test_recorded_digests_cover_default_and_held_out_seed(self):
        recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        for workload in ("search", "serve-static", "serve-adaptive", "campaign"):
            assert set(recorded[workload]) == {"0", "7"}


class TestFailedFraction:
    def test_invariant_failures_count_against_attempted(self):
        ledger = Ledger()
        ledger.record("a", outcome(1, attempted=400, failed=3))
        ledger.raised(100)
        assert (ledger.attempted, ledger.failed) == (500, 103)
        assert ledger.failed_frac == pytest.approx(103 / 500)
        assert not ledger.correct

    def test_clean_run_is_correct(self):
        ledger = Ledger()
        ledger.record("a", outcome(1))
        assert ledger.failed_frac == 0.0 and ledger.correct

    def test_nothing_attempted_is_not_correct(self):
        ledger = Ledger()
        assert ledger.failed_frac == 1.0 and not ledger.correct


def test_benchmark_json_lists_every_metric():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.per_layer_units().items()
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORK_UNITS)
