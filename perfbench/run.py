"""Repository benchmark: search, static and adaptive serving, measured campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` times half the budget untraced and half traced, and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Everything before it is a human-readable report: raw
timings, modelled results beside the paper's figures, provenance.

End-to-end times are host-normalised (see :mod:`hostspeed`): each is scaled
by the run's measured host speed, so a slow stretch on a shared host does not
read as a regression.  Per-layer numbers are raw.

``--record`` stores the run's output digests in ``expected.json`` as the
reference for that seed; the default seed 0 and held-out seed 7 are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

#: Unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: What one unit of ``work_per_s`` and one call of ``call_p50_ms`` are.
WORK_UNITS = {
    "search": ("evals_per_s", "distinct oracle evaluation", "search() + picks"),
    "serve-static": ("sim_req_per_s", "simulated request", "replay + compute_metrics"),
    "serve-adaptive": ("sim_req_per_s", "simulated request", "replay + compute_metrics"),
    "campaign": ("cells_per_s", "search or serving cell", "run_serving_campaign + summary"),
}

#: Paper figures the modelled gains sit beside (the analytical oracle is
#: not validated against hardware, so only the direction is comparable).
PAPER_REFERENCE = {"energy_gain_vs_gpu_x": 2.1, "latency_gain_vs_dla_x": 1.7}

#: Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = {
    "nn / perf / dynamics.simulate_dynamic_inference / search.ConfigEvaluator": (
        "work_per_s on search and campaign; no change on serve-*"
    ),
    "search.pareto_front / dominates / hypervolume": (
        "work_per_s on campaign first, search second"
    ),
    "engine cache / SerialBackend / Strategy.ask+tell": "work_per_s on search",
    "serving.TrafficSimulator.run / decide / compute_metrics": (
        "work_per_s and call_p50_ms on serve-*; a small share on campaign"
    ),
    "serving.ServingPolicy.select": "serve-adaptive only",
    "serving.ServingResultCache": "work_per_s on campaign",
    "campaign cells / CampaignCheckpoint / core.report": "work_per_s on campaign",
}


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in BENCHMARK.json order."""
    from tracing import SPAN_NAMES

    units = {}
    for span in SPAN_NAMES:
        units.update(
            {
                f"{span}.calls": "count",
                f"{span}.self_s": "s",
                f"{span}.us_per_call": "us",
                f"{span}.share": "ratio",
            }
        )
    units.update(
        {
            "engine.EvaluationCache.hits": "count",
            "engine.EvaluationCache.lookups": "count",
            "engine.EvaluationCache.hit_ratio": "ratio",
            "serving.ServingResultCache.avoided": "count",
            "serving.ServingResultCache.unique_sims": "count",
            "serving.ServingResultCache.avoided_ratio": "ratio",
            "search.dominates.per_candidate": "ratio",
            "serving.TrafficSimulator.run.requests": "count",
            "serving.TrafficSimulator.run.us_per_request": "us",
            "trace.wall_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


def fresh_import_s(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the workloads (and repro)."""
    probe = (
        "import sys, time; start = time.perf_counter(); "
        f"sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
        "import workloads; print(time.perf_counter() - start)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def measure(calls, seconds: float, ledger, speed, tracer=None):
    """Cycle through ``calls`` (each at least once) until ``seconds`` pass,
    timing the host-speed kernel between calls."""
    samples: List[tuple] = []
    counters: Counter = Counter()
    modelled: Dict[str, list] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(calls) or time.perf_counter() < deadline:
        call = calls[done % len(calls)]
        done += 1
        execute = call.execute if tracer is None else tracer.wrap("perfbench.call", call.execute)
        try:
            state = call.prepare()
            start = time.perf_counter()
            output = execute(state)
            elapsed = time.perf_counter() - start
            outcome = call.check(output)
        except Exception:  # noqa: BLE001 - a raised call fails its operations
            traceback.print_exc(file=sys.stderr)
            ledger.raised(call.nominal_ops)
            continue
        speed.sample()
        ledger.record(call.label, outcome)
        samples.append((call.label, elapsed, outcome.work))
        counters.update(outcome.counters)
        for key, value in outcome.modelled.items():
            modelled[key].append(value)
    return samples, counters, modelled


def throughput(samples) -> float:
    """Work per second from each input's median call time (robust to stalls)."""
    times: Dict[str, list] = defaultdict(list)
    work: Dict[str, float] = {}
    for label, elapsed, amount in samples:
        times[label].append(elapsed)
        work[label] = amount
    return sum(work.values()) / sum(statistics.median(times[label]) for label in times)


def tail(times: List[float]) -> dict:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(times)
    for percentile in (99, 90, 50):
        if len(ordered) * (100 - percentile) / 100 >= 10:
            value = ordered[int(percentile / 100 * (len(ordered) - 1))]
            return {"percentile": percentile, "ms": 1e3 * value, "samples": len(ordered)}
    return {"percentile": None, "samples": len(ordered)}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, counters: Counter, overhead_frac: float) -> Dict[str, float]:
    from tracing import ROOT_SPAN, SPAN_NAMES, layer_stats

    stats = layer_stats(tracer.spans)
    wall_ns = stats.get(ROOT_SPAN, {}).get("total_ns", 0)
    metrics: Dict[str, float] = {}
    for span in SPAN_NAMES:
        entry = stats.get(span, {"calls": 0, "total_ns": 0, "self_ns": 0})
        metrics[f"{span}.calls"] = entry["calls"]
        metrics[f"{span}.self_s"] = entry["self_ns"] / 1e9
        metrics[f"{span}.us_per_call"] = ratio(entry["total_ns"] / 1e3, entry["calls"])
        metrics[f"{span}.share"] = ratio(entry["self_ns"], wall_ns)
    counters = counters + tracer.counters
    hits = counters["engine.EvaluationCache.hits"]
    lookups = counters["engine.EvaluationCache.lookups"]
    serving_lookups = metrics["serving.ServingResultCache.lookup.calls"]
    avoided = counters["serving.ServingResultCache.avoided"]
    requests = counters["serving.TrafficSimulator.run.requests"]
    run_ns = stats.get("serving.TrafficSimulator.run", {}).get("total_ns", 0)
    metrics.update(
        {
            "engine.EvaluationCache.hits": hits,
            "engine.EvaluationCache.lookups": lookups,
            "engine.EvaluationCache.hit_ratio": ratio(hits, lookups),
            "serving.ServingResultCache.avoided": avoided,
            "serving.ServingResultCache.unique_sims": serving_lookups - avoided,
            "serving.ServingResultCache.avoided_ratio": ratio(avoided, serving_lookups),
            "search.dominates.per_candidate": ratio(
                metrics["search.dominates.calls"], metrics["nn.build_dynamic_network.calls"]
            ),
            "serving.TrafficSimulator.run.requests": requests,
            "serving.TrafficSimulator.run.us_per_request": ratio(run_ns / 1e3, requests),
            "trace.wall_s": wall_ns / 1e9,
            "trace.overhead_frac": overhead_frac,
        }
    )
    return metrics


def provenance(workload: str) -> dict:
    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    return {
        "nproc": os.cpu_count(),
        "python": host.python_version(),
        "numpy": numpy.__version__,
        "machine": host.machine(),
        "why": why[workload],
        "layer_map": LAYER_MAP,
        "execution": "closed loop, one client, serial backend; arrivals are simulated time",
        "workload": workload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNITS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {src}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    import workloads  # imports numpy and repro

    import_times = [time.perf_counter() - started]
    from checks import EXPECTED_PATH, Ledger, load_expected
    from hostspeed import HostSpeed

    # Set-up is normalised by the host speed seen during set-up, the timed
    # calls by the speed seen while they ran.
    setup_speed = HostSpeed()
    for _ in range(SETUP_REPEATS - 1):
        setup_speed.sample(force=True)
        import_times.append(fresh_import_s(src))
    setup = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_speed.sample(force=True)
        start = time.perf_counter()
        calls = setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    raw_setup_s = statistics.median(import_times) + statistics.median(setup_times)
    speed = HostSpeed(setup_speed.cpus)

    expected = None if args.record else load_expected(args.workload, args.seed)
    ledger = Ledger(expected)
    report: dict = {"provenance": provenance(args.workload)}
    if args.trace == 0:
        samples, counters, modelled = measure(calls, args.seconds, ledger, speed)
        raw = {
            "setup_s": raw_setup_s,
            "work_per_s": throughput(samples),
            "call_p50_ms": 1e3 * statistics.median(elapsed for _, elapsed, _ in samples),
        }
        factor = speed.factor
        metrics = {
            "setup_s": raw["setup_s"] * setup_speed.factor,
            "work_per_s": raw["work_per_s"] / factor,
            "call_p50_ms": raw["call_p50_ms"] * factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        report["raw"] = raw
        report["host_speed"] = {
            "factor": factor,
            "setup_factor": setup_speed.factor,
            "kernel_samples": len(speed.samples),
            "cpus": speed.cpus,
        }
    else:
        from tracing import Tracer, instrument

        plain, _, _ = measure(calls, args.seconds / 2, ledger, speed)
        traced_speed = HostSpeed(setup_speed.cpus)
        tracer = Tracer()
        undo = instrument(tracer)
        try:
            samples, counters, modelled = measure(
                calls, args.seconds / 2, ledger, traced_speed, tracer
            )
        finally:
            undo()
        # Each half normalised by its own host speed, so drift between the
        # halves does not read as tracing cost.
        overhead = (throughput(plain) / speed.factor) / (
            throughput(samples) / traced_speed.factor
        ) - 1.0
        metrics = layer_metrics(tracer, counters, overhead)
        units = per_layer_units()
        workloads.SCRATCH.mkdir(exist_ok=True)
        trace_path = workloads.SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))

    alias, unit_of_work, call = WORK_UNITS[args.workload]
    report.update(
        {
            "work": {"alias": alias, "unit": unit_of_work, "call": call},
            "setup": {"import_s": import_times, "inputs_s": setup_times},
            "call_tail": tail([elapsed for _, elapsed, _ in samples]),
            "failed_frac": ledger.failed_frac,
            "output_check": "recorded digests" if expected else "repeat digests",
            "modelled": {key: statistics.median(values) for key, values in modelled.items()},
            "paper_reference": PAPER_REFERENCE,
            "model_note": "analytical cost model, not validated against hardware",
        }
    )
    if args.record:
        recorded = (
            json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.exists() else {}
        )
        recorded.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(ledger.seen.items()))
        EXPECTED_PATH.write_text(
            json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )

    print(json.dumps(report, indent=1, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload:>15} {name:<52} {value:>14.6g} {units[name]}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
