#!/usr/bin/env python3
"""Deploying a searched mapping behind a realistic runtime exit controller.

The paper's analysis assumes ideal input mapping: every sample runs exactly
the stages it needs (Sect. III-B).  A deployed system instead decides at run
time from exit confidences.  This example takes the best energy-oriented
mapping found for Visformer and simulates it behind confidence-threshold
controllers of different strictness, quantifying how much of the idealised
energy gain survives a realistic policy and where the premature-exit /
escalation errors come from.

Run with:  python examples/runtime_controller.py
"""

from __future__ import annotations

from repro import MapAndConquer, jetson_agx_xavier, visformer
from repro.core.report import format_table
from repro.dynamics import ThresholdExitController


def main() -> None:
    framework = MapAndConquer(visformer(), jetson_agx_xavier(), seed=0)
    gpu_only = framework.baseline("gpu")

    result = framework.search(generations=15, population_size=20, seed=0)
    best = framework.select_energy_oriented(result.pareto, max_accuracy_drop=0.02)
    stage_accuracies = best.inference.exit_statistics.stage_accuracies

    rows = [
        {
            "policy": "ideal input mapping (paper)",
            "accuracy_%": 100 * best.accuracy,
            "avg_energy_mJ": best.energy_mj,
            "avg_latency_ms": best.latency_ms,
            "avg_stages": best.inference.exit_statistics.expected_stages(),
            "premature_exits_%": 0.0,
        }
    ]
    for threshold in (0.5, 0.7, 0.9):
        controller = ThresholdExitController(threshold=threshold, confidence_noise=0.1, seed=0)
        outcome = controller.simulate(stage_accuracies, best.profile, num_samples=10_000)
        rows.append(
            {
                "policy": f"confidence threshold {threshold:.1f}",
                "accuracy_%": 100 * outcome.accuracy,
                "avg_energy_mJ": outcome.expected_energy_mj,
                "avg_latency_ms": outcome.expected_latency_ms,
                "avg_stages": outcome.expected_stages,
                "premature_exits_%": 100 * outcome.premature_exit_fraction,
            }
        )

    print(f"selected mapping: {best.config.describe()}")
    print()
    print(format_table(rows))
    print()
    ideal_gain = gpu_only.energy_mj / best.energy_mj
    realistic_gain = gpu_only.energy_mj / rows[2]["avg_energy_mJ"]
    print(
        f"energy gain vs GPU-only: {ideal_gain:.2f}x under ideal input mapping, "
        f"{realistic_gain:.2f}x behind the 0.7-threshold controller"
    )
    print(
        "Raising the threshold trades premature exits (accuracy) against "
        "escalations (energy/latency) -- the knob a deployment would tune."
    )


if __name__ == "__main__":
    main()
