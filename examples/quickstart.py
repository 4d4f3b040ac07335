#!/usr/bin/env python3
"""Quickstart: map Visformer onto the Jetson AGX Xavier in a few lines.

Runs the full Map-and-Conquer pipeline with a small search budget:

1. build the Visformer network graph and the Xavier platform model,
2. evaluate the GPU-only and DLA-only baselines,
3. run a short evolutionary search over (P, I, M, theta),
4. extract the energy- and latency-oriented models from the Pareto set and
   print a Table-II style comparison,
5. rerun the same budget through the pluggable engine with the NSGA-II
   strategy (``strategy=``), reusing the framework's evaluation cache.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import MapAndConquer, jetson_agx_xavier, visformer
from repro.core.report import format_table, search_summary, table2_row


def main() -> None:
    network = visformer()
    platform = jetson_agx_xavier()
    print(platform.describe())
    print()
    print(network.summary())
    print()

    framework = MapAndConquer(network, platform, seed=0)

    # Single-CU baselines (the "GPU-Only" / "DLA-Only" rows of Table II).
    gpu_only = framework.baseline("gpu")
    dla_only = framework.baseline("dla0")

    # Evolutionary search over partitioning, feature reuse, mapping and DVFS.
    result = framework.search(generations=20, population_size=24, seed=0)
    print(
        f"search finished: {result.num_evaluations} configurations evaluated, "
        f"{len(result.pareto)} on the Pareto front"
    )

    ours_latency = framework.select_latency_oriented(result.pareto, max_accuracy_drop=0.02)
    ours_energy = framework.select_energy_oriented(result.pareto, max_accuracy_drop=0.02)

    rows = [
        table2_row("None", "GPU", gpu_only, use_worst_case=True),
        table2_row("None", "DLA", dla_only, use_worst_case=True),
        table2_row("Map-and-Conquer", "Ours-L", ours_latency),
        table2_row("Map-and-Conquer", "Ours-E", ours_energy),
    ]
    print()
    print(format_table(rows))
    print()
    print(f"selected mapping (Ours-E): {ours_energy.config.describe()}")
    print(
        f"energy gain vs GPU-only : {gpu_only.energy_mj / ours_energy.energy_mj:.2f}x, "
        f"speedup vs DLA-only : {dla_only.latency_ms / ours_latency.latency_ms:.2f}x"
    )

    # The search stack is pluggable: swap the optimiser for NSGA-II.  The
    # default strategy="evolutionary" reproduces the paper's loop; both share
    # the framework's evaluation cache, so configurations already scored
    # above are not scored again.
    nsga = framework.search(generations=20, population_size=24, seed=0, strategy="nsga2")
    print()
    print("NSGA-II strategy:")
    print(search_summary(nsga))


if __name__ == "__main__":
    main()
