#!/usr/bin/env python3
"""Search one network across the platform zoo and compare the boards.

The paper evaluates on a single board; this example runs a cross-platform
campaign instead: the same Visformer is searched on the paper's Xavier, an
Orin-class successor and a mobile big.LITTLE+NPU SoC, every front is
re-ranked under one shared bursty traffic scenario, and the portability
matrix shows how much quality a mapping searched on one board leaves on the
table when deployed on another.  A derived what-if variant (an underclocked
Orin) demonstrates the ``derive`` helper on the same grid.

Run with:  python examples/cross_platform_campaign.py
"""

from __future__ import annotations

from repro import MapAndConquer, campaign_summary, visformer
from repro.serving import OnOffBursts
from repro.soc import derive, get_platform, platform_names


def main() -> None:
    print(f"registered presets: {', '.join(platform_names())}")
    print()

    # A what-if board generated from a registry preset: an Orin cut down to
    # 60 % clocks-for-power, as a thermally constrained chassis would run it.
    throttled_orin = derive(
        get_platform("jetson-agx-orin"),
        "jetson-agx-orin-throttled",
        gflops_scale=0.6,
        power_scale=0.7,
    )

    framework = MapAndConquer(visformer(), seed=0)  # defaults to the Xavier
    campaign = framework.campaign(
        ["jetson-agx-orin", "mobile-big-little", throttled_orin],
        generations=10,
        population_size=20,
        cell_workers=2,  # search the four boards two at a time
        traffic=OnOffBursts(burst_rps=60.0, idle_rps=10.0, burst_ms=2000.0, idle_ms=3000.0),
        traffic_duration_ms=20_000.0,
    )

    print(campaign_summary(campaign))
    print()

    xavier_away = [
        entry for entry in campaign.portability if entry.source == "jetson-agx-xavier"
    ]
    worst = max(xavier_away, key=lambda entry: entry.regret)
    print(
        f"deploying the Xavier-searched front on {worst.target} costs "
        f"{100.0 * (worst.regret - 1.0):.0f}% objective regret vs searching natively "
        f"({worst.surviving_on_front}/{worst.transferred} mappings stay Pareto-optimal)."
    )


if __name__ == "__main__":
    main()
