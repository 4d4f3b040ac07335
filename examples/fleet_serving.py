#!/usr/bin/env python3
"""Which fleet should serve a million requests a day?

The serving campaign picks the best single board for a traffic family; this
example asks the question an operator actually faces: given a **fleet** of
boards behind a router, which *mix* serves the daily diurnal load within the
p99 SLO at the fewest joules?  It sweeps three candidate fleets over a
scaled day —

* ``orin-pair``     — two Jetson AGX Orins (fast, power-hungry),
* ``nano-pair``     — two Nano-class boards (frugal, slow),
* ``hetero``        — one of each, behind a deadline-aware router with an
  autoscaler that powers the Orin down through the overnight valley,

— prints the fleet ranking, the autoscaler's boot/stop trace for the
heterogeneous mix, and the headline number: projected megajoules to serve
**1,000,000 requests/day** with each fleet.

Run with:  python examples/fleet_serving.py
"""

from __future__ import annotations

from repro import FleetMix, fleet_summary, run_fleet_campaign, visformer
from repro.serving import AutoscalerPolicy, simulate_fleet
from repro.serving.families import DiurnalFamily

#: A scaled day: each member replays one diurnal period with a 10:1 swing
#: between the midday peak and the overnight trough.
DAILY = DiurnalFamily(peak_rps=60.0, trough_fraction=0.1, period_ms=2000.0)

MIXES = (
    FleetMix(name="orin-pair", counts=(("jetson-agx-orin", 2),)),
    FleetMix(
        name="nano-pair",
        counts=(("jetson-nano-class", 2),),
        selection="latency",
    ),
    FleetMix(
        name="hetero",
        counts=(("jetson-agx-orin", 1), ("jetson-nano-class", 1)),
        selection="balanced",
        router="deadline-aware",
        autoscaler=AutoscalerPolicy(
            min_instances=1,
            target_utilisation=0.35,
            scale_down_utilisation=0.15,
            decision_interval_ms=200.0,
            window_ms=600.0,
        ),
    ),
)


def main() -> None:
    fleet = run_fleet_campaign(
        visformer(),
        MIXES,
        families=(DAILY,),
        members_per_family=3,
        duration_ms=4000.0,
        p99_slo_ms=120.0,
        generations=8,
        population_size=16,
        seed=0,
    )
    print(fleet_summary(fleet))

    # Replay the heterogeneous mix once more to show the autoscaler at work.
    hetero = next(mix for mix in fleet.mixes if mix.name == "hetero")
    result = simulate_fleet(
        fleet.instances("hetero"),
        DAILY.expand(fleet.seed, 1)[0],
        duration_ms=4000.0,
        router=hetero.router,
        autoscaler=hetero.autoscaler,
        seed=fleet.seed,
    )
    print()
    print(f"autoscaler trace for 'hetero' (initially {result.initial_active} warm):")
    if result.events:
        for event in result.events:
            print(
                f"  t={event.time_ms:8.1f} ms  {event.action:>4}  "
                f"{event.instance:<24} -> {event.active} active"
            )
    else:
        print("  (no scaling events; load never crossed the thresholds)")

    print()
    print("projected energy to serve 1,000,000 requests/day:")
    for cell in fleet.ranking(DAILY.name):
        slo = "within SLO" if cell.within_slo else "SLO MISS  "
        print(
            f"  {cell.mix_name:<10} {slo}  "
            f"{cell.daily_joules(1_000_000.0) / 1e6:7.3f} MJ/day"
        )
    best = fleet.best_mix(DAILY.name)
    print(f"\ndeploy: {best}")


if __name__ == "__main__":
    main()
