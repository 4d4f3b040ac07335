"""Measured campaigns at grid scale: the shared cache pays for the simulator.

The tentpole claim of the measured-campaign layer, pinned as an assertion: a
campaign whose searches run under ``measured_serving_objectives`` shares one
:class:`~repro.serving.ServingResultCache` across every cell *and* the serving
replays afterwards — and that sharing avoids at least **30 %** of the total
simulator invocations compared to per-cell-isolated caches (each cell warming
its own private cache from cold).  The sharing is structural, not
coincidental: :meth:`WorkloadFamily.peak_member` replays each member under the
same ``member_traffic_seed`` stream a serving campaign uses, so when the
replay budget matches, every front candidate the serving sweep ranks was
already simulated — and content-keyed — during the search that produced it.

Also emitted into ``BENCH_measured_campaign.json`` via :mod:`perf_trajectory`:

* ``cells_per_min`` — campaign cells (search + serving) per minute of the
  shared-cache measured run;
* ``measured_vs_default_wallclock_x`` — measured campaign wall clock over
  the same-budget campaign under the default objectives (latency, energy,
  accuracy; no serving objective), i.e. the price of the simulator in the
  loop;
* the deterministic per-cell lookup/unique aggregates the campaign summary
  prints.

Both campaigns take well under a second, so one run of each says little:
the two wall-clock keys are the medians of ``REPEATS`` alternating
measured/default pairs (the ratio is taken per pair), each with its
``_min`` and ``_max`` beside it.

``REPRO_MEASURED_CAMPAIGN_SMOKE=1`` shrinks the search budget for the CI
smoke step without changing any assertion.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_measured_campaign.py -q
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

from perf_trajectory import emit

import repro.campaign.runner as runner_module
import repro.campaign.serving_runner as serving_runner_module
import repro.serving.bridge as bridge
from repro.campaign import run_serving_campaign
from repro.nn.models import resnet20
from repro.search import MeasuredObjectives
from repro.serving.families import SteadyPoissonFamily
from repro.serving.result_cache import ServingResultCache

SMOKE = os.environ.get("REPRO_MEASURED_CAMPAIGN_SMOKE", "") == "1"

PLATFORMS = ["jetson-agx-xavier", "mobile-big-little"]
FAMILY = SteadyPoissonFamily(rate_rps=40.0)
SEED = 3
#: One replay budget for search-time measurement *and* the serving sweep —
#: the alignment that lets the serving replays reuse search-time entries.
DURATION_MS = 400.0
MEMBERS = 1
GENERATIONS = 2 if SMOKE else 3
POPULATION = 6 if SMOKE else 10

MEASURED = MeasuredObjectives(family=FAMILY, duration_ms=DURATION_MS, members=MEMBERS)
BUDGET = dict(
    members_per_family=MEMBERS,
    duration_ms=DURATION_MS,
    generations=GENERATIONS,
    population_size=POPULATION,
    seed=SEED,
)

#: The headline floor: cross-cell sharing must avoid at least this fraction
#: of the simulator invocations a per-cell-isolated baseline pays.
AVOIDED_FLOOR = 0.30

#: Alternating measured/default campaign pairs behind the wall-clock keys.
REPEATS = 5


@contextmanager
def counting_simulators():
    """Count every ``TrafficSimulator`` the bridge constructs (= one replay)."""
    counter = {"n": 0}
    real = bridge.TrafficSimulator

    class Counting(real):
        def __init__(self, *args, **kwargs):
            counter["n"] += 1
            super().__init__(*args, **kwargs)

    bridge.TrafficSimulator = Counting
    try:
        yield counter
    finally:
        bridge.TrafficSimulator = real


@contextmanager
def isolated_cell_caches():
    """Sever the shared-cache wiring: every cell warms its own cache from cold.

    Each search and serving cell gets a fresh in-memory
    :class:`~repro.serving.result_cache.ServingResultCache` in place of the
    campaign-wide one — the per-cell isolated baseline the headline compares
    against.  Results are byte-identical either way; only the simulator
    invocation count differs.
    """
    real_cell = runner_module._run_cell
    real_serving = serving_runner_module._run_serving_cell

    def isolated_cell(task, cache, serving_cache):
        return real_cell(task, cache, ServingResultCache())

    def isolated_serving(task, cache, serving_cache):
        return real_serving(task, cache, ServingResultCache())

    runner_module._run_cell = isolated_cell
    serving_runner_module._run_serving_cell = isolated_serving
    try:
        yield
    finally:
        runner_module._run_cell = real_cell
        serving_runner_module._run_serving_cell = real_serving


def _measured_campaign():
    return run_serving_campaign(
        resnet20(),
        PLATFORMS,
        families=[FAMILY],
        measured_objectives=MEASURED,
        **BUDGET,
    )


def _default_campaign():
    """The same budget under the default objectives (no serving objective)."""
    return run_serving_campaign(resnet20(), PLATFORMS, families=[FAMILY], **BUDGET)


def _seconds(campaign) -> float:
    start = time.perf_counter()
    campaign()
    return time.perf_counter() - start


def _spread(name: str, values, digits: int) -> dict:
    """``name`` (the median of ``values``) with its ``_min`` and ``_max``."""
    return {
        name: round(statistics.median(values), digits),
        f"{name}_min": round(min(values), digits),
        f"{name}_max": round(max(values), digits),
    }


def test_shared_cache_beats_isolated_caches_by_the_floor(save_table):
    with counting_simulators() as shared_count:
        shared = _measured_campaign()
    shared_sims = shared_count["n"]

    with counting_simulators() as isolated_count, isolated_cell_caches():
        isolated = _measured_campaign()
    isolated_sims = isolated_count["n"]

    # The cache only removes duplicate simulator invocations — the campaigns
    # themselves must be byte-identical.
    from repro.core.report import traffic_ranking_summary

    assert traffic_ranking_summary(shared) == traffic_ranking_summary(isolated)

    # Headline: strictly fewer simulations, and at least the floor avoided.
    assert shared_sims < isolated_sims
    avoided_fraction = 1.0 - shared_sims / isolated_sims
    assert avoided_fraction >= AVOIDED_FLOOR, (
        f"shared cache avoided only {avoided_fraction:.1%} of "
        f"{isolated_sims} isolated simulator calls (floor {AVOIDED_FLOOR:.0%})"
    )

    # The wall-clock price of putting the simulator in the loop: alternating
    # pairs of the measured campaign and the default-objective one.
    pairs = [(_seconds(_measured_campaign), _seconds(_default_campaign)) for _ in range(REPEATS)]

    stats = [
        cell.measured_cache_stats
        for cell in shared.campaign.cells
        if cell.measured_cache_stats is not None
    ]
    lookups = sum(item.lookups for item in stats)
    unique = sum(item.unique for item in stats)
    cells = len(shared.campaign.cells) + len(shared.cells)

    metrics = {
        "smoke": SMOKE,
        "platforms": len(PLATFORMS),
        "families": 1,
        "generations": GENERATIONS,
        "population_size": POPULATION,
        "cells": cells,
        **_spread("cells_per_min", [cells / (measured / 60.0) for measured, _ in pairs], 1),
        "shared_simulator_calls": shared_sims,
        "isolated_simulator_calls": isolated_sims,
        "avoided_fraction": round(avoided_fraction, 3),
        "search_lookups": lookups,
        "search_unique_replays": unique,
        **_spread(
            "measured_vs_default_wallclock_x",
            [measured / default for measured, default in pairs],
            2,
        ),
        "repeats": REPEATS,
    }
    emit("measured_campaign", metrics)

    lines = ["measured campaign: shared vs per-cell-isolated serving cache", ""]
    lines += [f"{key}: {value}" for key, value in sorted(metrics.items())]
    save_table("measured_campaign_cache", "\n".join(lines) + "\n")
