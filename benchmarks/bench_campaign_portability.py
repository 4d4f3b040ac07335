"""Cross-platform campaign bench: are searched mappings platform-specific?

Beyond the paper: the method is pitched as general over heterogeneous
MPSoCs, but the paper only ever deploys on the Xavier.  This bench runs one
campaign over three calibrated zoo presets — the paper's Xavier, an
Orin-class successor and a mobile big.LITTLE+NPU — with its cells fanned
over two worker processes, and then checks the claims the campaign
subsystem exists to make:

* every platform gets its own non-empty Pareto front, and the portability
  matrix covers every (source, target) pair;
* the whole campaign is byte-deterministic for a fixed seed: a serial rerun
  (sharing the evaluation cache, so cached and freshly computed paths must
  agree) renders the identical ``campaign_summary``;
* the Xavier-searched front is **not** Pareto-optimal on at least one other
  preset — translated Xavier mappings get dominated by natively searched
  ones, demonstrating the campaign finds platform-specific mappings rather
  than rediscovering one universal answer.

``REPRO_CAMPAIGN_SMOKE=1`` shrinks the grid to 2 platforms and a tiny
budget (CI smoke mode) without changing the assertions.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_campaign_portability.py -q
"""

from __future__ import annotations

import os

from repro.campaign import run_campaign
from repro.core.report import campaign_summary, portability_table
from repro.engine.cache import EvaluationCache
from repro.nn.models import visformer

SMOKE = os.environ.get("REPRO_CAMPAIGN_SMOKE", "") == "1"

PLATFORMS = (
    ("jetson-agx-xavier", "mobile-big-little")
    if SMOKE
    else ("jetson-agx-xavier", "jetson-agx-orin", "mobile-big-little")
)
GENERATIONS = 4 if SMOKE else 10
POPULATION = 10 if SMOKE else 20
SEED = 0


def test_campaign_portability(save_table):
    cache = EvaluationCache()
    campaign = run_campaign(
        visformer(),
        PLATFORMS,
        generations=GENERATIONS,
        population_size=POPULATION,
        cell_workers=2,
        cache=cache,
        seed=SEED,
    )

    summary = campaign_summary(campaign)
    print(summary)
    save_table("campaign_portability", summary)

    # Per-platform fronts and a complete portability matrix.
    for name in PLATFORMS:
        assert len(campaign.front(name)) >= 1
    matrix = campaign.portability_matrix()
    assert set(matrix) == {(a, b) for a in PLATFORMS for b in PLATFORMS if a != b}
    assert all(value > 0 for value in matrix.values())
    assert all(name in portability_table(campaign) for name in PLATFORMS)

    # Byte-determinism: the serial rerun shares the cache, so every number
    # must be reproduced exactly whether it came from the cache or a worker.
    rerun = run_campaign(
        visformer(),
        PLATFORMS,
        generations=GENERATIONS,
        population_size=POPULATION,
        cache=cache,
        seed=SEED,
    )
    assert campaign_summary(rerun) == summary

    # The headline: Xavier's searched front does not survive translation
    # intact — on at least one other preset some of its mappings are
    # dominated by the natively searched front.
    xavier_outbound = [
        entry for entry in campaign.portability if entry.source == "jetson-agx-xavier"
    ]
    assert xavier_outbound
    assert any(
        entry.surviving_on_front < entry.transferred for entry in xavier_outbound
    ), "every translated Xavier mapping stayed Pareto-optimal everywhere"
