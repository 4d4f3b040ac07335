"""Golden-file regression pin of ``campaign_summary`` bytes.

A small 2-platform x 2-scenario grid at a fixed seed must render the exact
bytes stored in ``tests/data/campaign_summary_golden.txt`` — through both
the serial path and the cell-parallel runner.  Any change to search
semantics, evaluation numerics, translation rules or report formatting shows
up here as a diff against a file a reviewer can read, instead of as silent
drift.

To regenerate after an *intentional* change::

    PYTHONPATH=src python tests/test_campaign_golden.py --regenerate
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.campaign import CampaignScenario, run_campaign
from repro.core.report import campaign_summary

GOLDEN_PATH = Path(__file__).parent / "data" / "campaign_summary_golden.txt"

GRID = ("jetson-agx-xavier", "mobile-big-little")
SCENARIOS = (
    CampaignScenario(name="unconstrained"),
    CampaignScenario(name="half-reuse", max_reuse_fraction=0.5),
)
SEED = 3
BUDGET = dict(generations=2, population_size=6)


def _tiny_network():
    # Mirrors the conftest fixture; duplicated so --regenerate works as a
    # plain script outside pytest.
    from repro.nn.graph import NetworkGraph
    from repro.nn.layers import (
        AttentionLayer,
        Conv2dLayer,
        FeedForwardLayer,
        LinearLayer,
    )

    layers = (
        Conv2dLayer(
            name="conv1",
            width=16,
            in_width=3,
            kernel_size=3,
            stride=1,
            in_spatial=(8, 8),
            out_spatial=(8, 8),
        ),
        AttentionLayer(name="attn", width=32, in_width=16, tokens=16, num_heads=4),
        FeedForwardLayer(name="mlp", width=32, in_width=32, tokens=16, expansion=2.0),
        LinearLayer(name="head", width=10, in_width=32, tokens=1),
    )
    return NetworkGraph(
        name="tiny",
        layers=layers,
        input_shape=(3, 8, 8),
        num_classes=10,
        base_accuracy=0.9,
        family="vit",
    )


def _render(**overrides) -> str:
    network = overrides.pop("network", None) or _tiny_network()
    campaign = run_campaign(
        network, GRID, scenarios=SCENARIOS, seed=SEED, **BUDGET, **overrides
    )
    return campaign_summary(campaign) + "\n"


@pytest.fixture(scope="module")
def golden() -> str:
    assert GOLDEN_PATH.exists(), (
        f"golden file missing — regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).name} --regenerate`"
    )
    return GOLDEN_PATH.read_text(encoding="utf-8")


def test_serial_path_matches_golden(tiny_network, golden):
    assert _render(network=tiny_network) == golden


def test_cell_parallel_matches_golden(tiny_network, golden):
    assert _render(network=tiny_network, cell_workers=2) == golden


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("pass --regenerate to overwrite the golden file")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(_render(), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
