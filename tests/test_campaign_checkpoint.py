"""Checkpointing, cell parallelism and warm starts of repro.campaign.

The tentpole guarantees under test:

* a campaign interrupted after any cell and resumed via ``checkpoint_dir``
  renders a ``campaign_summary`` byte-identical to an uninterrupted run,
  without re-searching the finished cells;
* ``cell_workers > 1`` matches the sequential path bit for bit;
* checkpoints refuse to mix seeds or configurations, survive corrupted
  lines, and a grown grid re-runs exactly the new cells;
* ``warm_start=True`` seeds later platforms with translated Pareto points
  and stays deterministic across sequential and parallel execution.
"""

from __future__ import annotations

import hashlib
import json
import logging

import pytest

from repro.campaign import (
    CampaignCheckpoint,
    CellExpectation,
    campaign_fingerprint,
    run_campaign,
)
from repro.campaign import runner as runner_module
from repro.core.report import campaign_summary
from repro.engine.cache import EvaluationCache
from repro.errors import ConfigurationError

GRID = ("jetson-agx-xavier", "mobile-big-little")
BUDGET = dict(generations=2, population_size=6)
SEED = 11


@pytest.fixture(scope="module")
def baseline_summary(tiny_network):
    """The uninterrupted, checkpoint-free reference output."""
    return campaign_summary(run_campaign(tiny_network, GRID, seed=SEED, **BUDGET))


def _interrupt_after(monkeypatch, n_cells):
    """Make the sequential cell loop die after ``n_cells`` searches."""
    calls = {"count": 0}
    original = runner_module._run_cell

    def exploding(task, cache, serving_cache):
        if calls["count"] >= n_cells:
            raise KeyboardInterrupt("simulated mid-campaign crash")
        calls["count"] += 1
        return original(task, cache, serving_cache)

    monkeypatch.setattr(runner_module, "_run_cell", exploding)
    return calls


class TestResumeByteIdentity:
    @pytest.mark.parametrize("crash_after", [1])
    def test_interrupted_then_resumed_is_byte_identical(
        self, tiny_network, tmp_path, monkeypatch, baseline_summary, crash_after
    ):
        calls = _interrupt_after(monkeypatch, crash_after)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET
            )
        assert calls["count"] == crash_after
        monkeypatch.undo()

        # Resume: only the unfinished cells may be searched again.
        searched = []
        original = runner_module._run_cell

        def counting(task, cache, serving_cache):
            searched.append(task.platform.name)
            return original(task, cache, serving_cache)

        monkeypatch.setattr(runner_module, "_run_cell", counting)
        resumed = run_campaign(
            tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET
        )
        assert campaign_summary(resumed) == baseline_summary
        assert len(searched) == len(GRID) - crash_after

    def test_fully_checkpointed_rerun_searches_nothing(
        self, tiny_network, tmp_path, monkeypatch, baseline_summary
    ):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)

        def forbidden(task, cache, serving_cache):
            raise AssertionError(f"cell {task.platform.name} was re-searched")

        monkeypatch.setattr(runner_module, "_run_cell", forbidden)
        rerun = run_campaign(
            tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET
        )
        assert campaign_summary(rerun) == baseline_summary

    def test_resumed_run_refills_the_shared_cache(self, tiny_network, tmp_path):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        cache = EvaluationCache()
        run_campaign(
            tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, cache=cache, **BUDGET
        )
        # Restored cells bypass evaluation entirely, yet their histories are
        # merged back so the grid-wide cache stays complete.
        assert len(cache) > 0


class TestCellParallelism:
    def test_cell_parallel_matches_sequential(self, tiny_network, baseline_summary):
        parallel = run_campaign(
            tiny_network, GRID, seed=SEED, cell_workers=2, **BUDGET
        )
        assert campaign_summary(parallel) == baseline_summary

    def test_cell_parallel_writes_checkpoints(self, tiny_network, tmp_path):
        run_campaign(
            tiny_network,
            GRID,
            seed=SEED,
            cell_workers=2,
            checkpoint_dir=tmp_path,
            **BUDGET,
        )
        lines = (tmp_path / CampaignCheckpoint.FILENAME).read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(GRID)

    def test_invalid_cell_workers_rejected(self, tiny_network):
        with pytest.raises(ConfigurationError, match="cell_workers"):
            run_campaign(tiny_network, GRID, cell_workers=0, **BUDGET)


class TestCheckpointEdgeCases:
    def test_grown_grid_runs_only_new_cells(self, tiny_network, tmp_path, monkeypatch):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)

        searched = []
        original = runner_module._run_cell

        def counting(task, cache, serving_cache):
            searched.append(task.platform.name)
            return original(task, cache, serving_cache)

        monkeypatch.setattr(runner_module, "_run_cell", counting)
        # Orin has three units like the original grid members, so the stage
        # count (and hence every fingerprint) is unchanged.
        grown = run_campaign(
            tiny_network,
            GRID + ("jetson-agx-orin",),
            seed=SEED,
            checkpoint_dir=tmp_path,
            **BUDGET,
        )
        assert searched == ["jetson-agx-orin"]
        assert grown.platform_names == GRID + ("jetson-agx-orin",)

    def test_corrupted_line_reruns_that_cell_only(
        self, tiny_network, tmp_path, monkeypatch, baseline_summary, caplog
    ):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        path = tmp_path / CampaignCheckpoint.FILENAME
        lines = path.read_text(encoding="utf-8").splitlines()
        # Truncate the second cell's payload mid-base64 (mid-write crash).
        path.write_text(
            lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n", encoding="utf-8"
        )

        searched = []
        original = runner_module._run_cell

        def counting(task, cache, serving_cache):
            searched.append(task.platform.name)
            return original(task, cache, serving_cache)

        monkeypatch.setattr(runner_module, "_run_cell", counting)
        with caplog.at_level(logging.WARNING, logger="repro.campaign.checkpoint"):
            resumed = run_campaign(
                tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET
            )
        assert campaign_summary(resumed) == baseline_summary
        assert len(searched) == 1
        assert any("malformed" in record.message for record in caplog.records)

    def test_different_seed_raises_not_mixes(self, tiny_network, tmp_path):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        with pytest.raises(ConfigurationError, match="seed"):
            run_campaign(
                tiny_network, GRID, seed=SEED + 1, checkpoint_dir=tmp_path, **BUDGET
            )

    def test_different_budget_raises_not_mixes(self, tiny_network, tmp_path, caplog):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        with caplog.at_level(logging.WARNING, logger="repro.campaign.checkpoint"):
            with pytest.raises(ConfigurationError, match="fingerprint"):
                run_campaign(
                    tiny_network,
                    GRID,
                    seed=SEED,
                    checkpoint_dir=tmp_path,
                    generations=BUDGET["generations"] + 1,
                    population_size=BUDGET["population_size"],
                )
        # The rejection names the strict field that changed, and only it.
        assert "changed: generations)" in caplog.text

    def test_line_with_a_removed_field_reruns_its_cell(
        self, tiny_network, tmp_path, monkeypatch, baseline_summary, caplog
    ):
        """A line stored with one more refreshable field than this run has —
        the ``surrogate`` field older checkpoints carry — re-runs its cell
        once: it neither raises nor restores, and the log names the field."""
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        path = tmp_path / CampaignCheckpoint.FILENAME
        first, *rest = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(first)
        record["fields"]["surrogate"] = hashlib.sha256(b"None").hexdigest()[:12]
        record["fingerprint"] = campaign_fingerprint(**record["fields"])
        path.write_text(
            "\n".join([json.dumps(record, ensure_ascii=False), *rest]) + "\n",
            encoding="utf-8",
        )

        searched, loads = [], []
        original = runner_module._run_cell

        def counting(task, cache, serving_cache):
            searched.append(task.platform.name)
            return original(task, cache, serving_cache)

        class RecordingCheckpoint(CampaignCheckpoint):
            def _load(self, *args):
                loads.append(self)
                return super()._load(*args)

        monkeypatch.setattr(runner_module, "_run_cell", counting)
        monkeypatch.setattr(runner_module, "CampaignCheckpoint", RecordingCheckpoint)
        with caplog.at_level(logging.INFO, logger="repro.campaign.checkpoint"):
            resumed = run_campaign(
                tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET
            )
        assert searched == [record["platform"]]
        assert loads[0].stats.refreshed == 1
        assert loads[0].stats.restored == len(GRID) - 1
        assert "search cells whose fields changed: surrogate (1)" in caplog.text
        assert campaign_summary(resumed) == baseline_summary

    def test_same_named_but_recalibrated_platform_raises(self, tiny_network, tmp_path):
        """Platform identity is content, not name: a same-named board with
        different calibration must not restore the other board's results."""
        from repro.soc.presets import derive, get_platform

        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        impostor = derive(get_platform(GRID[0]), GRID[0], gflops_scale=0.5)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_campaign(
                tiny_network,
                (impostor, GRID[1]),
                seed=SEED,
                checkpoint_dir=tmp_path,
                **BUDGET,
            )

    def test_same_named_but_different_network_raises(self, tiny_network, tmp_path):
        import dataclasses

        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        shrunk = dataclasses.replace(tiny_network, base_accuracy=0.8)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_campaign(shrunk, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)

    def test_changed_objective_keeps_checkpoints_valid(
        self, tiny_network, tmp_path, monkeypatch
    ):
        """The scalar objective is post-hoc: changing it must not re-search."""
        from repro.search.objectives import energy_oriented_objective

        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)

        def forbidden(task, cache, serving_cache):
            raise AssertionError("objective change should not re-search cells")

        monkeypatch.setattr(runner_module, "_run_cell", forbidden)
        rescored = run_campaign(
            tiny_network,
            GRID,
            seed=SEED,
            checkpoint_dir=tmp_path,
            objective=energy_oriented_objective,
            **BUDGET,
        )
        assert len(rescored.cells) == len(GRID)

    def test_stale_platform_lines_are_ignored(self, tiny_network, tmp_path):
        run_campaign(tiny_network, GRID, seed=SEED, checkpoint_dir=tmp_path, **BUDGET)
        shrunk = run_campaign(
            tiny_network,
            GRID[:1],
            seed=SEED,
            num_stages=3,  # keep the 2-platform stage count => same fingerprint
            checkpoint_dir=tmp_path,
            **BUDGET,
        )
        assert shrunk.platform_names == GRID[:1]

    def test_checkpoint_load_tolerates_unknown_version_and_blank_lines(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path, seed=0)
        (tmp_path / CampaignCheckpoint.FILENAME).write_text(
            "\n" + json.dumps({"version": 99}) + "\nnot json at all\n", encoding="utf-8"
        )
        restored = checkpoint.load({("p", "s"): CellExpectation()})
        assert restored == {}
        assert checkpoint.stats.malformed == 2


class TestWarmStart:
    def test_warm_start_deterministic_and_parallel_equal(self, tiny_network):
        sequential = run_campaign(
            tiny_network, GRID, seed=SEED, warm_start=True, **BUDGET
        )
        parallel = run_campaign(
            tiny_network, GRID, seed=SEED, warm_start=True, cell_workers=2, **BUDGET
        )
        assert campaign_summary(sequential) == campaign_summary(parallel)

    def test_first_platform_is_cold_started(self, tiny_network):
        warm = run_campaign(tiny_network, GRID, seed=SEED, warm_start=True, **BUDGET)
        cold = run_campaign(tiny_network, GRID, seed=SEED, warm_start=False, **BUDGET)
        first = GRID[0]
        assert (
            warm.cell(first).result.best.latency_ms
            == cold.cell(first).result.best.latency_ms
        )

    def test_warm_seeds_reach_the_strategy(self, tiny_network, monkeypatch):
        seen = []
        original = runner_module._run_cell

        def spying(task, cache, serving_cache):
            seen.append((task.platform.name, len(task.warm_seeds)))
            return original(task, cache, serving_cache)

        monkeypatch.setattr(runner_module, "_run_cell", spying)
        run_campaign(tiny_network, GRID, seed=SEED, warm_start=True, **BUDGET)
        by_platform = dict(seen)
        assert by_platform[GRID[0]] == 0
        assert 1 <= by_platform[GRID[1]] <= BUDGET["population_size"] // 2

    def test_warm_start_respects_checkpoint_donor_chain(
        self, tiny_network, tmp_path, monkeypatch
    ):
        """Inserting a platform *before* a checkpointed cell re-runs it."""
        run_campaign(
            tiny_network, GRID, seed=SEED, warm_start=True, checkpoint_dir=tmp_path, **BUDGET
        )

        searched = []
        original = runner_module._run_cell

        def counting(task, cache, serving_cache):
            searched.append(task.platform.name)
            return original(task, cache, serving_cache)

        monkeypatch.setattr(runner_module, "_run_cell", counting)
        reordered = (GRID[0], "jetson-agx-orin", GRID[1])
        run_campaign(
            tiny_network,
            reordered,
            seed=SEED,
            warm_start=True,
            checkpoint_dir=tmp_path,
            **BUDGET,
        )
        # Xavier's donors are unchanged (none); Orin is new; mobile's donor
        # chain gained Orin, so its checkpoint is invalid and it re-runs.
        assert sorted(searched) == sorted(["jetson-agx-orin", GRID[1]])
