"""Checkpoint/serving interplay: resume fidelity and stale-family refresh.

The serving campaign persists two record kinds into one JSONL checkpoint
(search cells and serving cells).  These tests pin the interplay:

* a resumed serving campaign restores *every* cell and renders bytes
  identical to the uninterrupted run — including after a SIGKILL lands
  mid-sweep in a separate process;
* a stale family definition (or a grown family list) re-runs exactly the
  affected cells instead of reusing stale records, and logs the changed
  field;
* lines of older checkpoint formats, and search lines without the
  ``kind`` field, are never restored: their cells re-run and the summary
  matches a fresh run;
* a serving checkpoint written under another seed refuses to load.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.campaign import run_serving_campaign
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.core.report import traffic_ranking_summary
from repro.errors import ConfigurationError

PLATFORMS = ("jetson-agx-xavier", "mobile-big-little")


def _families(steady_rps: float = 150.0):
    from repro.serving.families import OnOffBurstFamily, SteadyPoissonFamily

    return (
        SteadyPoissonFamily(rate_rps=steady_rps),
        OnOffBurstFamily(burst_rps=250.0, idle_rps=20.0, burst_ms=400.0, idle_ms=400.0),
    )


BUDGET = dict(
    members_per_family=2,
    duration_ms=2500.0,
    generations=2,
    population_size=6,
    seed=3,
)


def _run(tiny_network, **overrides):
    options = {**BUDGET, **overrides}
    families = options.pop("families", _families())
    return run_serving_campaign(tiny_network, PLATFORMS, families=families, **options)


class TestResume:
    def test_resume_restores_every_cell_without_recomputing(
        self, tiny_network, tmp_path, monkeypatch
    ):
        first = _run(tiny_network, checkpoint_dir=tmp_path)

        calls = []
        import repro.campaign.serving_runner as serving_runner

        original = serving_runner._run_serving_cell
        monkeypatch.setattr(
            serving_runner,
            "_run_serving_cell",
            lambda task, *cache: calls.append(task) or original(task, *cache),
        )
        resumed = _run(tiny_network, checkpoint_dir=tmp_path)
        assert calls == []  # every serving cell came from the checkpoint
        assert traffic_ranking_summary(resumed) == traffic_ranking_summary(first)

    def test_checkpoint_file_holds_both_record_kinds(self, tiny_network, tmp_path):
        _run(tiny_network, checkpoint_dir=tmp_path)
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / CampaignCheckpoint.FILENAME)
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert kinds.count("search") == len(PLATFORMS)
        assert kinds.count("serving") == len(PLATFORMS) * len(_families())

    def test_serving_seed_mismatch_raises(self, tiny_network, tmp_path):
        _run(tiny_network, checkpoint_dir=tmp_path)
        path = tmp_path / CampaignCheckpoint.FILENAME
        # Keep only the serving records so the failure is attributable to
        # load_serving, not the search loader.
        serving_lines = [
            line
            for line in path.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["kind"] == "serving"
        ]
        path.write_text("\n".join(serving_lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="refusing to mix seeds"):
            _run(tiny_network, checkpoint_dir=tmp_path, seed=4)


class TestStaleFamilies:
    def test_stale_family_definition_reruns_only_its_cells(
        self, tiny_network, tmp_path, monkeypatch, caplog
    ):
        import logging

        first = _run(tiny_network, checkpoint_dir=tmp_path)

        calls = []
        import repro.campaign.serving_runner as serving_runner

        original = serving_runner._run_serving_cell
        monkeypatch.setattr(
            serving_runner,
            "_run_serving_cell",
            lambda task, *cache: calls.append((task.platform.name, task.family.name))
            or original(task, *cache),
        )
        with caplog.at_level(logging.INFO, logger="repro.campaign.checkpoint"):
            changed = _run(
                tiny_network,
                checkpoint_dir=tmp_path,
                families=_families(steady_rps=80.0),
            )
        # Exactly the redefined family's cells were recomputed...
        assert sorted(calls) == [
            (platform, "steady-poisson") for platform in sorted(PLATFORMS)
        ]
        # ...the log names the one field that changed...
        assert (
            f"re-running {len(PLATFORMS)} serving cells whose fields changed: "
            f"family ({len(PLATFORMS)})" in caplog.text
        )
        # ...with genuinely fresh records (different offered load), while the
        # untouched family's cells were restored bit for bit.
        for platform in PLATFORMS:
            assert (
                changed.cell(platform, "steady-poisson").members
                != first.cell(platform, "steady-poisson").members
            )
            assert (
                changed.cell(platform, "on-off-bursts").members
                == first.cell(platform, "on-off-bursts").members
            )

    def test_superseded_stale_lines_stop_counting_as_refreshed(
        self, tiny_network, tmp_path, monkeypatch, caplog
    ):
        import logging

        _run(tiny_network, checkpoint_dir=tmp_path)
        changed_families = _families(steady_rps=80.0)
        # Appends fresh lines for the redefined family; the old mismatching
        # lines stay in the append-only file.
        _run(tiny_network, checkpoint_dir=tmp_path, families=changed_families)

        calls = []
        import repro.campaign.serving_runner as serving_runner

        original = serving_runner._run_serving_cell
        monkeypatch.setattr(
            serving_runner,
            "_run_serving_cell",
            lambda task, *cache: calls.append(task) or original(task, *cache),
        )
        with caplog.at_level(logging.INFO, logger="repro.campaign.checkpoint"):
            _run(tiny_network, checkpoint_dir=tmp_path, families=changed_families)
        # Everything restores from the superseding lines: nothing re-runs and
        # the loader must not claim otherwise.
        assert calls == []
        assert not [
            record for record in caplog.records if "re-running" in record.message
        ]

    def test_grown_family_list_runs_only_new_cells(
        self, tiny_network, tmp_path, monkeypatch
    ):
        from repro.serving.families import DiurnalFamily

        first = _run(tiny_network, checkpoint_dir=tmp_path)
        calls = []
        import repro.campaign.serving_runner as serving_runner

        original = serving_runner._run_serving_cell
        monkeypatch.setattr(
            serving_runner,
            "_run_serving_cell",
            lambda task, *cache: calls.append(task.family.name) or original(task, *cache),
        )
        grown = _run(
            tiny_network,
            checkpoint_dir=tmp_path,
            families=_families() + (DiurnalFamily(peak_rps=120.0, period_ms=800.0),),
        )
        assert calls == ["diurnal"] * len(PLATFORMS)
        for cell in first.cells:
            assert (
                grown.cell(cell.platform_name, cell.family_name).members
                == cell.members
            )


class TestLegacyFormat:
    def test_search_lines_without_kind_field_still_restore(
        self, tiny_network, tmp_path, monkeypatch
    ):
        """Search lines written before the ``kind`` field existed are no
        longer read as search cells: their cells re-run, and the resumed
        campaign still renders the same summary as the first run."""
        import repro.campaign.runner as runner
        from repro.campaign import run_campaign
        from repro.core.report import campaign_summary

        options = dict(generations=2, population_size=6, seed=3)
        first = run_campaign(tiny_network, PLATFORMS, checkpoint_dir=tmp_path, **options)
        path = tmp_path / CampaignCheckpoint.FILENAME
        stripped = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("kind")
            stripped.append(json.dumps(record, ensure_ascii=False))
        path.write_text("\n".join(stripped) + "\n", encoding="utf-8")

        calls = []
        original = runner._run_cell
        monkeypatch.setattr(
            runner,
            "_run_cell",
            lambda task, *args, **kwargs: calls.append(task.platform.name)
            or original(task, *args, **kwargs),
        )
        resumed = run_campaign(
            tiny_network, PLATFORMS, checkpoint_dir=tmp_path, **options
        )
        assert sorted(calls) == sorted(PLATFORMS)
        assert campaign_summary(resumed) == campaign_summary(first)


class TestOlderFormat:
    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_older_checkpoint_reruns_every_cell(
        self, tiny_network, tmp_path, monkeypatch, caplog, version
    ):
        """Lines of an older version are never restored: version 1 (no
        per-field digests) and version 2 (results that still held their
        dynamic network).  Every search and serving cell re-runs, the log
        calls them an older format rather than damage, and the summary
        matches a fresh run."""
        import logging

        import repro.campaign.runner as runner
        import repro.campaign.serving_runner as serving_runner

        fresh = traffic_ranking_summary(_run(tiny_network, checkpoint_dir=tmp_path))
        path = tmp_path / CampaignCheckpoint.FILENAME
        older_lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record["version"] = version
            if version == 1:
                del record["fields"]
            older_lines.append(json.dumps(record, ensure_ascii=False))
        path.write_text("\n".join(older_lines) + "\n", encoding="utf-8")

        calls = []
        search_cell, serving_cell = runner._run_cell, serving_runner._run_serving_cell
        monkeypatch.setattr(
            runner,
            "_run_cell",
            lambda task, *args, **kwargs: calls.append("search")
            or search_cell(task, *args, **kwargs),
        )
        monkeypatch.setattr(
            serving_runner,
            "_run_serving_cell",
            lambda task, *cache: calls.append("serving") or serving_cell(task, *cache),
        )
        with caplog.at_level(logging.INFO, logger="repro.campaign.checkpoint"):
            resumed = _run(tiny_network, checkpoint_dir=tmp_path)
        assert calls.count("search") == len(PLATFORMS)
        assert calls.count("serving") == len(PLATFORMS) * len(_families())
        assert traffic_ranking_summary(resumed) == fresh
        assert "malformed" not in caplog.text
        # Each load counts only its own kind's lines, so every older line is
        # logged once: the search load's line counts the search cells, the
        # serving load's line the serving cells.
        older = [
            record.getMessage()
            for record in caplog.records
            if "older format" in record.getMessage()
        ]
        assert [re.search(r"ignored (\d+) lines", message).group(1) for message in older] == [
            str(calls.count("search")),
            str(calls.count("serving")),
        ]


class TestUnusableLines:
    def test_each_is_logged_once_per_run(self, tiny_network, tmp_path, caplog):
        """A line no load can use (not JSON, or of a version no release
        wrote) is counted and logged once per run, by the run's first load,
        though a serving campaign loads the file for its search cells and
        again for its serving cells."""
        import logging

        from repro.serving.families import SteadyPoissonFamily

        options = dict(
            families=[SteadyPoissonFamily(rate_rps=150.0)],
            members_per_family=1,
            duration_ms=1000.0,
            generations=1,
            population_size=4,
            seed=3,
            checkpoint_dir=tmp_path,
        )
        fresh = run_serving_campaign(tiny_network, PLATFORMS[:1], **options)
        path = tmp_path / CampaignCheckpoint.FILENAME
        with path.open("a", encoding="utf-8") as stream:
            stream.write("not json\n")
            stream.write(json.dumps({"version": 99, "kind": "serving"}) + "\n")
        with caplog.at_level(logging.INFO, logger="repro.campaign.checkpoint"):
            resumed = run_serving_campaign(tiny_network, PLATFORMS[:1], **options)
        assert traffic_ranking_summary(resumed) == traffic_ranking_summary(fresh)
        malformed = [
            record.getMessage() for record in caplog.records if "malformed" in record.getMessage()
        ]
        assert len(malformed) == 1
        assert "recovered 1 entries, skipped 2 malformed or foreign lines" in malformed[0]


_CHILD_SCRIPT = textwrap.dedent(
    """
    from repro.campaign import run_serving_campaign
    from repro.nn.graph import NetworkGraph
    from repro.nn.layers import (
        AttentionLayer,
        Conv2dLayer,
        FeedForwardLayer,
        LinearLayer,
    )
    from repro.serving.families import OnOffBurstFamily, SteadyPoissonFamily

    layers = (
        Conv2dLayer(
            name="conv1", width=16, in_width=3, kernel_size=3, stride=1,
            in_spatial=(8, 8), out_spatial=(8, 8),
        ),
        AttentionLayer(name="attn", width=32, in_width=16, tokens=16, num_heads=4),
        FeedForwardLayer(name="mlp", width=32, in_width=32, tokens=16, expansion=2.0),
        LinearLayer(name="head", width=10, in_width=32, tokens=1),
    )
    network = NetworkGraph(
        name="tiny", layers=layers, input_shape=(3, 8, 8),
        num_classes=10, base_accuracy=0.9, family="vit",
    )
    run_serving_campaign(
        network,
        {platforms!r},
        families=(
            SteadyPoissonFamily(rate_rps=150.0),
            OnOffBurstFamily(
                burst_rps=250.0, idle_rps=20.0, burst_ms=400.0, idle_ms=400.0
            ),
        ),
        members_per_family={members},
        duration_ms={duration},
        generations={generations},
        population_size={population},
        seed={seed},
        checkpoint_dir={checkpoint_dir!r},
    )
    """
)


class TestSigkillResume:
    def test_sigkill_mid_sweep_then_resume_is_byte_identical(
        self, tiny_network, tmp_path
    ):
        uninterrupted = traffic_ranking_summary(_run(tiny_network))

        checkpoint_dir = tmp_path / "checkpoints"
        checkpoint_file = checkpoint_dir / CampaignCheckpoint.FILENAME
        total_serving = len(PLATFORMS) * len(_families())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )

        def serving_lines() -> int:
            if not checkpoint_file.exists():
                return 0
            return checkpoint_file.read_text(encoding="utf-8").count('"kind": "serving"')

        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD_SCRIPT.format(
                    platforms=PLATFORMS,
                    members=BUDGET["members_per_family"],
                    duration=BUDGET["duration_ms"],
                    generations=BUDGET["generations"],
                    population=BUDGET["population_size"],
                    seed=BUDGET["seed"],
                    checkpoint_dir=str(checkpoint_dir),
                ),
            ],
            env=env,
        )
        try:
            # Kill as soon as the first serving cell lands — mid-sweep,
            # after the search cells but before the grid completes.
            deadline = time.monotonic() + 300.0
            while time.monotonic() < deadline:
                if serving_lines() >= 1:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.002)
            else:
                raise AssertionError("first serving checkpoint never appeared")
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait()

        finished = serving_lines()
        assert finished >= 1
        assert finished < total_serving, "child finished before the kill landed"

        resumed = _run(tiny_network, checkpoint_dir=checkpoint_dir)
        assert traffic_ranking_summary(resumed) == uninterrupted
