"""Fleet campaign behaviour: determinism, checkpoints, ranking semantics.

The fleet campaign stacks a third record kind (``fleet``) onto the shared
JSONL checkpoint.  These tests pin:

* serial, cell-parallel and checkpoint-resumed sweeps produce identical
  cells and identical :func:`repro.core.report.fleet_summary` bytes,
* a resumed sweep restores every fleet cell without recomputing, while an
  edited mix definition re-runs exactly the affected cells,
* a fleet checkpoint written under another seed refuses to load,
* mix validation (duplicate names, unknown routers/selections, aliased
  platform names) fails fast, before any search tokens are spent,
* the ranking is lexicographic — SLO first, joules second — and
  ``best_mix`` refuses to crown a violator.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import FleetMix, run_fleet_campaign, select_front_point
from repro.campaign import runner as runner_module
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.core.report import fleet_summary, fleet_table
from repro.errors import ConfigurationError
from repro.serving import AutoscalerPolicy
from repro.serving.families import DiurnalFamily, SteadyPoissonFamily
from repro.soc.presets import get_platform


def _mixes():
    return (
        FleetMix(name="xavier-solo", counts=(("jetson-agx-xavier", 1),)),
        FleetMix(
            name="hetero",
            counts=(("jetson-agx-xavier", 1), ("jetson-nano-class", 1)),
            selection="balanced",
            router="energy-aware",
            autoscaler=AutoscalerPolicy(min_instances=1, window_ms=400.0),
        ),
    )


def _families():
    return (
        SteadyPoissonFamily(rate_rps=40.0),
        DiurnalFamily(peak_rps=70.0, trough_fraction=0.2, period_ms=800.0),
    )


BUDGET = dict(
    members_per_family=2,
    duration_ms=600.0,
    p99_slo_ms=150.0,
    generations=2,
    population_size=6,
    seed=3,
)


def _run(tiny_network, **overrides):
    options = {**BUDGET, **overrides}
    mixes = options.pop("mixes", _mixes())
    families = options.pop("families", _families())
    return run_fleet_campaign(tiny_network, mixes, families=families, **options)


class TestDeterminism:
    def test_serial_parallel_resume_identical(self, tiny_network, tmp_path):
        serial = _run(tiny_network)
        parallel = _run(tiny_network, cell_workers=2)
        checkpointed = _run(tiny_network, checkpoint_dir=tmp_path)
        resumed = _run(tiny_network, checkpoint_dir=tmp_path)
        reference = fleet_summary(serial)
        assert fleet_summary(parallel) == reference
        assert fleet_summary(checkpointed) == reference
        assert fleet_summary(resumed) == reference
        # Cell payloads agree structurally, not just in rendering.
        for left, right in zip(serial.cells, resumed.cells):
            assert left == right

    def test_cells_come_out_family_major(self, tiny_network):
        fleet = _run(tiny_network)
        expected = [
            (mix, family)
            for family in fleet.family_names
            for mix in fleet.mix_names
        ]
        assert [
            (cell.mix_name, cell.family_name) for cell in fleet.cells
        ] == expected
        assert fleet.members_per_family == BUDGET["members_per_family"]
        for cell in fleet.cells:
            assert len(cell.members) == BUDGET["members_per_family"]
            seeds = [outcome.traffic_seed for outcome in cell.members]
            assert len(set(seeds)) == len(seeds)


class TestCheckpoint:
    def test_resume_restores_every_fleet_cell(
        self, tiny_network, tmp_path, monkeypatch
    ):
        first = _run(tiny_network, checkpoint_dir=tmp_path)

        calls = []
        import repro.campaign.fleet_runner as fleet_runner

        original = fleet_runner._run_fleet_cell
        monkeypatch.setattr(
            fleet_runner,
            "_run_fleet_cell",
            lambda task, *caches: calls.append(task) or original(task, *caches),
        )
        resumed = _run(tiny_network, checkpoint_dir=tmp_path)
        assert calls == []  # every fleet cell came from the checkpoint
        assert fleet_summary(resumed) == fleet_summary(first)

    def test_checkpoint_holds_fleet_records(self, tiny_network, tmp_path):
        _run(tiny_network, checkpoint_dir=tmp_path)
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / CampaignCheckpoint.FILENAME)
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert kinds.count("fleet") == len(_mixes()) * len(_families())

    def test_edited_mix_reruns_only_its_cells(
        self, tiny_network, tmp_path, monkeypatch
    ):
        first = _run(tiny_network, checkpoint_dir=tmp_path)

        calls = []
        import repro.campaign.fleet_runner as fleet_runner

        original = fleet_runner._run_fleet_cell
        monkeypatch.setattr(
            fleet_runner,
            "_run_fleet_cell",
            lambda task, *caches: calls.append((task.mix_name, task.family.name))
            or original(task, *caches),
        )
        edited = (
            _mixes()[0],
            dataclasses.replace(_mixes()[1], router="deadline-aware"),
        )
        changed = _run(tiny_network, checkpoint_dir=tmp_path, mixes=edited)
        assert sorted(calls) == sorted(
            ("hetero", family.name) for family in _families()
        )
        for family in changed.family_names:
            assert (
                changed.cell("xavier-solo", family)
                == first.cell("xavier-solo", family)
            )

    def test_fleet_seed_mismatch_raises(self, tiny_network, tmp_path):
        _run(tiny_network, checkpoint_dir=tmp_path)
        path = tmp_path / CampaignCheckpoint.FILENAME
        fleet_lines = [
            line
            for line in path.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["kind"] == "fleet"
        ]
        path.write_text("\n".join(fleet_lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="refusing to mix seeds"):
            _run(tiny_network, checkpoint_dir=tmp_path, seed=4)


class TestValidation:
    def test_mix_validation(self):
        with pytest.raises(ConfigurationError):
            FleetMix(name="", counts=(("jetson-agx-xavier", 1),))
        with pytest.raises(ConfigurationError):
            FleetMix(name="x", counts=())
        with pytest.raises(ConfigurationError):
            FleetMix(name="x", counts=(("jetson-agx-xavier", 0),))
        with pytest.raises(ConfigurationError):
            FleetMix(
                name="x", counts=(("jetson-agx-xavier", 1),), selection="fastest"
            )
        with pytest.raises(ConfigurationError):
            FleetMix(
                name="x", counts=(("jetson-agx-xavier", 1),), router="teleport"
            )
        assert FleetMix(
            name="x", counts=(("jetson-agx-xavier", 2),)
        ).total_instances == 2

    def test_campaign_input_validation(self, tiny_network, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a cell ran before the input check")

        monkeypatch.setattr(runner_module, "_run_cell", forbidden)
        with pytest.raises(ConfigurationError, match="at least one mix"):
            run_fleet_campaign(tiny_network, ())
        duplicated = (_mixes()[0], _mixes()[0])
        with pytest.raises(ConfigurationError, match="distinct names"):
            run_fleet_campaign(tiny_network, duplicated)
        with pytest.raises(ConfigurationError, match="FleetMix"):
            run_fleet_campaign(tiny_network, ("jetson-agx-xavier",))
        with pytest.raises(ConfigurationError, match="members_per_family"):
            _run(tiny_network, members_per_family=0)
        with pytest.raises(ConfigurationError, match="duration_ms"):
            _run(tiny_network, duration_ms=0.0)

    def test_aliased_platform_name_rejected(self, tiny_network):
        xavier = get_platform("jetson-agx-xavier")
        impostor = dataclasses.replace(
            get_platform("jetson-nano-class"), name=xavier.name
        )
        mixes = (
            FleetMix(name="real", counts=((xavier, 1),)),
            FleetMix(name="fake", counts=((impostor, 1),)),
        )
        with pytest.raises(ConfigurationError, match="same-named boards"):
            run_fleet_campaign(tiny_network, mixes)


class TestRanking:
    @pytest.fixture(scope="class")
    def fleet(self, request, tmp_path_factory):
        tiny_network = request.getfixturevalue("tiny_network")
        return _run(tiny_network)

    def test_selection_modes_pick_from_the_front(self, fleet):
        scenario = fleet.campaign.scenario_names[0]
        front = fleet.campaign.front("jetson-agx-xavier", scenario)
        energy = select_front_point(front, "energy")
        latency = select_front_point(front, "latency")
        balanced = select_front_point(front, "balanced")
        for chosen in (energy, latency, balanced):
            assert chosen in front
        assert latency.latency_ms <= energy.latency_ms
        assert energy.energy_mj <= latency.energy_mj
        assert balanced.latency_ms <= energy.latency_ms + 1e-9
        assert balanced.energy_mj <= latency.energy_mj + 1e-9
        with pytest.raises(ConfigurationError):
            select_front_point(front, "fastest")
        with pytest.raises(ConfigurationError):
            select_front_point((), "energy")

    def test_deployments_cover_used_selections(self, fleet):
        assert set(fleet.deployments) == {
            ("jetson-agx-xavier", "energy"),
            ("jetson-agx-xavier", "balanced"),
            ("jetson-nano-class", "balanced"),
        }
        for (platform_name, selection), deployment in fleet.deployments.items():
            assert deployment.name == f"{platform_name}:{selection}"

    def test_ranking_is_slo_gated(self, fleet):
        for family in fleet.family_names:
            ranked = fleet.ranking(family)
            assert sorted(cell.mix_name for cell in ranked) == sorted(
                fleet.mix_names
            )
            # Within-SLO cells precede violators; joules ascend inside the
            # within-SLO block.
            flags = [cell.within_slo for cell in ranked]
            assert flags == sorted(flags, reverse=True)
            within = [cell.total_joules for cell in ranked if cell.within_slo]
            assert within == sorted(within)
            if ranked[0].within_slo:
                assert fleet.best_mix(family) == ranked[0].mix_name

    def test_best_mix_refuses_slo_violators(self, fleet):
        # Tighten every cell's SLO until nothing passes: best_mix must raise
        # rather than crown the least-bad violator.
        squeezed = dataclasses.replace(
            fleet,
            cells=tuple(
                dataclasses.replace(cell, p99_slo_ms=1e-6) for cell in fleet.cells
            ),
            p99_slo_ms=1e-6,
        )
        family = squeezed.family_names[0]
        assert all(not cell.within_slo for cell in squeezed.ranking(family))
        with pytest.raises(ConfigurationError, match="no swept mix"):
            squeezed.best_mix(family)

    def test_cell_lookup_and_errors(self, fleet):
        cell = fleet.cell("hetero", "diurnal")
        assert cell.mix_name == "hetero"
        assert cell.daily_joules(2_000_000.0) == pytest.approx(
            2.0 * cell.daily_joules()
        )
        with pytest.raises(ConfigurationError):
            fleet.cell("nonexistent", "diurnal")
        with pytest.raises(ConfigurationError):
            fleet.ranking("nonexistent")

    def test_instances_rebuild_each_mix_fleet(self, fleet):
        from repro.campaign.fleet_runner import _FleetCellTask, _run_fleet_cell

        family = _families()[0]
        for mix in fleet.mixes:
            instances = fleet.instances(mix.name)
            assert len(instances) == mix.total_instances
            for instance in instances:
                key = (instance.platform.name, mix.selection)
                assert instance.deployment == fleet.deployments[key]
                assert instance.boot_ms == mix.boot_ms
            # The rebuilt fleet replays the cell the campaign recorded.
            task = _FleetCellTask(
                mix_name=mix.name,
                family=family,
                instances=instances,
                router=mix.router,
                autoscaler=mix.autoscaler,
                members=fleet.members_per_family,
                duration_ms=fleet.duration_ms,
                p99_slo_ms=fleet.p99_slo_ms,
                deadline_ms=None,
                seed=fleet.seed,
                shed_backlog_ms=mix.shed_backlog_ms,
            )
            assert _run_fleet_cell(task, None, None) == fleet.cell(mix.name, family.name)
        with pytest.raises(
            ConfigurationError,
            match=r"^no fleet mix 'nonexistent'; have mixes \['xavier-solo', 'hetero'\]$",
        ):
            fleet.instances("nonexistent")

    def test_report_renders_every_cell(self, fleet):
        table = fleet_table(fleet)
        summary = fleet_summary(fleet)
        for mix in fleet.mix_names:
            assert mix in table and mix in summary
        for family in fleet.family_names:
            assert family in table and family in summary
        assert "fleet ranking (joules within p99 SLO, best first):" in summary
