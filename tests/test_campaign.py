"""Tests for the cross-platform campaign subsystem (repro.campaign)."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignScenario,
    FleetMix,
    count_surviving_on_front,
    run_campaign,
    run_fleet_campaign,
    run_serving_campaign,
    translate_config,
)
from repro.campaign import runner as runner_module
from repro.core.framework import MapAndConquer
from repro.core.report import campaign_summary, campaign_table, portability_table
from repro.engine.cache import EvaluationCache
from repro.errors import ConfigurationError, MappingError
from repro.serving.workload import PoissonArrivals
from repro.soc.presets import get_platform

#: Tiny grid used by most tests: two three-unit boards.
GRID = ("jetson-agx-xavier", "mobile-big-little")
BUDGET = dict(generations=3, population_size=8)


@pytest.fixture(scope="module")
def tiny_network_module(tiny_network):
    """Module-scoped handle on the session-scoped toy network."""
    return tiny_network


@pytest.fixture(scope="module")
def tiny_campaign(tiny_network_module):
    return run_campaign(tiny_network_module, GRID, seed=0, **BUDGET)


class TestTranslation:
    def test_name_then_kind_then_order(self, tiny_campaign):
        xavier = get_platform("jetson-agx-xavier")
        mobile = get_platform("mobile-big-little")
        config = tiny_campaign.front("jetson-agx-xavier")[0].config
        translated = translate_config(config, xavier, mobile)
        assert len(translated.unit_names) == len(config.unit_names)
        assert set(translated.unit_names) <= set(mobile.unit_names)
        assert len(set(translated.unit_names)) == len(translated.unit_names)
        # DVFS indices are valid positions of each target unit's table.
        for name, index in zip(translated.unit_names, translated.dvfs_indices):
            assert 0 <= index < mobile.unit(name).num_dvfs_points()

    def test_exact_names_are_kept(self, tiny_campaign):
        xavier = get_platform("jetson-agx-xavier")
        orin = get_platform("jetson-agx-orin")
        config = tiny_campaign.front("jetson-agx-xavier")[0].config
        translated = translate_config(config, xavier, orin)
        # Xavier and Orin share the gpu/dla0/dla1 vocabulary.
        assert translated.unit_names == config.unit_names

    def test_dvfs_rebinds_by_scale_not_index(self):
        xavier = get_platform("jetson-agx-xavier")
        orin = get_platform("jetson-agx-orin")
        gpu_x, gpu_o = xavier.unit("gpu"), orin.unit("gpu")
        # Top operating point maps to top operating point even though the
        # tables have different lengths.
        top_index = gpu_x.num_dvfs_points() - 1
        assert gpu_o.dvfs.nearest_index(gpu_x.dvfs.scale(top_index)) == (
            gpu_o.num_dvfs_points() - 1
        )

    def test_too_many_stages_rejected(self, tiny_campaign):
        xavier = get_platform("jetson-agx-xavier")
        nano = get_platform("jetson-nano-class")
        config = tiny_campaign.front("jetson-agx-xavier")[0].config
        assert config.num_stages == 3
        with pytest.raises(MappingError, match="cannot translate"):
            translate_config(config, xavier, nano)

    def test_count_surviving_handles_empty_front(self, tiny_campaign):
        transferred = list(tiny_campaign.front("jetson-agx-xavier"))
        assert count_surviving_on_front(transferred, []) == len(transferred)


class TestRunCampaign:
    def test_grid_and_fronts(self, tiny_campaign):
        assert tiny_campaign.platform_names == GRID
        assert tiny_campaign.scenario_names == ("unconstrained",)
        assert len(tiny_campaign.cells) == 2
        for name in GRID:
            front = tiny_campaign.front(name)
            assert len(front) >= 1
            cell = tiny_campaign.cell(name)
            assert cell.best_objective > 0
            # Every front config speaks its own platform's vocabulary.
            units = set(get_platform(name).unit_names)
            for item in front:
                assert set(item.config.unit_names) <= units

    def test_portability_matrix_complete(self, tiny_campaign):
        matrix = tiny_campaign.portability_matrix()
        assert set(matrix) == {
            (a, b) for a in GRID for b in GRID if a != b
        }
        for value in matrix.values():
            assert value > 0
        entry = tiny_campaign.entry(GRID[0], GRID[1])
        assert entry.transferred == len(tiny_campaign.front(GRID[0]))
        assert 0 <= entry.surviving_on_front <= entry.transferred

    def test_unknown_cell_lookup_raises(self, tiny_campaign):
        with pytest.raises(ConfigurationError):
            tiny_campaign.cell("server-gpu")
        with pytest.raises(ConfigurationError):
            tiny_campaign.entry(GRID[0], GRID[0])

    def test_validation(self, tiny_network_module):
        with pytest.raises(ConfigurationError, match="at least one platform"):
            run_campaign(tiny_network_module, [], **BUDGET)
        with pytest.raises(ConfigurationError, match="distinct names"):
            run_campaign(tiny_network_module, ["server-gpu", "server-gpu"], **BUDGET)
        with pytest.raises(ConfigurationError, match="num_stages"):
            run_campaign(tiny_network_module, GRID, num_stages=9, **BUDGET)
        with pytest.raises(ConfigurationError, match="default scenario"):
            run_campaign(tiny_network_module, GRID, scenarios=[], **BUDGET)
        # An arrival process without a duration must fail before any search runs.
        with pytest.raises(ConfigurationError, match="traffic_duration_ms"):
            run_campaign(
                tiny_network_module, GRID, traffic=PoissonArrivals(10.0), **BUDGET
            )

    def test_scenario_zero_budget_is_an_error_not_the_default(self, tiny_network_module):
        """Regression: generations=0 used to silently fall back to the default."""
        from repro.errors import SearchError

        with pytest.raises(SearchError):
            run_campaign(
                tiny_network_module,
                ["jetson-agx-xavier"],
                scenarios=[CampaignScenario(name="typo", generations=0)],
                **BUDGET,
            )

    def test_evaluator_settings_reach_every_cell(self, tiny_network_module):
        result = run_campaign(
            tiny_network_module,
            ["jetson-agx-xavier"],
            reorder_channels=False,
            validation_samples=400,
            seed=0,
            **BUDGET,
        )
        default = run_campaign(
            tiny_network_module, ["jetson-agx-xavier"], seed=0, **BUDGET
        )
        # Different evaluator settings genuinely change the searched numbers.
        assert campaign_summary(result) != campaign_summary(default)

    def test_scenarios_and_shared_cache(self, tiny_network_module):
        cache = EvaluationCache()
        result = run_campaign(
            tiny_network_module,
            ["jetson-agx-xavier"],
            scenarios=[
                CampaignScenario(name="free"),
                CampaignScenario(name="half-reuse", max_reuse_fraction=0.5),
            ],
            cache=cache,
            seed=0,
            **BUDGET,
        )
        assert result.scenario_names == ("free", "half-reuse")
        assert len(result.cells) == 2
        assert len(cache) > 0
        capped = result.cell("jetson-agx-xavier", "half-reuse")
        for item in capped.result.feasible:
            assert item.reuse_fraction <= 0.5 + 1e-9

    def test_campaign_determinism_serial_vs_cell_parallel(self, tiny_network_module):
        """Same seed => byte-identical summary, across runs and cell pools."""
        serial_a = run_campaign(tiny_network_module, GRID, seed=7, **BUDGET)
        serial_b = run_campaign(tiny_network_module, GRID, seed=7, **BUDGET)
        parallel = run_campaign(tiny_network_module, GRID, seed=7, cell_workers=2, **BUDGET)
        assert campaign_summary(serial_a) == campaign_summary(serial_b)
        assert campaign_summary(serial_a) == campaign_summary(parallel)

    def test_traffic_rerank(self, tiny_network_module):
        result = run_campaign(
            tiny_network_module,
            ["jetson-agx-xavier"],
            traffic=PoissonArrivals(20.0),
            traffic_duration_ms=2000.0,
            seed=0,
            **BUDGET,
        )
        cell = result.cell("jetson-agx-xavier")
        assert cell.traffic_ranking is not None
        assert len(cell.traffic_ranking) == len(cell.front)
        scores = [r.score("p99_latency_ms") for r in cell.traffic_ranking]
        assert scores == sorted(scores)


class TestFacadeAndReport:
    def test_facade_prepends_own_platform(self, tiny_network_module):
        framework = MapAndConquer(tiny_network_module, seed=0)
        result = framework.campaign(["mobile-big-little"], **BUDGET)
        assert result.platform_names == ("jetson-agx-xavier", "mobile-big-little")
        # Already-listed platforms are not duplicated.
        again = framework.campaign(
            ["jetson-agx-xavier", "mobile-big-little"], **BUDGET
        )
        assert again.platform_names == ("jetson-agx-xavier", "mobile-big-little")

    def test_facade_own_cell_matches_search(self, tiny_network_module):
        """The prepended own-platform cell reproduces framework.search()."""
        framework = MapAndConquer(tiny_network_module, seed=0)
        native = framework.search(seed=0, **BUDGET)
        result = framework.campaign(["mobile-big-little"], **BUDGET)
        cell = result.cell("jetson-agx-xavier")
        assert cell.result.best.latency_ms == native.best.latency_ms
        assert cell.result.best.energy_mj == native.best.energy_mj
        assert len(cell.front) == len(native.pareto)

    @pytest.mark.parametrize("method", ["campaign", "serving_campaign", "fleet_campaign"])
    def test_facade_rejects_platform_specific_cost_model(
        self, tiny_network_module, method
    ):
        framework = MapAndConquer(
            tiny_network_module, use_surrogate=True, surrogate_samples=60, seed=0
        )
        grid = (
            [FleetMix(name="solo", counts=(("mobile-big-little", 1),))]
            if method == "fleet_campaign"
            else ["mobile-big-little"]
        )
        with pytest.raises(ConfigurationError, match=rf"{method}\(\) cannot reuse"):
            getattr(framework, method)(grid, **BUDGET)

    def test_report_helpers(self, tiny_campaign):
        table = campaign_table(tiny_campaign)
        assert "jetson-agx-xavier" in table and "travels" in table
        matrix = portability_table(tiny_campaign)
        assert "1.00*" in matrix
        summary = campaign_summary(tiny_campaign)
        assert "portability regret" in summary
        assert summary == campaign_summary(tiny_campaign)


#: Each runner called on the tiny grid; the fleet runner takes mixes instead.
RUNNERS = {
    "run_campaign": lambda network, **search: run_campaign(network, GRID, **search),
    "run_serving_campaign": lambda network, **search: run_serving_campaign(
        network, GRID, **search
    ),
    "run_fleet_campaign": lambda network, **search: run_fleet_campaign(
        network, [FleetMix(name="solo", counts=((GRID[0], 1),))], **search
    ),
}

#: Removed options and a typo of a real one.
UNKNOWN_KEYWORDS = {
    "surrogate": object(),
    "backend": "process",
    "n_workers": 2,
    "elite_fraction": 0.5,
    "mutation_rate": 0.5,
    "generation": 2,
}


class TestUnknownKeywords:
    @pytest.mark.parametrize("keyword", sorted(UNKNOWN_KEYWORDS))
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_runner_rejects_before_any_cell_runs(
        self, tiny_network_module, monkeypatch, runner, keyword
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a cell ran before the keyword check")

        monkeypatch.setattr(runner_module, "_run_cell", forbidden)
        message = rf"{runner}\(\) got an unexpected keyword argument '{keyword}'"
        with pytest.raises(TypeError, match=message):
            RUNNERS[runner](
                tiny_network_module, **{keyword: UNKNOWN_KEYWORDS[keyword]}, **BUDGET
            )

    @pytest.mark.parametrize(
        "keyword", ["surrogate", "backend", "n_workers", "elite_fraction", "mutation_rate"]
    )
    def test_search_rejects_removed_keyword(self, tiny_network_module, keyword):
        framework = MapAndConquer(tiny_network_module, seed=0)
        with pytest.raises(TypeError, match=keyword):
            framework.search(**{keyword: UNKNOWN_KEYWORDS[keyword]}, **BUDGET)

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_runner_rejects_unknown_strategy_before_any_checkpoint_or_cell(
        self, tiny_network_module, monkeypatch, tmp_path, runner
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a checkpoint or cell ran before the strategy check")

        monkeypatch.setattr(runner_module, "_run_cell", forbidden)
        monkeypatch.setattr(runner_module, "CampaignCheckpoint", forbidden)
        for typo in ("annealing", "nsga-2"):
            with pytest.raises(
                ConfigurationError,
                match=rf"unknown strategy '{typo}'; expected one of \('evolutionary'",
            ):
                RUNNERS[runner](
                    tiny_network_module,
                    strategy=typo,
                    checkpoint_dir=tmp_path,
                    **BUDGET,
                )
