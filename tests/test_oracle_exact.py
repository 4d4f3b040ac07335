"""The slice-table oracle against the per-call oracle it replaced, compared with ``==``.

The ``reference_*`` functions are verbatim copies of the per-call code: a
``LayerWorkload`` built per sub-layer for latency and again for energy, the
Eq. 8 recursion on numpy arrays, numpy importance coverage, and the
one-query-at-a-time channel arithmetic of ``PartitionScheme``.  Every field of
every object the oracle produces must equal the reference exactly (``==`` and
``repr``), on a cold slice table and on a warm one.  Cost models other than
the exact analytical oracle must see the same calls, in the same order, as
before, and no memo may leak into cache identities or pickled results.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.dynamics.accuracy import AccuracyModel
from repro.dynamics.inference import simulate_dynamic_inference
from repro.nn.models import resnet20, vgg19, visformer
from repro.nn.layers import LinearLayer
from repro.nn.multiexit import DynamicNetwork, Stage, SubLayer
from repro.nn.partition import RATIO_CHOICES, PartitionScheme, split_units
from repro.perf.evaluator import HardwareProfile, MappingEvaluator, StagePerformance
from repro.perf.layer_cost import AnalyticalCostModel, LayerWorkload, NoisyCostModel
from repro.perf.schedule import ScheduleResult, StageSchedule, simulate_schedule
from repro.search.evaluation import ConfigEvaluator
from repro.search.space import SearchSpace
from repro.soc.presets import get_platform

NETWORKS = {"visformer": visformer, "resnet20": resnet20, "vgg19": vgg19}
PLATFORMS = ("jetson-agx-xavier", "mobile-big-little", "jetson-nano-class")
CONFIGS_PER_CASE = 50
#: Unordered channels change only the coverage, so fewer configs cover them.
UNORDERED_CONFIGS_PER_CASE = 20


# -- reference: the per-call oracle ------------------------------------------------------
def reference_available_in_units(scheme, stage, layer):
    if layer == 0:
        return scheme.backbone[0].in_width
    own = scheme.stage_channels(stage, layer - 1)
    reused = sum(
        scheme.stage_channels(k, layer - 1)
        for k in range(stage)
        if scheme.indicator.reused(k, layer - 1)
    )
    return int(own + reused)


def reference_reused_input_bytes(scheme, stage, layer):
    if layer == 0 or stage == 0:
        return 0
    previous = scheme.backbone[layer - 1]
    total = 0
    for k in range(stage):
        if scheme.indicator.reused(k, layer - 1):
            total += previous.output_bytes(scheme.stage_channels(k, layer - 1))
    return int(total)


def reference_split_units(width, fractions, granularity=1):
    fractions = np.asarray(fractions, dtype=float)
    num_shares = fractions.size
    granules = width // granularity
    ideal = fractions * granules
    shares = np.maximum(1, np.floor(ideal).astype(int))
    while shares.sum() > granules:
        candidates = np.where(shares > 1)[0]
        victim = candidates[np.argmax(shares[candidates] - ideal[candidates])]
        shares[victim] -= 1
    remainder = ideal - shares
    while shares.sum() < granules:
        winner = int(np.argmax(remainder))
        shares[winner] += 1
        remainder[winner] -= 1.0
    assert len(shares) == num_shares
    return tuple(int(share) * granularity for share in shares)


def reference_build(network, partition, indicator, ranking, reorder):
    scheme = PartitionScheme(network=network, partition=partition, indicator=indicator)
    stages = []
    last_layer_index = scheme.num_layers - 1
    for stage_index in range(scheme.num_stages):
        sublayers = []
        for layer_index, layer in enumerate(scheme.backbone):
            sublayers.append(
                SubLayer(
                    base=layer,
                    stage_index=stage_index,
                    layer_index=layer_index,
                    in_units=reference_available_in_units(scheme, stage_index, layer_index),
                    out_units=scheme.stage_channels(stage_index, layer_index),
                    reused_input_bytes=reference_reused_input_bytes(
                        scheme, stage_index, layer_index
                    ),
                )
            )
        exit_in = scheme.stage_channels(stage_index, last_layer_index)
        exit_in += sum(
            scheme.stage_channels(k, last_layer_index)
            for k in range(stage_index)
            if scheme.indicator.reused(k, last_layer_index)
        )
        exit_head = LinearLayer(
            name=f"exit{stage_index}",
            width=network.num_classes,
            in_width=int(exit_in),
            tokens=1,
        )
        stages.append(Stage(index=stage_index, sublayers=tuple(sublayers), exit_head=exit_head))
    return DynamicNetwork(
        network=network,
        scheme=scheme,
        stages=tuple(stages),
        ranking=ranking,
        reordered=reorder and ranking is not None,
    )


def reference_stage_coverage(dynamic_network, stage):
    per_layer = []
    scheme = dynamic_network.scheme
    for layer_index, layer in enumerate(scheme.backbone):
        included = [stage] + [k for k in range(stage) if scheme.indicator.reused(k, layer_index)]
        if dynamic_network.reordered and dynamic_network.ranking is not None:
            curve = dynamic_network.ranking.cumulative_curve(layer.name)
            curve = np.concatenate(([0.0], curve))
            mass = 0.0
            for k in included:
                start, end = scheme.stage_range(k, layer_index)
                mass += float(curve[end] - curve[start])
        else:
            owned = sum(scheme.stage_channels(k, layer_index) for k in included)
            mass = owned / layer.width
        per_layer.append(min(1.0, mass))
    return float(np.mean(per_layer))


class ReferenceAccuracy:
    def __init__(self, model):
        self.model = model

    def stage_accuracies(self, dynamic_network):
        base = dynamic_network.network.base_accuracy
        family = dynamic_network.network.family
        accuracies = []
        best_so_far = 0.0
        for stage_index in range(dynamic_network.num_stages):
            coverage = reference_stage_coverage(dynamic_network, stage_index)
            accuracy = self.model.stage_accuracy_from_coverage(coverage, base, family)
            best_so_far = max(best_so_far, accuracy)
            accuracies.append(best_so_far)
        return tuple(accuracies)


def reference_schedule(dynamic_network, units, scales, cost_model, interconnect):
    num_stages = dynamic_network.num_stages
    num_layers = dynamic_network.num_layers
    indicator = dynamic_network.scheme.indicator
    scheme = dynamic_network.scheme

    taus = np.zeros((num_stages, num_layers))
    for stage in dynamic_network.stages:
        for sub in stage.sublayers:
            workload = LayerWorkload.from_sublayer(sub)
            taus[stage.index, sub.layer_index] = cost_model.latency_ms(
                workload, units[stage.index], scales[stage.index]
            )

    transfer = np.zeros((num_stages, num_layers))
    for stage_index in range(num_stages):
        for layer_index, layer in enumerate(scheme.backbone):
            feature_bytes = layer.output_bytes(scheme.stage_channels(stage_index, layer_index))
            transfer[stage_index, layer_index] = interconnect.transfer_latency_ms(feature_bytes)

    cumulative = np.zeros((num_stages, num_layers))
    stalls = np.zeros(num_stages)
    transfer_totals = np.zeros(num_stages)
    for layer_index in range(num_layers):
        for stage_index in range(num_stages):
            own_ready = cumulative[stage_index, layer_index - 1] if layer_index > 0 else 0.0
            dependency_ready = own_ready
            if layer_index > 0:
                for k in range(stage_index):
                    if indicator.reused(k, layer_index - 1):
                        ready = cumulative[k, layer_index - 1] + transfer[k, layer_index - 1]
                        transfer_totals[stage_index] += transfer[k, layer_index - 1]
                        dependency_ready = max(dependency_ready, ready)
            stalls[stage_index] += max(0.0, dependency_ready - own_ready)
            cumulative[stage_index, layer_index] = (
                taus[stage_index, layer_index] + dependency_ready
            )

    schedules = []
    for stage in dynamic_network.stages:
        exit_workload = LayerWorkload.from_layer(stage.exit_head)
        exit_latency = cost_model.latency_ms(
            exit_workload, units[stage.index], scales[stage.index]
        )
        schedules.append(
            StageSchedule(
                stage_index=stage.index,
                unit_name=units[stage.index].name,
                scale=float(scales[stage.index]),
                sublayer_latencies_ms=tuple(taus[stage.index].tolist()),
                cumulative_latencies_ms=tuple(cumulative[stage.index].tolist()),
                exit_latency_ms=float(exit_latency),
                transfer_latency_ms=float(transfer_totals[stage.index]),
                stall_ms=float(stalls[stage.index]),
            )
        )
    return ScheduleResult(stages=tuple(schedules))


def reference_profile(platform, cost_model, dynamic_network, unit_names, dvfs_indices):
    units = [platform.unit(name) for name in unit_names]
    scales = [unit.scale_for_point(int(index)) for unit, index in zip(units, dvfs_indices)]
    schedule = reference_schedule(
        dynamic_network, units, scales, cost_model, platform.interconnect
    )
    interconnect = platform.interconnect
    performances = []
    for stage, stage_schedule in zip(dynamic_network.stages, schedule.stages):
        unit = platform.unit(unit_names[stage.index])
        scale = scales[stage.index]
        compute_energy = 0.0
        for sub in stage.sublayers:
            workload = LayerWorkload.from_sublayer(sub)
            compute_energy += cost_model.energy_mj(workload, unit, scale)
        exit_workload = LayerWorkload.from_layer(stage.exit_head)
        compute_energy += cost_model.energy_mj(exit_workload, unit, scale)
        transfer_energy = interconnect.transfer_energy_mj(stage.imported_bytes())
        performances.append(
            StagePerformance(
                stage_index=stage.index,
                unit_name=unit.name,
                dvfs_scale=float(scale),
                latency_ms=stage_schedule.total_latency_ms,
                busy_ms=stage_schedule.busy_latency_ms,
                stall_ms=stage_schedule.stall_ms,
                transfer_ms=stage_schedule.transfer_latency_ms,
                compute_energy_mj=compute_energy,
                transfer_energy_mj=transfer_energy,
            )
        )
    profile = HardwareProfile(
        stages=tuple(performances),
        stored_feature_bytes=dynamic_network.stored_feature_bytes(),
    )
    return schedule, profile


# -- helpers -----------------------------------------------------------------------------
def assert_identical(actual, expected):
    assert actual == expected
    assert repr(actual) == repr(expected)


def check_config(evaluator, config, cost_model):
    reference = reference_build(
        evaluator.network,
        config.partition,
        config.indicator,
        evaluator.ranking,
        evaluator.reorder_channels,
    )
    schedule, profile = reference_profile(
        evaluator.platform, cost_model, reference, config.unit_names, config.dvfs_indices
    )
    inference = simulate_dynamic_inference(
        reference,
        profile,
        accuracy_model=ReferenceAccuracy(evaluator.accuracy_model),
        validation_samples=evaluator.validation_samples,
    )
    # Cold and warm slice table: the second evaluation hits every slice.
    for _ in range(2):
        evaluated = evaluator.evaluate(config)
        assert_identical(evaluated.dynamic_network.stages, reference.stages)
        assert_identical(evaluated.profile, profile)
        assert_identical(evaluated.inference, inference)
    # The per-call table of the public entry points.
    dynamic = evaluated.dynamic_network
    units = [evaluator.platform.unit(name) for name in config.unit_names]
    scales = [s.dvfs_scale for s in profile.stages]
    assert_identical(
        simulate_schedule(dynamic, units, scales, cost_model, evaluator.platform.interconnect),
        schedule,
    )
    direct = MappingEvaluator(evaluator.platform, cost_model=cost_model)
    assert_identical(direct.profile(dynamic, config.unit_names, config.dvfs_indices), profile)
    for stage in range(dynamic.num_stages):
        assert_identical(dynamic.stage_coverage(stage), reference_stage_coverage(dynamic, stage))


@pytest.fixture(scope="module")
def networks():
    return {name: build() for name, build in NETWORKS.items()}


# -- tests -------------------------------------------------------------------------------
class TestOracleMatchesPerCallReference:
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    @pytest.mark.parametrize("network_name", sorted(NETWORKS))
    @pytest.mark.parametrize("reorder", [True, False], ids=["reordered", "unordered"])
    def test_random_configs(self, networks, network_name, platform_name, reorder):
        network = networks[network_name]
        platform = get_platform(platform_name)
        space = SearchSpace(network, platform)
        evaluator = ConfigEvaluator(network, platform, reorder_channels=reorder, seed=0)
        count = CONFIGS_PER_CASE if reorder else UNORDERED_CONFIGS_PER_CASE
        for config in space.population(count, seed=len(network_name)):
            check_config(evaluator, config, AnalyticalCostModel())

    def test_capped_reuse_and_fewer_stages(self, networks):
        network = networks["visformer"]
        platform = get_platform("jetson-agx-xavier")
        evaluator = ConfigEvaluator(network, platform, seed=3)
        capped = SearchSpace(network, platform, max_reuse_fraction=0.5)
        two_stage = SearchSpace(network, platform, num_stages=2)
        configs = capped.population(CONFIGS_PER_CASE, seed=1) + two_stage.population(10, seed=2)
        for config in configs:
            check_config(evaluator, config, AnalyticalCostModel())


class TestSplitUnitsMatchesNumpyRounding:
    def test_random_and_tied_fractions(self):
        rng = np.random.default_rng(0)
        ratios = np.array(RATIO_CHOICES)
        cases = [(96, [1 / 3, 1 / 3, 1 / 3], 1), (192, [0.98, 0.01, 0.01], 32)]
        for _ in range(3000):
            shares = int(rng.integers(1, 6))
            granularity = int(rng.choice([1, 2, 32, 64]))
            width = granularity * int(rng.integers(shares, 40))
            # Search-space ratios (many ties), uniform shares, and skewed
            # shares whose floor-of-one overshoots the granule budget.
            raw = [
                rng.choice(ratios, size=shares),
                rng.random(shares),
                rng.dirichlet(np.full(shares, 0.2)),
            ][int(rng.integers(3))]
            cases.append((width, (raw / raw.sum()).tolist(), granularity))
        for width, fractions, granularity in cases:
            assert split_units(width, fractions, granularity) == reference_split_units(
                width, fractions, granularity
            )


class RecordingCostModel:
    """Analytical costs, with every call logged in order."""

    def __init__(self):
        self.base = AnalyticalCostModel()
        self.calls = []

    def latency_ms(self, workload, unit, scale):
        self.calls.append(("latency", workload, unit.name, scale))
        return self.base.latency_ms(workload, unit, scale)

    def energy_mj(self, workload, unit, scale):
        self.calls.append(("energy", workload, unit.name, scale))
        return self.base.energy_mj(workload, unit, scale)


class TestPerCallModels:
    def test_call_order_is_unchanged(self, visformer_net, platform):
        model = RecordingCostModel()
        evaluator = ConfigEvaluator(visformer_net, platform, cost_model=model, seed=0)
        config = SearchSpace(visformer_net, platform).sample(5)
        for _ in range(2):
            model.calls.clear()
            evaluated = evaluator.evaluate(config)
            stages = evaluated.dynamic_network.stages
            scales = [s.dvfs_scale for s in evaluated.profile.stages]

            def call(kind, workload, stage):
                return (kind, workload, config.unit_names[stage.index], scales[stage.index])

            expected = [
                call("latency", LayerWorkload.from_sublayer(sub), stage)
                for stage in stages
                for sub in stage.sublayers
            ]
            expected += [
                call("latency", LayerWorkload.from_layer(stage.exit_head), stage)
                for stage in stages
            ]
            for stage in stages:
                expected += [
                    call("energy", LayerWorkload.from_sublayer(sub), stage)
                    for sub in stage.sublayers
                ]
                expected.append(call("energy", LayerWorkload.from_layer(stage.exit_head), stage))
            slices = sum(len(stage.sublayers) + 1 for stage in stages)
            assert len(model.calls) == 2 * slices
            assert model.calls == expected

    def test_noisy_model_reproduces_recorded_draws(self, visformer_net, platform):
        evaluator = ConfigEvaluator(
            visformer_net,
            platform,
            cost_model=NoisyCostModel(noise_std=0.05, seed=3),
            seed=0,
        )
        config = SearchSpace(visformer_net, platform).sample(11)
        # The second evaluation continues the noise stream where the first
        # left it, so it pins the number of draws as well as their order.
        for latency, energy in NOISY_REPRS:
            evaluated = evaluator.evaluate(config)
            assert (repr(evaluated.latency_ms), repr(evaluated.energy_mj)) == (latency, energy)


#: ``(latency_ms, energy_mj)`` reprs of two evaluations of one config through a
#: ``NoisyCostModel(noise_std=0.05, seed=3)`` evaluator on visformer / Xavier,
#: recorded with the per-call oracle.
NOISY_REPRS = (
    ("12.568496027261286", "26.70860908733917"),
    ("12.84882775616906", "26.669247494365948"),
)


class TestCacheIdentity:
    def test_shared_cost_model_keeps_digests(self, visformer_net, platform):
        model = AnalyticalCostModel()
        first = ConfigEvaluator(visformer_net, platform, cost_model=model, seed=0)
        configs = SearchSpace(visformer_net, platform).population(5, seed=4)
        for config in configs:
            first.evaluate(config)
        second = ConfigEvaluator(visformer_net, platform, cost_model=model, seed=0)
        for config in configs:
            assert first.content_digest(config) == second.content_digest(config)

    def test_pickled_objects_hold_only_their_fields(self, visformer_net, platform):
        evaluator = ConfigEvaluator(visformer_net, platform, seed=0)
        for config in SearchSpace(visformer_net, platform).population(5, seed=6):
            evaluated = evaluator.evaluate(config)
        dynamic = evaluated.dynamic_network

        def field_names(obj):
            return {field.name for field in dataclasses.fields(obj)}

        assert set(vars(evaluator.ranking)) == field_names(evaluator.ranking)
        assert set(vars(dynamic)) == field_names(dynamic)
        assert set(vars(dynamic.scheme)) == field_names(dynamic.scheme) | {"_backbone", "_channels"}
        assert isinstance(evaluator.accuracy_model, AccuracyModel)
