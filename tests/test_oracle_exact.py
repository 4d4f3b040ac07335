"""The slice-table oracle against the per-call oracle it replaced, compared with ``==``.

The ``reference_*`` functions are verbatim copies of the per-call code: a
``LayerWorkload`` built per sub-layer for latency and again for energy, the
Eq. 8 recursion on numpy arrays, numpy importance coverage, and the
one-query-at-a-time channel arithmetic of ``PartitionScheme``.  Every field of
every object the oracle produces must equal the reference exactly (``==`` and
``repr``), on a cold slice table and on a warm one.  Cost models other than
the exact analytical oracle must see the same calls, in the same order, as
before, and no memo may leak into cache identities or pickled results.

A second set of references copies the numpy-on-scalars helpers that the
list-and-float oracle replaced: the ``np.isfinite`` scalar checks, the
``np.allclose``/``np.isin`` matrix validators, the validating ``split_units``,
the numpy exit statistics, the ``cumulative_*`` inference loop, and the layer
accounting that resolved its units in every method (``Parent*Layer``).  They
are compared on hypothesis inputs by value, ``repr`` and exception type and
message.  The one intended difference is asserted explicitly: ``P`` accepts
column sums within ``1e-6`` of one (``np.allclose`` allowed ``1.1e-5``, which
``split_units`` then rejected inside ``evaluate``), and a NaN entry of ``P``
fails the range check rather than the column-sum check.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.accuracy import AccuracyModel
from repro.dynamics.inference import DynamicInferenceResult, simulate_dynamic_inference
from repro.dynamics.samples import ExitStatistics, compute_exit_statistics
from repro.errors import ConfigurationError, PartitionError
from repro.nn.layers import (
    BYTES_PER_ELEMENT,
    AttentionLayer,
    Conv2dLayer,
    FeedForwardLayer,
    Layer,
    LinearLayer,
)
from repro.nn.models import resnet20, vgg19, visformer
from repro.nn.multiexit import DynamicNetwork, Stage, SubLayer, build_dynamic_network
from repro.nn.partition import (
    RATIO_CHOICES,
    IndicatorMatrix,
    PartitionMatrix,
    PartitionScheme,
    split_units,
)
from repro.perf.evaluator import HardwareProfile, MappingEvaluator, StagePerformance
from repro.perf.layer_cost import AnalyticalCostModel, LayerWorkload, NoisyCostModel
from repro.perf.schedule import ScheduleResult, SliceTable, StageSchedule, simulate_schedule
from repro.search.evaluation import ConfigEvaluator
from repro.search.space import SearchSpace
from repro.soc.presets import get_platform
from repro.utils import check_fraction, check_non_negative, check_positive

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


# -- reference: the numpy-on-scalars helpers ---------------------------------------------
def reference_check_positive(value, name):
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def reference_check_non_negative(value, name):
    if not np.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
    return float(value)


def reference_check_fraction(value, name, *, allow_zero=True):
    lower_ok = value >= 0 if allow_zero else value > 0
    if not np.isfinite(value) or not lower_ok or value > 1:
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ConfigurationError(f"{name} must lie in {bound}, got {value!r}")
    return float(value)


def reference_check_stage_accuracies(values):
    accuracies = [reference_check_fraction(value, "stage accuracy") for value in values]
    if not accuracies:
        raise ConfigurationError("stage_accuracies must be non-empty")
    if any(b < a - 1e-9 for a, b in zip(accuracies, accuracies[1:])):
        raise ConfigurationError("stage accuracies must be non-decreasing")
    return accuracies


def reference_partition_values(values):
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise PartitionError("P must be a non-empty 2-D array (stages x layers)")
    if np.any(values < 0) or np.any(values > 1):
        raise PartitionError("P entries must lie in [0, 1]")
    column_sums = values.sum(axis=0)
    if not np.allclose(column_sums, 1.0, atol=1e-6):
        raise PartitionError(
            f"every column of P must sum to 1 (got column sums {column_sums})"
        )
    return values


def reference_indicator_values(values):
    values = np.asarray(values)
    if values.ndim != 2 or values.size == 0:
        raise PartitionError("I must be a non-empty 2-D array (stages x layers)")
    if not np.all(np.isin(values, (0, 1))):
        raise PartitionError("I entries must be 0 or 1")
    return values.astype(int)


def reference_checked_split_units(width, fractions, granularity=1):
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size == 0:
        raise PartitionError("fractions must be a non-empty 1-D sequence")
    values = fractions.tolist()
    # Written so that a NaN fails it too: NaN shares are no distribution.
    if any(value < 0 for value in values) or not abs(float(fractions.sum()) - 1.0) <= 1e-6:
        raise PartitionError(f"fractions must be non-negative and sum to 1, got {fractions}")
    if granularity < 1 or width % granularity != 0:
        raise PartitionError(
            f"granularity must divide the width ({width} % {granularity} != 0)"
        )
    num_shares = fractions.size
    granules = width // granularity
    if granules < num_shares:
        raise PartitionError(
            f"cannot split {width} units ({granules} granules of {granularity}) "
            f"into {num_shares} non-empty shares"
        )
    ideal = [value * granules for value in values]
    shares = [max(1, math.floor(value)) for value in ideal]
    surplus = sum(shares) - granules
    while surplus > 0:
        victim = max(
            (index for index in range(num_shares) if shares[index] > 1),
            key=lambda index: shares[index] - ideal[index],
        )
        shares[victim] -= 1
        surplus -= 1
    remainder = [value - share for value, share in zip(ideal, shares)]
    while surplus < 0:
        winner = max(range(num_shares), key=remainder.__getitem__)
        shares[winner] += 1
        remainder[winner] -= 1.0
        surplus += 1
    return tuple(share * granularity for share in shares)


def reference_channels(scheme):
    channels = np.zeros(scheme.partition.values.shape, dtype=int)
    for layer_index, layer in enumerate(scheme.backbone):
        channels[:, layer_index] = reference_checked_split_units(
            layer.width,
            scheme.partition.values[:, layer_index],
            granularity=layer.partition_granularity,
        )
    return channels


def reference_stored_feature_bytes(scheme):
    total = 0
    for stage in range(scheme.num_stages - 1):
        for layer_index, layer in enumerate(scheme.backbone):
            if scheme.indicator.reused(stage, layer_index):
                total += layer.output_bytes(scheme.stage_channels(stage, layer_index))
    return int(total)


def reference_compute_exit_statistics(stage_accuracies, validation_samples=10_000):
    accuracies = reference_check_stage_accuracies(stage_accuracies)
    if validation_samples < 1:
        raise ConfigurationError("validation_samples must be >= 1")

    increments = np.diff(np.concatenate(([0.0], np.asarray(accuracies))))
    correct_counts = np.round(increments * validation_samples).astype(int)
    exit_fractions = increments.copy()
    exit_fractions[-1] += 1.0 - accuracies[-1]
    exit_fractions = exit_fractions / exit_fractions.sum()
    return ExitStatistics(
        stage_accuracies=tuple(float(value) for value in accuracies),
        correct_counts=tuple(int(count) for count in correct_counts),
        exit_fractions=tuple(float(value) for value in exit_fractions),
        validation_samples=int(validation_samples),
    )


def reference_simulate_dynamic_inference(
    dynamic_network, profile, accuracy_model, validation_samples
):
    stage_accuracies = accuracy_model.stage_accuracies(dynamic_network)
    statistics = reference_compute_exit_statistics(
        stage_accuracies, validation_samples=validation_samples
    )
    expected_latency = 0.0
    expected_energy = 0.0
    for stage_index, fraction in enumerate(statistics.exit_fractions):
        expected_latency += fraction * profile.cumulative_latency_ms(stage_index)
        expected_energy += fraction * profile.cumulative_energy_mj(stage_index)
    indicator = dynamic_network.scheme.indicator
    reuse = float(indicator.values[:-1, :].mean()) if indicator.num_stages >= 2 else 0.0
    return DynamicInferenceResult(
        exit_statistics=statistics,
        stage_latencies_ms=tuple(stage.latency_ms for stage in profile.stages),
        stage_energies_mj=tuple(stage.energy_mj for stage in profile.stages),
        expected_latency_ms=float(expected_latency),
        expected_energy_mj=float(expected_energy),
        worst_case_latency_ms=profile.latency_ms,
        worst_case_energy_mj=profile.total_energy_mj,
        reuse_fraction=reuse,
        stored_feature_bytes=profile.stored_feature_bytes,
    )


# The layer accounting of every kind as it was before the resolved-unit
# formulas: each public method resolves its own units.  As subclasses that
# override the public methods, these are also priced through them.
@dataclass(frozen=True)
class ParentConv2dLayer(Conv2dLayer):
    kind = "conv2d"

    def flops(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        height, width = self.out_spatial
        macs = (
            self.kernel_size
            * self.kernel_size
            * (in_u / self.groups)
            * out_u
            * height
            * width
        )
        return 2.0 * macs * self.fused_overhead

    def params(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        weights = self.kernel_size * self.kernel_size * (in_u / self.groups) * out_u
        bias_and_norm = 3 * out_u  # bias + fused batch-norm scale/shift
        return weights + bias_and_norm

    def output_elements(self, out_units=None):
        _, out_u = self.resolve_units(None, out_units)
        height, width = self.out_spatial
        return int(out_u * height * width)

    def input_elements(self, in_units=None):
        in_u, _ = self.resolve_units(in_units, None)
        height, width = self.in_spatial
        return int(in_u * height * width)


@dataclass(frozen=True)
class ParentLinearLayer(LinearLayer):
    kind = "linear"

    def flops(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        return 2.0 * self.tokens * in_u * out_u * self.fused_overhead

    def params(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        return in_u * out_u + out_u

    def output_elements(self, out_units=None):
        _, out_u = self.resolve_units(None, out_units)
        return int(self.tokens * out_u)

    def input_elements(self, in_units=None):
        in_u, _ = self.resolve_units(in_units, None)
        return int(self.tokens * in_u)


@dataclass(frozen=True)
class ParentAttentionLayer(AttentionLayer):
    kind = "attention"

    def flops(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        qkv = 3 * 2.0 * self.tokens * in_u * out_u
        attention = 2 * 2.0 * self.tokens * self.tokens * out_u
        projection = 2.0 * self.tokens * out_u * out_u
        return (qkv + attention + projection) * self.fused_overhead

    def params(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        qkv = 3 * in_u * out_u + 3 * out_u
        projection = out_u * out_u + out_u
        return qkv + projection

    def output_elements(self, out_units=None):
        _, out_u = self.resolve_units(None, out_units)
        return int(self.tokens * out_u)

    def input_elements(self, in_units=None):
        in_u, _ = self.resolve_units(in_units, None)
        return int(self.tokens * in_u)


@dataclass(frozen=True)
class ParentFeedForwardLayer(FeedForwardLayer):
    kind = "feedforward"

    def hidden_units(self, out_units=None):
        _, out_u = self.resolve_units(None, out_units)
        return max(1, int(round(out_u * self.expansion)))

    def flops(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        hidden = self.hidden_units(out_u)
        first = 2.0 * self.tokens * in_u * hidden
        second = 2.0 * self.tokens * hidden * out_u
        return (first + second) * self.fused_overhead

    def params(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        hidden = self.hidden_units(out_u)
        return in_u * hidden + hidden + hidden * out_u + out_u

    def output_elements(self, out_units=None):
        _, out_u = self.resolve_units(None, out_units)
        return int(self.tokens * out_u)

    def input_elements(self, in_units=None):
        in_u, _ = self.resolve_units(in_units, None)
        return int(self.tokens * in_u)


PARENT_LAYERS = {
    Conv2dLayer: ParentConv2dLayer,
    LinearLayer: ParentLinearLayer,
    AttentionLayer: ParentAttentionLayer,
    FeedForwardLayer: ParentFeedForwardLayer,
}


def reference_from_layer(layer, in_units=None, out_units=None):
    """``LayerWorkload.from_layer`` on the per-method-resolving copy of ``layer``."""
    fields = {field.name: getattr(layer, field.name) for field in dataclasses.fields(layer)}
    layer = PARENT_LAYERS[type(layer)](**fields)
    in_u, out_u = layer.resolve_units(in_units, out_units)
    return LayerWorkload(
        kind=layer.kind,
        flops=layer.flops(in_units=in_u, out_units=out_u),
        input_bytes=float(layer.input_bytes(in_u)),
        output_bytes=float(layer.output_bytes(out_u)),
        weight_bytes=float(layer.params(in_units=in_u, out_units=out_u)) * BYTES_PER_ELEMENT,
    )


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
    inference = reference_simulate_dynamic_inference(
        reference,
        profile,
        ReferenceAccuracy(evaluator.accuracy_model),
        evaluator.validation_samples,
    )
    channels = reference_channels(reference.scheme)
    assert_identical(reference.scheme.channels.tolist(), channels.tolist())
    assert reference.scheme.channels.dtype == channels.dtype
    assert profile.stored_feature_bytes == reference_stored_feature_bytes(reference.scheme)
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


# -- the numpy-on-scalars helpers against their references -------------------------------
def outcome(function, *args, **kwargs):
    """What a call returned (value and repr) or raised (type and message)."""
    try:
        result = function(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(error), str(error))
    if isinstance(result, np.ndarray):
        return ("returned", result.dtype, result.shape, repr(result.tolist()))
    return ("returned", type(result), repr(result))


special_floats = st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, 1e-300, -1e-300, math.nan, math.inf, -math.inf, 1.0 + 1e-12]
)
scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    special_floats,
    st.integers(min_value=-(10**20), max_value=10**20),
    st.booleans(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    st.booleans().map(np.bool_),
)


class TestScalarChecksMatchNumpy:
    @settings(max_examples=400, deadline=None)
    @given(value=scalars, allow_zero=st.booleans())
    def test_same_results_and_errors(self, value, allow_zero):
        pairs = [
            (check_positive, reference_check_positive, {}),
            (check_non_negative, reference_check_non_negative, {}),
            (check_fraction, reference_check_fraction, {"allow_zero": allow_zero}),
        ]
        for check, reference, options in pairs:
            assert outcome(check, value, "x", **options) == outcome(
                reference, value, "x", **options
            )

    @pytest.mark.parametrize(
        "value",
        [
            0, 1, -1, True, False, np.bool_(True), np.bool_(False),
            np.int8(-3), np.int32(7), np.uint8(0), np.int64(2**63 - 1), np.int64(-(2**63)),
            np.uint64(2**64 - 1),
            2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1,
            -(2**63) + 1, -(2**63), -(2**63) - 1, -(2**64), 10**30, -(10**30),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_integers_at_numpy_bounds(self, value, allow_zero):
        # Exact ints numpy holds as int64/uint64 skip np.isfinite; bools,
        # numpy ints and ints outside that range still go through it.
        pairs = [
            (check_positive, reference_check_positive, {}),
            (check_non_negative, reference_check_non_negative, {}),
            (check_fraction, reference_check_fraction, {"allow_zero": allow_zero}),
        ]
        for check, reference, options in pairs:
            assert outcome(check, value, "x", **options) == outcome(
                reference, value, "x", **options
            )


@st.composite
def p_matrices(draw):
    """Column-normalised matrices, nudged to the tolerance edge or spoiled."""
    stages = draw(st.integers(min_value=1, max_value=9))
    layers = draw(st.integers(min_value=1, max_value=4))
    raw = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=stages * layers,
                max_size=stages * layers,
            )
        )
    ).reshape(stages, layers)
    values = raw / raw.sum(axis=0)
    nudge = draw(
        st.sampled_from([0.0, 5e-7, 1e-6, 1.05e-6, 2e-6, 5e-6, 1.1e-5, 1.2e-5, 1e-3])
    )
    row, column = draw(st.integers(0, stages - 1)), draw(st.integers(0, layers - 1))
    values[row, column] += draw(st.sampled_from([1.0, -1.0])) * nudge
    if draw(st.booleans()):
        values[draw(st.integers(0, stages - 1)), column] = draw(
            st.sampled_from([math.nan, math.nan, -0.0, 1.0, math.inf, -math.inf, 1.5, -1e-9])
        )
    shape = draw(st.sampled_from(["2-d", "2-d", "2-d", "1-d", "3-d", "empty"]))
    if shape == "1-d":
        values = values[:, 0]
    elif shape == "3-d":
        values = values[None]
    elif shape == "empty":
        values = values[:0]
    dtype = draw(st.sampled_from([float, float, float, int, bool]))
    if dtype is float:
        return values
    return np.nan_to_num(values, posinf=2, neginf=-2).astype(dtype)


class TestPartitionMatrixMatchesAllclose:
    @settings(max_examples=600, deadline=None)
    @given(values=p_matrices())
    def test_same_outcome_except_the_shared_tolerance(self, values):
        actual = outcome(lambda v: PartitionMatrix(v).values, values)
        expected = outcome(reference_partition_values, values)
        array = np.asarray(values, dtype=float)
        if expected[0] == "returned":
            sums = array.sum(axis=0)
            if np.all(np.abs(sums - 1.0) <= 1e-6):
                assert actual == expected
            else:
                # np.allclose's rtol let these through; split_units then
                # rejected them inside evaluate().  Now P rejects them.
                assert actual == (
                    "raised",
                    PartitionError,
                    f"every column of P must sum to 1 (got column sums {sums})",
                )
        elif expected[2].startswith("every column of P") and np.isnan(array).any():
            # A NaN passed the old range check and failed the column sums.
            assert actual == ("raised", PartitionError, "P entries must lie in [0, 1]")
        else:
            assert actual == expected


i_entries = st.sampled_from([0, 1, 0, 1, 2, -1, 0.5, -0.0, 1.0, math.nan, math.inf, True, False])


@st.composite
def i_matrices(draw):
    stages = draw(st.integers(min_value=1, max_value=4))
    layers = draw(st.integers(min_value=1, max_value=5))
    entries = draw(st.lists(i_entries, min_size=stages * layers, max_size=stages * layers))
    dtype = draw(st.sampled_from([None, int, float, bool]))
    if dtype in (int, bool) and any(isinstance(e, float) and not math.isfinite(e) for e in entries):
        dtype = None
    values = np.array(entries, dtype=dtype).reshape(stages, layers)
    shape = draw(st.sampled_from(["2-d", "2-d", "1-d", "3-d", "empty"]))
    if shape == "1-d":
        values = values[0]
    elif shape == "3-d":
        values = values[None]
    elif shape == "empty":
        values = values[:, :0]
    return values


class TestIndicatorMatrixMatchesIsin:
    @settings(max_examples=400, deadline=None)
    @given(values=i_matrices())
    def test_same_outcome(self, values):
        assert outcome(lambda v: IndicatorMatrix(v).values, values) == outcome(
            reference_indicator_values, values
        )


@st.composite
def split_cases(draw):
    shares = draw(st.integers(min_value=1, max_value=9))
    granularity = draw(st.sampled_from([1, 2, 3, 32, 64, 0]))
    width = max(1, granularity) * draw(st.integers(min_value=1, max_value=40))
    width += draw(st.sampled_from([0, 0, 0, 1]))
    raw = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=shares, max_size=shares)
    )
    total = sum(raw)
    fractions = [value / total for value in raw] if total > 0 else raw
    fractions[0] += draw(st.sampled_from([0.0, 0.0, 5e-7, -5e-7, 1e-6, 2e-6, -2e-6]))
    if draw(st.booleans()):
        fractions[draw(st.integers(0, shares - 1))] = draw(special_floats)
    form = draw(st.sampled_from(["list", "array", "float32", "int", "bool", "2-d", "scalar"]))
    if form == "array":
        fractions = np.array(fractions)
    elif form == "float32":
        fractions = np.array(fractions, dtype=np.float32)
    elif form in ("int", "bool"):
        fractions = np.nan_to_num(np.array(fractions), posinf=2, neginf=-2).astype(form)
    elif form == "2-d":
        fractions = np.array([fractions])
    elif form == "scalar":
        fractions = fractions[0]
    return width, fractions, granularity


class TestSplitUnitsMatchesValidatingReference:
    @settings(max_examples=600, deadline=None)
    @given(case=split_cases())
    def test_same_outcome(self, case):
        width, fractions, granularity = case
        assert outcome(split_units, width, fractions, granularity) == outcome(
            reference_checked_split_units, width, fractions, granularity
        )


@st.composite
def accuracy_vectors(draw):
    """Non-decreasing accuracies with plateaus and 1e-9 dips, 1 to 12 stages."""
    stages = draw(st.integers(min_value=1, max_value=12))
    accuracy = draw(st.floats(min_value=0.0, max_value=1.0))
    values = [accuracy]
    for _ in range(stages - 1):
        step = draw(
            st.one_of(
                st.just(0.0),
                st.just(-1e-9),
                st.just(-5e-10),
                st.floats(min_value=0.0, max_value=0.2),
            )
        )
        accuracy = min(1.0, max(0.0, accuracy + step))
        values.append(accuracy)
    return values


class TestExitStatisticsMatchNumpy:
    @settings(max_examples=500, deadline=None)
    @given(
        accuracies=accuracy_vectors(),
        validation_samples=st.sampled_from([1, 7, 10_000, 12_345, 10**6]),
    )
    def test_same_statistics(self, accuracies, validation_samples):
        actual = outcome(compute_exit_statistics, accuracies, validation_samples)
        expected = outcome(reference_compute_exit_statistics, accuracies, validation_samples)
        assert actual == expected

    @pytest.mark.parametrize(
        "accuracies",
        [[], [0.5, 0.4], [1.2], [math.nan], [0.3, 0.3 - 1e-9, 0.3], [0.0] * 12, [1.0] * 9],
    )
    def test_edges_and_errors(self, accuracies):
        assert outcome(compute_exit_statistics, accuracies) == outcome(
            reference_compute_exit_statistics, accuracies
        )


def every_layer_kind():
    layers = []
    for build in (visformer, resnet20, vgg19):
        layers.extend(build().layers)
    layers += [
        Conv2dLayer(name="grouped", width=64, in_width=32, groups=4, fused_overhead=1.25),
        LinearLayer(name="tokens", width=10, in_width=48, tokens=7),
        AttentionLayer(name="heads", width=96, in_width=80, tokens=9, num_heads=3),
        FeedForwardLayer(name="odd", width=30, in_width=31, tokens=5, expansion=2.7),
    ]
    return layers


LAYERS = every_layer_kind()


class TestFromLayerMatchesPerMethodResolution:
    @settings(max_examples=500, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=len(LAYERS) - 1),
        in_pick=st.one_of(st.none(), st.integers(min_value=-2, max_value=1000)),
        out_pick=st.one_of(st.none(), st.integers(min_value=-2, max_value=1000)),
    )
    def test_same_workload_or_error(self, index, in_pick, out_pick):
        layer = LAYERS[index]
        # Mostly valid units, sometimes 0, negative or past the width.
        in_units = in_pick if in_pick is None or in_pick > 300 or in_pick < 1 else (
            1 + in_pick % layer.in_width
        )
        out_units = out_pick if out_pick is None or out_pick > 300 or out_pick < 1 else (
            1 + out_pick % layer.width
        )
        assert outcome(LayerWorkload.from_layer, layer, in_units, out_units) == outcome(
            reference_from_layer, layer, in_units, out_units
        )

    def test_every_kind_is_covered(self):
        assert {type(layer) for layer in LAYERS} == set(PARENT_LAYERS)
        assert {layer.kind for layer in LAYERS} == {"conv2d", "linear", "attention", "feedforward"}

    def test_public_methods_match_per_method_resolution(self):
        for layer in LAYERS:
            fields = {field.name: getattr(layer, field.name) for field in dataclasses.fields(layer)}
            parent = PARENT_LAYERS[type(layer)](**fields)
            for units in (None, 1, layer.width, layer.width + 1, 0):
                assert outcome(layer.output_elements, units) == outcome(
                    parent.output_elements, units
                )
                assert outcome(layer.output_bytes, units) == outcome(parent.output_bytes, units)
            for units in (None, 1, layer.in_width, layer.in_width + 1, 0):
                assert outcome(layer.input_elements, units) == outcome(
                    parent.input_elements, units
                )
                assert outcome(layer.flops, units, None) == outcome(parent.flops, units, None)
                assert outcome(layer.params, units, None) == outcome(parent.params, units, None)
            if isinstance(layer, FeedForwardLayer):
                for units in (None, 1, layer.width, layer.width + 1, 0):
                    assert outcome(layer.hidden_units, units) == outcome(
                        parent.hidden_units, units
                    )


@dataclass(frozen=True)
class ToyLayer(Layer):
    """Overrides only the public accounting methods, as a subclass may."""

    def flops(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        return 3.0 * in_u * out_u

    def params(self, in_units=None, out_units=None):
        in_u, out_u = self.resolve_units(in_units, out_units)
        return float(in_u + out_u)

    def output_elements(self, out_units=None):
        _, out_u = self.resolve_units(None, out_units)
        return 5 * out_u

    def input_elements(self, in_units=None):
        in_u, _ = self.resolve_units(in_units, None)
        return 7 * in_u


@dataclass(frozen=True)
class DoubledConv2dLayer(Conv2dLayer):
    """A built-in kind whose public ``flops`` override reaches its formula via ``super``."""

    def flops(self, in_units=None, out_units=None):
        return 2 * super().flops(in_units, out_units)


@dataclass(frozen=True)
class WideFeedForwardLayer(FeedForwardLayer):
    def hidden_units(self, out_units=None):
        return 2 * super().hidden_units(out_units)


class TestLayerSubclassesOverridingPublicMethods:
    def test_toy_layer_prices_its_slices(self, platform):
        toy = ToyLayer(name="toy0", width=8, in_width=6)
        assert toy.kind == "toy"
        expected = LayerWorkload(
            kind="toy", flops=36.0, input_bytes=42.0, output_bytes=40.0, weight_bytes=14.0
        )
        assert_identical(LayerWorkload.from_layer(toy, 3, 4), expected)
        assert toy.output_bytes(4) == 40 and toy.input_bytes(3) == 42
        with pytest.raises(ConfigurationError, match="out_units must lie in"):
            LayerWorkload.from_layer(toy, 3, 9)
        unit = platform.compute_units[0]
        model = AnalyticalCostModel()
        table = SliceTable(model, platform.interconnect, [toy], toy.width)
        for _ in range(2):
            assert table.latency_ms(0, 0, toy, 3, 4, unit, 1.0) == model.latency_ms(
                expected, unit, 1.0
            )
        assert table.transfer_ms(0, toy, 4) == platform.interconnect.transfer_latency_ms(40)

    def test_overrides_of_built_in_kinds_are_honoured(self):
        conv = Conv2dLayer(name="c", width=16, in_width=8)
        doubled = DoubledConv2dLayer(name="c", width=16, in_width=8)
        assert doubled.kind == "doubledconv2d"
        assert LayerWorkload.from_layer(doubled, 5, 7).flops == 2 * conv.flops(5, 7)
        base = FeedForwardLayer(name="f", width=12, in_width=12, tokens=3)
        wide = WideFeedForwardLayer(name="f", width=12, in_width=12, tokens=3)
        assert wide.hidden_units(5) == 2 * base.hidden_units(5)
        hidden = wide.hidden_units(5)
        assert LayerWorkload.from_layer(wide, 4, 5).flops == (
            2.0 * 3 * 4 * hidden + 2.0 * 3 * hidden * 5
        )


class TestStageAccuraciesBuildCurvesOnce:
    @pytest.mark.parametrize("reorder", [True, False], ids=["reordered", "unordered"])
    def test_equals_per_stage_coverage(self, networks, reorder):
        network = networks["visformer"]
        platform = get_platform("jetson-agx-xavier")
        ranking = ConfigEvaluator(network, platform, seed=0).ranking
        mapping = MappingEvaluator(platform)
        model = AccuracyModel()
        for config in SearchSpace(network, platform).population(20, seed=9):
            dynamic = build_dynamic_network(
                network, config.partition, config.indicator, ranking, reorder
            )
            per_stage = model.stage_accuracies_from_coverage(
                network, [dynamic.stage_coverage(stage) for stage in range(dynamic.num_stages)]
            )
            assert_identical(model.stage_accuracies(dynamic), per_stage)
            # The default model of the public inference entry point.
            profile = mapping.profile(dynamic, config.unit_names, config.dvfs_indices)
            assert_identical(
                simulate_dynamic_inference(dynamic, profile).exit_statistics.stage_accuracies,
                per_stage,
            )
