"""The slice-table oracle against the per-call oracle it replaced, compared with ``==``.

The ``reference_*`` functions are verbatim copies of the per-call code: a
``LayerWorkload`` built per sub-layer for latency and again for energy, the
Eq. 8 recursion on numpy arrays, numpy importance coverage, and the
one-query-at-a-time channel arithmetic of a ``(P, I)`` scheme, whose columns
``reference_split_units`` splits.  They keep their own sub-layer, stage and
schedule records (``Reference*``), and the public view's arrays are compared
with them as those records.  Every field of
every object the oracle produces must equal the reference exactly (``==`` and
``repr``), through ``evaluate`` and through ``evaluate_many`` batches (the
array path), on a cold slice table and on a warm one, whatever batch a
candidate comes in.  Cost models other than the exact analytical oracle must
see the same calls, in the same order, as before, through either entry, and
no memo may leak into cache identities or pickled results.  The two memos
the oracle dropped, a split table of ``P`` columns and a dict of slice
latencies, live on as verbatim copies (``parent_split_columns``,
``ParentSliceTable``): every array and latency of a batch must equal theirs.

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
import pickle
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import MapAndConquer
from repro.dynamics.accuracy import AccuracyModel
from repro.dynamics.inference import DynamicInferenceResult, simulate_dynamic_inference
from repro.dynamics.samples import ExitStatistics, _exit_statistics, compute_exit_statistics
from repro.errors import ConfigurationError, PartitionError, PlatformError
from repro.nn.layers import (
    BYTES_PER_ELEMENT,
    AttentionLayer,
    Conv2dLayer,
    FeedForwardLayer,
    Layer,
    LinearLayer,
)
from repro.nn.models import resnet20, vgg19, visformer
from repro.nn import multiexit
from repro.nn.multiexit import build_dynamic_network
from repro.nn import partition as partition_module
from repro.nn.partition import (
    RATIO_CHOICES,
    IndicatorMatrix,
    PartitionMatrix,
    _check_granules,
    _split_rows,
    backbone_layers,
    network_arrays,
    split_units,
)
from repro.perf.evaluator import HardwareProfile, MappingEvaluator, StagePerformance
from repro.perf.layer_cost import (
    AnalyticalCostModel,
    LayerArrays,
    LayerWorkload,
    NoisyCostModel,
    workload_arrays,
)
from repro.perf.predictor import train_surrogate
from repro.perf.schedule import SliceTable, schedule_batch
from repro.search.evaluation import ConfigEvaluator
from repro.search.space import MappingConfig, SearchSpace
from repro.soc.platform import jetson_agx_xavier
from repro.soc.presets import derive, get_platform
from repro.utils import check_fraction, check_non_negative, check_positive
from test_variation_stream import nine_unit_board

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


@dataclass(frozen=True)
class ReferenceSubLayer:
    """One sub-layer ``l^j_i``: stage ``i``'s slice of backbone layer ``j``."""

    base: Layer
    stage_index: int
    layer_index: int
    in_units: int
    out_units: int
    reused_input_bytes: int


@dataclass(frozen=True)
class ReferenceStage:
    """One inference stage ``S_i``: a sub-layer chain plus its exit head."""

    index: int
    sublayers: tuple
    exit_head: LinearLayer

    def imported_bytes(self):
        return sum(sub.reused_input_bytes for sub in self.sublayers)


@dataclass(frozen=True)
class ReferenceStageSchedule:
    """Timing breakdown of one stage under the concurrent execution model."""

    stage_index: int
    unit_name: str
    scale: float
    sublayer_latencies_ms: tuple
    cumulative_latencies_ms: tuple
    exit_latency_ms: float
    transfer_latency_ms: float
    stall_ms: float

    @property
    def total_latency_ms(self):
        return self.cumulative_latencies_ms[-1] + self.exit_latency_ms

    @property
    def busy_latency_ms(self):
        total = 0
        for latency in self.sublayer_latencies_ms:
            total += latency
        return float(total) + self.exit_latency_ms


@dataclass(frozen=True)
class ReferenceScheduleResult:
    """Schedules of all stages."""

    stages: tuple


class ReferenceScheme:
    """A ``(P, I)`` pair's channels, answered one query at a time."""

    def __init__(self, network, partition, indicator):
        self.network = network
        self.partition = partition
        self.indicator = indicator
        self.backbone = backbone_layers(network)
        self.channels = np.zeros(partition.values.shape, dtype=int)
        for layer_index, layer in enumerate(self.backbone):
            self.channels[:, layer_index] = reference_split_units(
                layer.width,
                partition.values[:, layer_index],
                granularity=layer.partition_granularity,
            )

    @property
    def num_stages(self):
        return self.partition.num_stages

    @property
    def num_layers(self):
        return self.partition.num_layers

    def stage_channels(self, stage, layer):
        return int(self.channels[stage, layer])

    def stage_range(self, stage, layer):
        start = int(self.channels[:stage, layer].sum())
        return start, start + self.stage_channels(stage, layer)


@dataclass(frozen=True, eq=False)
class ReferenceNetwork:
    """The per-call build of a dynamic network: its scheme and stage records."""

    network: object
    scheme: ReferenceScheme
    stages: tuple
    ranking: object
    reordered: bool

    @property
    def num_stages(self):
        return len(self.stages)

    @property
    def num_layers(self):
        return self.scheme.num_layers


def sublayer_workload(sub):
    """The workload of a stage's sub-layer ``l^j_i``."""
    return LayerWorkload.from_layer(sub.base, sub.in_units, sub.out_units)


def reference_build(network, partition, indicator, ranking, reorder):
    scheme = ReferenceScheme(network, partition, indicator)
    stages = []
    last_layer_index = scheme.num_layers - 1
    for stage_index in range(scheme.num_stages):
        sublayers = []
        for layer_index, layer in enumerate(scheme.backbone):
            sublayers.append(
                ReferenceSubLayer(
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
        stages.append(
            ReferenceStage(index=stage_index, sublayers=tuple(sublayers), exit_head=exit_head)
        )
    return ReferenceNetwork(
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
            workload = sublayer_workload(sub)
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
            ReferenceStageSchedule(
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
    return ReferenceScheduleResult(stages=tuple(schedules))


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
            workload = sublayer_workload(sub)
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
        stored_feature_bytes=reference_stored_feature_bytes(dynamic_network.scheme),
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


def evaluated_network(evaluator, config):
    """The view of the candidate ``evaluator.evaluate(config)`` scores."""
    return build_dynamic_network(
        evaluator.network,
        partition=config.partition,
        indicator=config.indicator,
        ranking=evaluator.ranking,
        reorder=evaluator.reorder_channels,
    )


def view_stages(dynamic):
    """The view's one-row arrays as the per-call build's stage records."""
    arrays = dynamic.arrays
    backbone = backbone_layers(dynamic.network)
    stages = []
    for stage_index, (own, in_units, imported, exit_units) in enumerate(
        zip(
            arrays.channels[0].tolist(),
            arrays.in_units[0].tolist(),
            arrays.imported_bytes[0].tolist(),
            arrays.exit_units[0].tolist(),
        )
    ):
        sublayers = tuple(
            ReferenceSubLayer(layer, stage_index, layer_index, layer_in, out_units, layer_imported)
            for layer_index, (layer, out_units, layer_in, layer_imported) in enumerate(
                zip(backbone, own, in_units, imported)
            )
        )
        head = LinearLayer(
            name=f"exit{stage_index}",
            width=dynamic.network.num_classes,
            in_width=exit_units,
            tokens=1,
        )
        stages.append(ReferenceStage(stage_index, sublayers, head))
    return tuple(stages)


def view_schedule(dynamic, units, scales, cost_model, interconnect):
    """Eq. 8-9 of the view on a slice table of its own, as schedule records."""
    network = dynamic.network
    batch = schedule_batch(
        SliceTable.for_network(cost_model, interconnect, network),
        network,
        dynamic.arrays,
        np.arange(dynamic.num_stages)[None],
        dict(enumerate(zip(units, scales))),
    )
    rows = zip(
        units,
        scales,
        batch.taus[0].tolist(),
        batch.cumulative[0].tolist(),
        batch.exit_latencies[0].tolist(),
        batch.moved[0].tolist(),
        batch.stalls[0].tolist(),
    )
    return ReferenceScheduleResult(
        stages=tuple(
            ReferenceStageSchedule(
                stage_index=index,
                unit_name=unit.name,
                scale=float(scale),
                sublayer_latencies_ms=tuple(taus),
                cumulative_latencies_ms=tuple(cumulative),
                exit_latency_ms=exit_latency,
                transfer_latency_ms=moved,
                stall_ms=stall,
            )
            for index, (unit, scale, taus, cumulative, exit_latency, moved, stall) in enumerate(
                rows
            )
        )
    )


def reference_results(evaluator, config, cost_model):
    """The per-call references of ``config``: network, schedule, profile, inference."""
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
    return reference, schedule, profile, inference


def twin_of(evaluator):
    """A fresh evaluator configured as ``evaluator`` is, with its own (cold) tables."""
    return ConfigEvaluator(
        evaluator.network,
        evaluator.platform,
        cost_model=evaluator.cost_model,
        accuracy_model=evaluator.accuracy_model,
        ranking=evaluator.ranking,
        reorder_channels=evaluator.reorder_channels,
        validation_samples=evaluator.validation_samples,
    )


def check_configs(evaluator, configs, cost_model):
    """Every config through ``evaluate`` and ``evaluate_many`` against the references.

    ``evaluator`` is fresh, so its first ``evaluate_many`` runs on a cold
    slice table, as does the first ``evaluate`` of a twin evaluator; each
    path then runs again on its warm table.  The configs are also evaluated
    in batches of 1, 2 and the rest, and doubled with their reverse
    appended: a candidate's result must not depend on its batch.
    """
    expected = [reference_results(evaluator, config, cost_model) for config in configs]

    def check(results, indices):
        assert len(results) == len(indices)
        for result, index in zip(results, indices):
            _, _, profile, inference = expected[index]
            assert result.config is configs[index]
            assert_identical(result.profile, profile)
            assert_identical(result.inference, inference)
            assert_identical(result.base_accuracy, evaluator.network.base_accuracy)

    everything = list(range(len(configs)))
    twin = twin_of(evaluator)
    for _ in range(2):
        batch = evaluator.evaluate_many(configs)
        single = [twin.evaluate(config) for config in configs]
        check(batch, everything)
        check(single, everything)
        assert [pickle.dumps(result) for result in batch] == [
            pickle.dumps(result) for result in single
        ]
    for indices in (everything[:1], everything[1:3], everything[3:], everything + everything[::-1]):
        if indices:
            check(evaluator.evaluate_many([configs[index] for index in indices]), indices)

    for config, (reference, schedule, profile, inference) in zip(configs, expected):
        # The view of the candidate evaluate() scores, and the per-call table
        # of the public entry points.
        dynamic = evaluated_network(evaluator, config)
        channels = reference_channels(reference.scheme)
        assert_identical(reference.scheme.channels.tolist(), channels.tolist())
        assert_identical(dynamic.arrays.channels[0].tolist(), channels.tolist())
        assert dynamic.arrays.channels.dtype == channels.dtype
        assert_identical(
            dynamic.stored_feature_bytes(), reference_stored_feature_bytes(reference.scheme)
        )
        assert_identical(view_stages(dynamic), reference.stages)
        units = [evaluator.platform.unit(name) for name in config.unit_names]
        scales = [s.dvfs_scale for s in profile.stages]
        assert_identical(
            view_schedule(dynamic, units, scales, cost_model, evaluator.platform.interconnect),
            schedule,
        )
        direct = MappingEvaluator(evaluator.platform, cost_model=cost_model)
        assert_identical(direct.profile(dynamic, config.unit_names, config.dvfs_indices), profile)
        for stage in range(dynamic.num_stages):
            assert_identical(
                dynamic.stage_coverage(stage), reference_stage_coverage(reference, stage)
            )


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
        configs = space.population(count, seed=len(network_name))
        check_configs(evaluator, configs, AnalyticalCostModel())

    def test_capped_reuse_and_fewer_stages(self, networks):
        network = networks["visformer"]
        platform = get_platform("jetson-agx-xavier")
        evaluator = ConfigEvaluator(network, platform, seed=3)
        capped = SearchSpace(network, platform, max_reuse_fraction=0.5)
        two_stage = SearchSpace(network, platform, num_stages=2)
        # One batch of three- and two-stage candidates, interleaved.
        three = capped.population(CONFIGS_PER_CASE, seed=1)
        two = two_stage.population(10, seed=2)
        configs = [config for pair in zip(three, two) for config in pair] + three[len(two):]
        check_configs(evaluator, configs, AnalyticalCostModel())

    @pytest.mark.parametrize("network_name", ["visformer", "resnet20"])
    def test_memory_bound_board_and_hand_built_matrices(self, networks, network_name):
        network = networks[network_name]
        # A hundredth of Xavier's bandwidth: about a third of the slices are
        # memory-bound, so both roofline branches are priced.
        platform = derive(jetson_agx_xavier(), "memory-bound", bandwidth_scale=0.01)
        evaluator = ConfigEvaluator(network, platform, seed=2)
        layers = len(backbone_layers(network))
        configs = SearchSpace(network, platform).population(10, seed=4)
        # Every stage forwarding everything (the last one included) and none.
        for indicator in (IndicatorMatrix.full(3, layers), IndicatorMatrix.none(3, layers)):
            for partition in (
                PartitionMatrix.uniform(3, layers),
                PartitionMatrix.from_stage_fractions([0.625, 0.25, 0.125], layers),
            ):
                configs.append(
                    MappingConfig(partition, indicator, ("dla1", "gpu", "dla0"), (2, 9, 5))
                )
        check_configs(evaluator, configs, AnalyticalCostModel())

    @pytest.mark.parametrize("network_name", ["visformer", "resnet20"])
    @pytest.mark.parametrize("reorder", [True, False], ids=["reordered", "unordered"])
    def test_one_to_four_stages_with_the_cpu(self, networks, network_name, reorder):
        network = networks[network_name]
        platform = jetson_agx_xavier(include_cpu=True)
        evaluator = ConfigEvaluator(network, platform, reorder_channels=reorder, seed=1)
        configs = []
        for stages in (4, 1, 3, 2):
            space = SearchSpace(network, platform, num_stages=stages)
            configs += space.population(6, seed=stages)
        check_configs(evaluator, configs, AnalyticalCostModel())

    @pytest.mark.parametrize("network_name", ["resnet20", "visformer"])
    def test_a_learned_cost_model(self, networks, network_name):
        # A small trained surrogate: a cost model called per slice, whose
        # latency and energy are learned separately.
        platform = get_platform("jetson-agx-xavier")
        surrogate = train_surrogate(
            platform, num_samples=200, n_estimators=10, max_depth=3, seed=0
        )
        network = networks[network_name]
        evaluator = ConfigEvaluator(network, platform, cost_model=surrogate, seed=0)
        configs = SearchSpace(network, platform).population(5, seed=len(network_name))
        check_configs(evaluator, configs, surrogate)


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


def expected_calls(evaluator, config):
    """The per-slice calls ``evaluate(config)`` makes of a per-call cost model, in order."""
    stages = reference_build(
        evaluator.network,
        config.partition,
        config.indicator,
        evaluator.ranking,
        evaluator.reorder_channels,
    ).stages
    scales = [
        evaluator.platform.unit(name).scale_for_point(index)
        for name, index in zip(config.unit_names, config.dvfs_indices)
    ]

    def call(kind, workload, stage):
        return (kind, workload, config.unit_names[stage.index], scales[stage.index])

    expected = [
        call("latency", sublayer_workload(sub), stage)
        for stage in stages
        for sub in stage.sublayers
    ]
    expected += [
        call("latency", LayerWorkload.from_layer(stage.exit_head), stage) for stage in stages
    ]
    for stage in stages:
        expected += [
            call("energy", sublayer_workload(sub), stage) for sub in stage.sublayers
        ]
        expected.append(call("energy", LayerWorkload.from_layer(stage.exit_head), stage))
    slices = sum(len(stage.sublayers) + 1 for stage in stages)
    assert len(expected) == 2 * slices
    return expected


class TestPerCallModels:
    def test_call_order_is_unchanged(self, visformer_net, platform):
        model = RecordingCostModel()
        evaluator = ConfigEvaluator(visformer_net, platform, cost_model=model, seed=0)
        config = SearchSpace(visformer_net, platform).sample(5)
        for _ in range(2):
            model.calls.clear()
            evaluator.evaluate(config)
            assert model.calls == expected_calls(evaluator, config)

    def test_call_order_is_unchanged_through_evaluate_many(self, visformer_net, platform):
        model = RecordingCostModel()
        evaluator = ConfigEvaluator(visformer_net, platform, cost_model=model, seed=0)
        configs = SearchSpace(visformer_net, platform).population(3, seed=5)
        for batch in (configs, configs[::-1] + configs[:1], configs[:1]):
            model.calls.clear()
            evaluator.evaluate_many(batch)
            assert model.calls == [
                call for config in batch for call in expected_calls(evaluator, config)
            ]

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

    def test_noisy_model_reproduces_recorded_draws_through_evaluate_many(
        self, visformer_net, platform
    ):
        evaluator = ConfigEvaluator(
            visformer_net,
            platform,
            cost_model=NoisyCostModel(noise_std=0.05, seed=3),
            seed=0,
        )
        config = SearchSpace(visformer_net, platform).sample(11)
        evaluated = evaluator.evaluate_many([config, config])
        assert [(repr(e.latency_ms), repr(e.energy_mj)) for e in evaluated] == list(NOISY_REPRS)


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
        def field_names(obj):
            return {field.name for field in dataclasses.fields(obj)}

        evaluator = ConfigEvaluator(visformer_net, platform, seed=0)
        for config in SearchSpace(visformer_net, platform).population(5, seed=6):
            evaluated = evaluator.evaluate(config)
            # A result is its numbers: no network, nothing derived.
            assert set(vars(evaluated)) == field_names(evaluated)
            assert evaluated.base_accuracy == visformer_net.base_accuracy
            payload = pickle.dumps(evaluated)
            assert b"DynamicNetwork" not in payload
            assert len(payload) <= 3_000
        dynamic = evaluated_network(evaluator, config)

        assert set(vars(evaluator.ranking)) == field_names(evaluator.ranking)
        assert set(vars(dynamic)) == field_names(dynamic)
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
        span = toy.width + 1
        # Unit key 0, position 0, 3 units in and 4 out.
        key = np.array([(0 * span + 3) * span + 4])
        for _ in range(2):
            assert table.latencies(key, [toy], {0: (unit, 1.0)}).tolist() == [
                model.latency_ms(expected, unit, 1.0)
            ]
        position, units = np.zeros(1, int), np.array([4])
        assert table.transfers(position, units, table.output_bytes(position, units)).tolist() == [
            platform.interconnect.transfer_latency_ms(40)
        ]

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


class TestWorkloadArrays:
    """The array terms of every layer kind and subclass against ``from_layer``."""

    LAYERS = LAYERS + [
        ToyLayer(name="toy", width=8, in_width=6),
        DoubledConv2dLayer(name="doubled", width=16, in_width=8),
        WideFeedForwardLayer(name="wide", width=12, in_width=12, tokens=3, expansion=1.3),
    ]

    def test_every_slice_matches_from_layer(self):
        rng = np.random.default_rng(0)
        layers = self.LAYERS
        positions = np.repeat(np.arange(len(layers)), 25)
        in_units = np.array([rng.integers(1, layers[p].in_width + 1) for p in positions])
        out_units = np.array([rng.integers(1, layers[p].width + 1) for p in positions])
        flops, total_bytes = workload_arrays(layers, positions, in_units, out_units)
        for index, position in enumerate(positions.tolist()):
            workload = LayerWorkload.from_layer(
                layers[position], int(in_units[index]), int(out_units[index])
            )
            assert_identical(flops[index].item(), float(workload.flops))
            assert_identical(total_bytes[index].item(), workload.total_bytes)

    @pytest.mark.parametrize("index", range(len(LAYERS)))
    def test_units_outside_the_layer_raise_its_message(self, index):
        layer = self.LAYERS[index]
        for in_units, out_units in ((0, 1), (1, layer.width + 1), (layer.in_width + 1, 1)):
            expected = outcome(LayerWorkload.from_layer, layer, in_units, out_units)
            assert expected[0] == "raised"
            actual = outcome(
                workload_arrays, [layer], np.zeros(1, int), np.array([in_units]),
                np.array([out_units]),
            )
            assert actual == expected

    def test_invalid_terms_raise_the_workload_message(self):
        broken = NegativeFlopsLayer(name="broken", width=4, in_width=4)
        assert outcome(
            workload_arrays, [broken], np.zeros(1, int), np.ones(1, int), np.ones(1, int)
        ) == outcome(LayerWorkload.from_layer, broken, 1, 1)


@dataclass(frozen=True)
class NegativeFlopsLayer(Layer):
    """Prices every slice at -1 FLOP, which a workload rejects."""

    def flops(self, in_units=None, out_units=None):
        return -1.0

    def params(self, in_units=None, out_units=None):
        return 0.0

    def output_elements(self, out_units=None):
        return 1

    def input_elements(self, in_units=None):
        return 1


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
            # Every stage's coverage at once, from one build of the curves.
            assert_identical(
                model.stage_accuracies_from_coverage(network, dynamic._coverages()), per_stage
            )
            # The default model of the public inference entry point.
            profile = mapping.profile(dynamic, config.unit_names, config.dvfs_indices)
            assert_identical(
                simulate_dynamic_inference(dynamic, profile).exit_statistics.stage_accuracies,
                per_stage,
            )


@dataclass(frozen=True)
class SpoiledAccuracies(AccuracyModel):
    """The default accuracies, but ``spoiled[k]`` for the k-th candidate's coverages."""

    spoiled: tuple = ()

    def stage_accuracies_from_coverage(self, network, coverages):
        coverages = tuple(coverages)
        for bad_coverages, accuracies in self.spoiled:
            if coverages == bad_coverages:
                return accuracies
        return super().stage_accuracies_from_coverage(network, coverages)


def count_networks(monkeypatch):
    """A list that grows by one for every ``DynamicNetwork`` built from now on."""
    built = []
    real = multiexit.DynamicNetwork.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(multiexit.DynamicNetwork, "__init__", counting)
    return built


class TestBatchPath:
    def test_a_batch_builds_no_network(self, visformer_net, platform, monkeypatch):
        built = count_networks(monkeypatch)
        evaluator = ConfigEvaluator(visformer_net, platform, seed=0)
        configs = SearchSpace(visformer_net, platform).population(6, seed=1)
        evaluator.evaluate_many(configs)
        assert built == []
        # One configuration takes the same path.
        evaluator.evaluate_many(configs[:1])
        evaluator.evaluate(configs[1])
        assert built == []
        # The count sees a network that is built.
        evaluated_network(evaluator, configs[1])
        assert len(built) == 1

    def test_the_table_holds_what_evaluate_stores(self, visformer_net, platform):
        configs = SearchSpace(visformer_net, platform).population(8, seed=3)
        batched = ConfigEvaluator(visformer_net, platform, seed=0)
        single = ConfigEvaluator(visformer_net, platform, seed=0)
        table = batched._mapping_evaluator._table
        returned = []
        price = table.latencies

        def recorded(keys, layers, units):
            values = price(keys, layers, units)
            assert values.dtype == np.float64 and values.shape == keys.shape
            returned.extend(zip(keys.ravel().tolist(), values.ravel().tolist()))
            return values

        table.latencies = recorded
        batched.evaluate_many(configs)
        expected = [single.evaluate(config) for config in configs]
        memo, reference_memo = table._transfers, single._mapping_evaluator._table._transfers
        assert_identical(sorted(memo.items()), sorted(reference_memo.items()))
        assert {type(key) for key in memo} == {int}
        assert {type(value) for value in memo.values()} == {float}
        # Every returned latency and every stored transfer is the direct call
        # for its key.
        model = AnalyticalCostModel()
        backbone = backbone_layers(visformer_net)
        span = table._span
        stride = batched._mapping_evaluator._dvfs_stride
        assert len(returned) == sum(config.num_stages * (len(backbone) + 1) for config in configs)
        for key, value in returned:
            unit_key, slice_key = divmod(key, table._slices)
            position, pair = divmod(slice_key, span * span)
            in_units, out_units = divmod(pair, span)
            unit = platform.compute_units[unit_key // stride]
            scale = unit.scale_for_point(unit_key % stride)
            if position < len(backbone):
                layer = backbone[position]
            else:
                layer = LinearLayer(
                    name="exit", width=visformer_net.num_classes, in_width=in_units, tokens=1
                )
            workload = LayerWorkload.from_layer(layer, in_units, out_units)
            assert_identical(value, model.latency_ms(workload, unit, scale))
        for key, value in table._transfers.items():
            position, units = divmod(key, span)
            assert_identical(
                value,
                platform.interconnect.transfer_latency_ms(backbone[position].output_bytes(units)),
            )
        # evaluate() reads the transfers the batch stored.
        for config, result in zip(configs, expected):
            assert_identical(batched.evaluate(config).inference, result.inference)

    def test_first_invalid_candidate_raises_as_evaluate(self, visformer_net, platform):
        space = SearchSpace(visformer_net, platform)
        valid = space.population(4, seed=5)
        num_layers = valid[0].num_layers
        unknown_unit = replace(valid[1], unit_names=("gpu", "dla0", "npu"))
        bad_dvfs = replace(valid[2], dvfs_indices=(0, 0, 99))
        # Every unit is looked up before any DVFS point.
        bad_dvfs_then_unknown_unit = replace(
            valid[3], unit_names=("gpu", "dla0", "npu"), dvfs_indices=(99, 0, 0)
        )
        short = MappingConfig(
            partition=PartitionMatrix.uniform(3, num_layers - 1),
            indicator=IndicatorMatrix.full(3, num_layers - 1),
            unit_names=("gpu", "dla0", "dla1"),
            dvfs_indices=(0, 0, 0),
        )
        # Seven stages cannot split a six-head attention layer; the names are
        # never looked up, as the split fails first.
        unsplittable = MappingConfig(
            partition=PartitionMatrix.uniform(7, num_layers),
            indicator=IndicatorMatrix.none(7, num_layers),
            unit_names=tuple(f"unit{index}" for index in range(7)),
            dvfs_indices=(0,) * 7,
        )
        # Scored in a batch of its own, after the three-stage batch.
        two_stage_unknown_unit = MappingConfig(
            partition=PartitionMatrix.uniform(2, num_layers),
            indicator=IndicatorMatrix.none(2, num_layers),
            unit_names=("gpu", "npu"),
            dvfs_indices=(0, 0),
        )
        bad_point = (ConfigurationError, "operating-point index 99 out of range [0, 10)")
        no_npu = (PlatformError, "platform 'jetson-agx-xavier' has no compute unit named 'npu'")
        too_short = (PartitionError, "P has 13 layers but the backbone of 'visformer' has 14")
        no_split = (
            PartitionError,
            "cannot split 192 units (6 granules of 32) into 7 non-empty shares",
        )
        # What evaluating each batch one configuration at a time raised
        # before every evaluation took the array path.
        cases = [
            ([valid[0], bad_dvfs, unknown_unit, valid[3]], bad_point),
            ([valid[0], unknown_unit, bad_dvfs], no_npu),
            ([short, valid[0]], too_short),
            ([valid[0], valid[1], unsplittable, unknown_unit], no_split),
            ([unknown_unit, unsplittable], no_npu),
            ([bad_dvfs, bad_dvfs], bad_point),
            ([bad_dvfs_then_unknown_unit], no_npu),
            ([valid[0], bad_dvfs_then_unknown_unit, bad_dvfs], no_npu),
            ([valid[0], two_stage_unknown_unit, bad_dvfs], no_npu),
        ]
        for batch, (kind, message) in cases:
            expected = ("raised", kind, message)
            evaluator = ConfigEvaluator(visformer_net, platform, seed=0)
            assert outcome(evaluator.evaluate_many, batch) == expected
            evaluator = ConfigEvaluator(visformer_net, platform, seed=0)
            assert outcome(lambda configs: [evaluator.evaluate(c) for c in configs], batch) == (
                expected
            )

    @pytest.mark.parametrize("stages", range(1, 10))
    def test_one_to_nine_stages_match_the_reference(self, networks, stages):
        network = networks["resnet20"]
        platform = nine_unit_board()
        evaluator = ConfigEvaluator(network, platform, seed=stages)
        configs = SearchSpace(network, platform, num_stages=stages).population(6, seed=stages)
        for result, config in zip(evaluator.evaluate_many(configs), configs):
            _, _, profile, inference = reference_results(
                evaluator, config, AnalyticalCostModel()
            )
            assert_identical(result.profile, profile)
            assert_identical(result.inference, inference)
            assert pickle.dumps(result.profile) == pickle.dumps(profile)
            assert pickle.dumps(result.inference) == pickle.dumps(inference)
            assert len(result.inference.exit_statistics.exit_fractions) == stages

    @pytest.mark.parametrize(
        "accuracies, error",
        [
            ((0.5, 0.4, 0.6), "stage accuracies must be non-decreasing"),
            ((0.5, 1.5, 1.5), "stage accuracy must lie in [0, 1], got 1.5"),
            ((0.5, math.nan, 0.6), "stage accuracy must lie in [0, 1], got nan"),
            ((0.5, 0.6), "expected 3 stage accuracies, one per stage, got 2"),
            ((0.4, 0.5, 0.6, 0.7), "expected 3 stage accuracies, one per stage, got 4"),
        ],
    )
    def test_the_kth_candidate_raises_its_own_error(self, networks, accuracies, error):
        network = networks["visformer"]
        platform = get_platform("jetson-agx-xavier")
        configs = SearchSpace(network, platform).population(5, seed=11)
        evaluator = ConfigEvaluator(network, platform, seed=0)
        coverages = [
            tuple(evaluated_network(evaluator, config)._coverages()) for config in configs
        ]
        # The third candidate is spoiled, and the fifth fails another check.
        model = SpoiledAccuracies(
            spoiled=((coverages[2], accuracies), (coverages[4], (0.9, 0.1, 0.2)))
        )
        expected = ("raised", ConfigurationError, error)
        spoiled = ConfigEvaluator(network, platform, accuracy_model=model, seed=0)
        assert outcome(spoiled.evaluate_many, configs) == expected
        assert outcome(spoiled.evaluate, configs[2]) == expected
        assert outcome(
            lambda: [spoiled.evaluate(config) for config in configs[:2]]
        )[0] == "returned"
        # The batch's own check, with no one-at-a-time rescoring behind it.
        rows = [model.stage_accuracies_from_coverage(network, row) for row in coverages]
        assert outcome(_exit_statistics, rows, 10_000, 3) == expected


@dataclass(frozen=True)
class HalfAccuracy(AccuracyModel):
    """Every exit at 0.5, whatever it covers."""

    def stage_accuracies_from_coverage(self, network, coverages):
        return tuple(0.5 for _ in coverages)


@dataclass(frozen=True)
class FixedAccuracies(AccuracyModel):
    """The same stage accuracies for every network, however many stages it has."""

    accuracies: tuple = (0.5,)

    def stage_accuracies_from_coverage(self, network, coverages):
        return self.accuracies


@dataclass(frozen=True)
class HalvedCoverageAccuracy(AccuracyModel):
    """Overrides only the per-stage mapping, which the batch path asks too."""

    def stage_accuracy_from_coverage(self, coverage, base_accuracy, family):
        return 0.5 * super().stage_accuracy_from_coverage(coverage, base_accuracy, family)


class TestAccuracyModelOverrides:
    def test_an_overriding_model_is_asked(self, visformer_net, platform):
        model = HalfAccuracy()
        evaluator = ConfigEvaluator(visformer_net, platform, accuracy_model=model, seed=0)
        space = SearchSpace(visformer_net, platform)
        config = space.sample(3)
        results = [evaluator.evaluate(config)] + evaluator.evaluate_many(
            [config] + space.population(4, seed=2)
        )
        for result in results:
            assert result.inference.exit_statistics.stage_accuracies == (0.5, 0.5, 0.5)
        dynamic = evaluated_network(evaluator, config)
        profile = MappingEvaluator(platform).profile(
            dynamic, config.unit_names, config.dvfs_indices
        )
        assert_identical(
            results[0].inference, simulate_dynamic_inference(dynamic, profile, accuracy_model=model)
        )
        assert_identical(results[1].inference, results[0].inference)

    @pytest.mark.parametrize("count", [2, 4])
    def test_one_accuracy_per_stage_or_an_error(self, visformer_net, platform, count):
        model = FixedAccuracies(accuracies=(0.5, 0.6, 0.7, 0.8)[:count])
        evaluator = ConfigEvaluator(visformer_net, platform, accuracy_model=model, seed=0)
        configs = SearchSpace(visformer_net, platform).population(3, seed=4)
        assert {config.partition.num_stages for config in configs} == {3}
        expected = (
            "raised",
            ConfigurationError,
            f"expected 3 stage accuracies, one per stage, got {count}",
        )
        assert outcome(evaluator.evaluate, configs[0]) == expected
        assert outcome(evaluator.evaluate_many, configs) == expected
        dynamic = evaluated_network(evaluator, configs[0])
        profile = MappingEvaluator(platform).profile(
            dynamic, configs[0].unit_names, configs[0].dvfs_indices
        )
        assert outcome(simulate_dynamic_inference, dynamic, profile, model) == expected

    def test_search_asks_an_overriding_model(self, visformer_net, platform):
        framework = MapAndConquer(visformer_net, platform, accuracy_model=HalfAccuracy(), seed=0)
        result = framework.search(generations=2, population_size=6, seed=0)
        assert {item.accuracy for item in result.history} == {0.5}

    def test_a_coverage_override_keeps_the_batch_path(self, visformer_net, platform, monkeypatch):
        model = HalvedCoverageAccuracy()
        evaluator = ConfigEvaluator(visformer_net, platform, accuracy_model=model, seed=0)
        default = ConfigEvaluator(visformer_net, platform, seed=0)
        configs = SearchSpace(visformer_net, platform).population(4, seed=8)
        built = count_networks(monkeypatch)
        for batched, config, plain in zip(
            evaluator.evaluate_many(configs), configs, default.evaluate_many(configs)
        ):
            assert_identical(batched.inference, evaluator.evaluate(config).inference)
            assert batched.accuracy < plain.accuracy
        assert built == []


# -- the three batched parts: per-kind pricing, the split pass, the tail -------------------
def exit_layer(network):
    """The exit head a slice table prices one past the backbone."""
    backbone = backbone_layers(network)
    return LinearLayer(name="exit0", width=network.num_classes, in_width=backbone[-1].width)


def sampled_slices(layers, rng, per_layer=30):
    """Every layer's corner unit pairs and random ones, as sorted slice arrays."""
    positions, in_units, out_units = [], [], []
    for position, layer in enumerate(layers):
        pairs = {(1, 1), (1, layer.width), (layer.in_width, 1), (layer.in_width, layer.width)}
        pairs |= {
            (int(rng.integers(1, layer.in_width + 1)), int(rng.integers(1, layer.width + 1)))
            for _ in range(per_layer)
        }
        for pair in sorted(pairs):
            positions.append(position)
            in_units.append(pair[0])
            out_units.append(pair[1])
    return np.array(positions), np.array(in_units), np.array(out_units)


class TestPricingPerLayerKind:
    @pytest.mark.parametrize("network_name", sorted(NETWORKS))
    def test_every_layer_of_a_network_matches_the_reference(
        self, networks, network_name, monkeypatch
    ):
        network = networks[network_name]
        layers = (*backbone_layers(network), exit_layer(network))
        positions, in_units, out_units = sampled_slices(layers, np.random.default_rng(1))
        gathered = LayerArrays(layers)
        # One formula call per layer kind prices every slice.
        calls = []
        real = Layer._terms

        def counted(self, in_u, out_u):
            calls.append(type(self))
            return real(self, in_u, out_u)

        monkeypatch.setattr(Layer, "_terms", counted)
        flops, total_bytes = workload_arrays(gathered, positions, in_units, out_units)
        monkeypatch.undo()
        assert sorted(cls.__name__ for cls in calls) == sorted(
            {type(layer).__name__ for layer in layers}
        )
        for index, position in enumerate(positions.tolist()):
            expected = reference_from_layer(
                layers[position], int(in_units[index]), int(out_units[index])
            )
            assert_identical(flops[index].item(), expected.flops)
            assert_identical(total_bytes[index].item(), expected.total_bytes)
        # The layers themselves, or their gathered arrays, price alike.
        again = workload_arrays(list(layers), positions, in_units, out_units)
        assert [values.tolist() for values in again] == [flops.tolist(), total_bytes.tolist()]

    def test_a_backbone_mixing_in_overriding_subclasses(self, networks):
        network = networks["visformer"]
        backbone = list(backbone_layers(network))
        # A conv subclass that overrides flops, and a feed-forward one whose
        # hidden width reaches its formulas, replace built-in layers.
        conv = backbone[1]
        backbone[1] = DoubledConv2dLayer(
            **{field.name: getattr(conv, field.name) for field in dataclasses.fields(conv)}
        )
        index = next(i for i, layer in enumerate(backbone) if isinstance(layer, FeedForwardLayer))
        feed = backbone[index]
        backbone[index] = WideFeedForwardLayer(
            **{field.name: getattr(feed, field.name) for field in dataclasses.fields(feed)}
        )
        layers = (*backbone, exit_layer(network))
        positions, in_units, out_units = sampled_slices(layers, np.random.default_rng(2), 10)
        flops, total_bytes = workload_arrays(layers, positions, in_units, out_units)
        for index, position in enumerate(positions.tolist()):
            expected = LayerWorkload.from_layer(
                layers[position], int(in_units[index]), int(out_units[index])
            )
            assert_identical(flops[index].item(), float(expected.flops))
            assert_identical(total_bytes[index].item(), expected.total_bytes)


def every_slice(layers):
    """Every ``(position, in_units, out_units)`` of ``layers``, as sorted slice arrays."""
    slices = [
        (position, in_units, out_units)
        for position, layer in enumerate(layers)
        for in_units in range(1, layer.in_width + 1)
        for out_units in range(1, layer.width + 1)
    ]
    return tuple(np.array(column) for column in zip(*slices))


def assert_priced_as_single_slices(layers, positions, in_units, out_units):
    """``workload_arrays`` equals ``from_layer`` (and the parent's per-method
    accounting, for a built-in kind) on every slice, by ``==`` and ``repr``."""
    flops, total_bytes = workload_arrays(layers, positions, in_units, out_units)
    for index, position in enumerate(positions.tolist()):
        pair = (layers[position], int(in_units[index]), int(out_units[index]))
        expected = [LayerWorkload.from_layer(*pair)]
        if type(pair[0]) in PARENT_LAYERS:
            expected.append(reference_from_layer(*pair))
        for workload in expected:
            assert_identical(flops[index].item(), workload.flops)
            assert_identical(total_bytes[index].item(), workload.total_bytes)


@dataclass(frozen=True)
class ScalarFormulaLayer(Layer):
    """A user kind that writes the four formulas on ints and does not opt in."""

    def _flops(self, in_u, out_u):
        return 3.0 * in_u * out_u

    def _params(self, in_u, out_u):
        return float(in_u + out_u)

    def _output_elements(self, out_u):
        return int(5 * out_u)

    def _input_elements(self, in_u):
        return int(7 * in_u)


class TestOneFormulaPerKind:
    """Each kind's formulas, written once, price ints and arrays alike."""

    def test_float_attributes_truncate_counts_alike(self):
        layers = (
            Conv2dLayer(
                name="c0", width=6, in_width=5, in_spatial=(7.5, 3.3), out_spatial=(2.5, 5.1)
            ),
            Conv2dLayer(
                name="c1", width=4, in_width=6, in_spatial=(6, 6), out_spatial=(1.7, 2.9)
            ),
            LinearLayer(name="l0", width=5, in_width=4, tokens=3.5),
            LinearLayer(name="l1", width=4, in_width=5, tokens=3),
            AttentionLayer(name="a0", width=6, in_width=4, tokens=2.75, num_heads=3),
            AttentionLayer(name="a1", width=6, in_width=6, tokens=5.3, num_heads=2),
            FeedForwardLayer(name="f0", width=5, in_width=6, tokens=4.6, expansion=1.3),
            FeedForwardLayer(name="f1", width=6, in_width=5, tokens=1.1),
        )
        # Each pair of a kind differs in its float attributes, so they reach
        # the formulas as arrays, and one layer of each kind alone as values.
        assert_priced_as_single_slices(layers, *every_slice(layers))
        for layer in layers[::2]:
            assert_priced_as_single_slices((layer,), *every_slice((layer,)))
        assert LayerWorkload.from_layer(layers[2], 3, 3).output_bytes == 2.0 * int(3.5 * 3)

    def test_hidden_widths_on_a_half_round_to_even(self):
        layer = FeedForwardLayer(name="f", width=9, in_width=4, tokens=3, expansion=2.5)
        # 1, 3, 5, 7 and 9 units land on 2.5, 7.5, 12.5, 17.5 and 22.5.
        assert [layer.hidden_units(units) for units in (1, 3, 5, 7, 9)] == [2, 8, 12, 18, 22]
        assert_priced_as_single_slices((layer,), *every_slice((layer,)))
        wider = replace(layer, name="g", tokens=5)
        assert_priced_as_single_slices((layer, wider), *every_slice((layer, wider)))

    def test_a_kind_that_does_not_opt_in_is_priced_pair_by_pair(self, monkeypatch):
        user = ScalarFormulaLayer(name="u", width=4, in_width=3)
        layers = (
            Conv2dLayer(name="c", width=5, in_width=3),
            user,
            LinearLayer(name="l", width=3, in_width=4),
        )
        assert [layer._array_formulas for layer in layers] == [True, False, True]
        assert not DoubledConv2dLayer._array_formulas
        positions, in_units, out_units = every_slice(layers)
        calls = []
        real = Layer._terms

        def counted(self, in_u, out_u):
            calls.append((type(self), type(in_u), type(out_u)))
            return real(self, in_u, out_u)

        monkeypatch.setattr(Layer, "_terms", counted)
        flops, _ = workload_arrays(layers, positions, in_units, out_units)
        monkeypatch.undo()
        # One array call per opted-in kind, one int call per slice of the other.
        mine = positions == 1
        assert calls == [
            (Conv2dLayer, np.ndarray, np.ndarray),
            (LinearLayer, np.ndarray, np.ndarray),
        ] + [(ScalarFormulaLayer, int, int)] * int(mine.sum())
        assert flops[mine].tolist() == [
            3.0 * i * o for i, o in zip(in_units[mine].tolist(), out_units[mine].tolist())
        ]
        assert_priced_as_single_slices(layers, positions, in_units, out_units)


@st.composite
def split_batches(draw):
    """Rows of one share count for many layers: ties, skews, -0.0 and whole heads."""
    shares = draw(st.integers(min_value=1, max_value=9))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        granularity = draw(st.sampled_from([1, 1, 2, 32, 64]))
        width = granularity * draw(st.integers(min_value=shares, max_value=shares + 40))
        kind = draw(st.sampled_from(["ratios", "skewed", "uniform", "zeros"]))
        if kind == "ratios":
            raw = [draw(st.sampled_from(RATIO_CHOICES)) for _ in range(shares)]
        elif kind == "skewed":
            raw = [draw(st.floats(min_value=0.0, max_value=0.06)) for _ in range(shares)]
            raw[draw(st.integers(0, shares - 1))] += 1.0
        elif kind == "uniform":
            raw = [1.0] * shares
        else:
            raw = [0.0] * shares
            raw[draw(st.integers(0, shares - 1))] = 1.0
        total = sum(raw)
        fractions = [-0.0 if value == 0.0 and draw(st.booleans()) else value / total for value in raw]
        rows.append((width, granularity, fractions))
    return rows


class TestSplitPass:
    @settings(max_examples=300, deadline=None)
    @given(rows=split_batches())
    def test_equals_the_reference_row_by_row(self, rows):
        shares = _split_rows(
            np.array([width for width, _, _ in rows]),
            np.array([granularity for _, granularity, _ in rows]),
            np.array([fractions for _, _, fractions in rows]),
        )
        for row, (width, granularity, fractions) in zip(shares.tolist(), rows):
            assert tuple(row) == reference_split_units(width, fractions, granularity)

    def test_ties_surplus_taken_twice_and_deficits(self):
        cases = [
            # Floor-of-one surplus of two, both taken from the last share.
            (4, 1, [0.05, 0.05, 0.05, 0.85], (1, 1, 1, 1)),
            # Tied remainders: the first share wins.
            (96, 1, [1 / 3, 1 / 3, 1 / 3], (32, 32, 32)),
            (10, 1, [0.25, 0.25, 0.25, 0.25], (3, 3, 2, 2)),
            # Whole heads of 32 and 64 channels, with a deficit to spread.
            (192, 32, [0.98, 0.01, 0.01], (128, 32, 32)),
            (384, 64, [0.125, 0.375, 0.5], (64, 128, 192)),
            (7, 1, [-0.0, 1.0, 0.0], (1, 5, 1)),
        ]
        for width, granularity, fractions, expected in cases:
            result = _split_rows(np.array([width]), np.array([granularity]), np.array([fractions]))
            assert tuple(result[0].tolist()) == expected
            assert reference_split_units(width, fractions, granularity) == expected

    def test_a_batch_splits_all_its_columns_in_one_pass(self, networks, monkeypatch):
        network = networks["visformer"]
        platform = get_platform("jetson-agx-xavier")
        space = SearchSpace(network, platform)
        configs = space.population(24, seed=3)
        evaluator = ConfigEvaluator(network, platform, seed=0)
        passes = []
        real = partition_module._split_rows
        monkeypatch.setattr(
            partition_module,
            "_split_rows",
            lambda *args: passes.append(args) or real(*args),
        )
        evaluator.evaluate_many(configs)
        backbone = backbone_layers(network)
        # One pass over every column of every candidate, candidate by
        # candidate and layer by layer, repeated columns included.
        assert len(passes) == 1
        widths, granularities, values = passes[0]
        assert widths.tolist() == [layer.width for layer in backbone] * len(configs)
        assert granularities.tolist() == [
            layer.partition_granularity for layer in backbone
        ] * len(configs)
        assert values.tolist() == [
            column for config in configs for column in config.partition.values.T.tolist()
        ]
        for row, width, granularity, column in zip(
            real(*passes[0]).tolist(), widths.tolist(), granularities.tolist(), values.tolist()
        ):
            assert tuple(row) == reference_split_units(width, column, granularity)
        # The next generation splits all of its columns again, in one pass.
        generation = configs + space.population(4, seed=9)
        evaluator.evaluate_many(generation)
        assert len(passes) == 2
        assert len(passes[1][2]) == len(generation) * len(backbone)


# -- the memos the oracle dropped: verbatim copies --------------------------------------------
def parent_split_columns(
    sizes,
    columns,
    splits,
):
    """The integer shares of every column of validated ``P`` matrices.

    ``sizes`` holds each layer's ``(width, partition_granularity)``,
    ``columns`` the columns of one or more ``P`` as ``(candidates, layers,
    stages)`` floats, and ``splits`` is a split table: a dict from
    ``(width, granularity, *column)`` to the column's integer shares.  The
    split reads nothing else, so one table may serve any number of
    candidates and networks.  A column met before is read from it, and the
    new ones are split together (:func:`_split_rows`), each distinct one
    once, and stored.  Returns the shares, ``(candidates, layers, stages)``.
    A column that cannot be split raises as :func:`split_units` would, once
    the new columns before it are stored.
    """
    num_candidates, num_layers, num_stages = columns.shape
    keys = [
        (width, granularity, *column)
        for candidate in columns.tolist()
        for (width, granularity), column in zip(sizes, candidate)
    ]
    get = splits.get
    shares = [get(key) for key in keys]
    missing: dict = {}
    failure = None
    for index in [index for index, share in enumerate(shares) if share is None]:
        key = keys[index]
        if key not in missing:
            try:
                _check_granules(key[0], key[1], num_stages)
            except PartitionError as error:
                failure = error
                break
            missing[key] = []
        missing[key].append(index)
    if missing:
        new = list(missing)
        split = _split_rows(
            np.array([key[0] for key in new]),
            np.array([key[1] for key in new]),
            np.array([key[2:] for key in new], dtype=float),
        )
        for key, row in zip(new, split.tolist()):
            share = splits[key] = tuple(row)
            for index in missing[key]:
                shares[index] = share
    if failure is not None:
        raise failure
    flat = np.fromiter(chain.from_iterable(shares), dtype=np.int64, count=len(keys) * num_stages)
    return flat.reshape(num_candidates, num_layers, num_stages)


def parent_layer_sizes(layers):
    """Each layer's ``(width, partition_granularity)``, what a split reads of it."""
    return [(layer.width, layer.partition_granularity) for layer in layers]


def split_through(table):
    """``partition._split_columns`` on the split table ``table``."""
    return lambda layers, columns: parent_split_columns(parent_layer_sizes(layers), columns, table)


class ParentSliceTable(SliceTable):
    """A slice table that keeps every latency it prices (``latencies`` verbatim)."""

    def __init__(self, cost_model, interconnect, backbone, max_units):
        super().__init__(cost_model, interconnect, backbone, max_units)
        self.memo = type(cost_model) is AnalyticalCostModel
        self._latencies = {}

    def latencies(self, keys, layers, units):
        flat = keys.ravel()
        if not self.memo:
            values = [
                float(self.cost_model.latency_ms(*self._slice(key, layers, units)))
                for key in flat.tolist()
            ]
            return np.array(values).reshape(keys.shape)
        get = self._latencies.get
        # A latency is finite, so NaN (numpy's None) marks a missing key.
        values = np.array([get(key) for key in flat.tolist()], dtype=float)
        holes = np.isnan(values)
        if holes.any():
            missing = np.unique(flat[holes])
            priced = self._price(missing, layers, units)
            self._latencies.update(zip(missing.tolist(), priced.tolist()))
            values[holes] = priced[np.searchsorted(missing, flat[holes])]
        return values.reshape(keys.shape)


@st.composite
def drawn_generations(draw):
    """A network's name and the options of :func:`build_generations`."""
    return draw(st.sampled_from(sorted(NETWORKS))), dict(
        stages=draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        sizes=draw(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4)),
        repeats=draw(st.sampled_from([0.0, 0.3, 0.9])),
        one_hots=draw(st.sampled_from([0.0, 0.25])),
        negate=draw(st.booleans()),
    )


def build_generations(network, platform, stages, seed, sizes, repeats, one_hots, negate):
    """Generations of ``network``'s ``stages``-stage configurations, ``sizes`` candidates each.

    Each column of ``P`` repeats a column met before (any layer, any earlier
    candidate, this generation's or an earlier one's) with probability
    ``repeats``, else becomes one-hot with probability ``one_hots`` (its
    zeros ``-0.0`` when ``negate``); a candidate repeats a whole earlier one
    with probability ``repeats / 3``.
    """
    space = SearchSpace(network, platform, num_stages=stages)
    rng = np.random.default_rng(seed)
    met, everyone, generations = [], [], []
    for size in sizes:
        generation = []
        for config in space.population(size, seed=rng):
            if everyone and rng.random() < repeats / 3:
                generation.append(everyone[rng.integers(len(everyone))])
                continue
            values = config.partition.values.copy()
            for layer in range(values.shape[1]):
                if met and rng.random() < repeats:
                    values[:, layer] = met[rng.integers(len(met))]
                elif rng.random() < one_hots:
                    column = np.full(stages, -0.0 if negate else 0.0)
                    column[rng.integers(stages)] = 1.0
                    values[:, layer] = column
            met.extend(values.T.copy())
            config = replace(config, partition=PartitionMatrix(values))
            everyone.append(config)
            generation.append(config)
        generations.append(generation)
    return generations


def parent_evaluator(evaluator):
    """A twin of ``evaluator`` pricing through a slice table that keeps its latencies."""
    twin = twin_of(evaluator)
    twin._mapping_evaluator._table = ParentSliceTable.for_network(
        twin._mapping_evaluator.cost_model, twin.platform.interconnect, twin.network
    )
    return twin


class TestNoMemoMatchesTheMemos:
    """Each batch split and priced from its own arrays, against the parent's memos.

    The parent split every column through a split table kept by the
    evaluator and kept every slice latency it priced; both live on here as
    verbatim copies (``parent_split_columns``, ``ParentSliceTable``), warm
    from one generation to the next.
    """

    @settings(max_examples=30, deadline=None)
    @given(case=drawn_generations())
    def test_generations_match_field_by_field(self, networks, case):
        name, options = case
        network = networks[name]
        platform = jetson_agx_xavier(include_cpu=True)
        evaluator = ConfigEvaluator(network, platform, seed=1)
        parent = parent_evaluator(evaluator)
        table, parent_table = evaluator._mapping_evaluator._table, parent._mapping_evaluator._table
        backbone = backbone_layers(network)
        splits = {}
        for generation in build_generations(network, platform, **options):
            partitions = [config.partition for config in generation]
            indicators = [config.indicator for config in generation]
            arrays = network_arrays(network, backbone, partitions, indicators, table.output_bytes)
            results = evaluator.evaluate_many(generation)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(partition_module, "_split_columns", split_through(splits))
                expected = network_arrays(
                    network, backbone, partitions, indicators, parent_table.output_bytes
                )
                parent_results = parent.evaluate_many(generation)
            for field, reference in zip(arrays, expected):
                assert field.dtype == reference.dtype
                assert_identical(field.tolist(), reference.tolist())
            # Every latency, through one fresh table and the parent's warm one.
            mappings = evaluator._mapping_evaluator._mapping_points(
                [config.unit_names for config in generation],
                [config.dvfs_indices for config in generation],
                options["stages"],
            )
            unit_keys = np.array([[point[0] for point in mapping] for mapping in mappings])
            units = {key: (unit, scale) for mapping in mappings for key, unit, scale, _ in mapping}
            fresh = schedule_batch(
                SliceTable.for_network(AnalyticalCostModel(), platform.interconnect, network),
                network,
                arrays,
                unit_keys,
                units,
            )
            warm = schedule_batch(parent_table, network, expected, unit_keys, units)
            assert_identical(fresh.keys.tolist(), warm.keys.tolist())
            for part in ("taus", "exit_latencies", "cumulative", "stalls", "moved"):
                assert_identical(getattr(fresh, part).tolist(), getattr(warm, part).tolist())
            for result, reference in zip(results, parent_results):
                assert_identical(result.profile, reference.profile)
                assert_identical(result.inference, reference.inference)
        # The parent's memos were read: the split table holds every distinct
        # column, the latency memo every distinct slice.
        assert splits and parent_table._latencies

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_an_unsplittable_column_raises_the_parent_message(self, networks, warm):
        class Heads(LinearLayer):
            """A linear layer split in whole granules of ``in_width`` units."""

            @property
            def partition_granularity(self):
                return self.in_width

        layers = [
            LinearLayer(name="wide", width=12, in_width=4),
            LinearLayer(name="narrow", width=2, in_width=12),
            Heads(name="ragged", width=10, in_width=4),
            LinearLayer(name="thin", width=1, in_width=10),
        ]
        # Three stages: "narrow" fails first ("ragged" and "thin" fail too).
        rng = np.random.default_rng(0)
        raw = rng.random((5, len(layers), 3))
        columns = raw / raw.sum(axis=2, keepdims=True)
        splits = {}
        if warm:
            parent_split_columns(parent_layer_sizes(layers[:1]), columns[:, :1], splits)
        for candidates in (columns, columns[2:], columns[:1]):
            with pytest.raises(PartitionError) as parent_error:
                parent_split_columns(parent_layer_sizes(layers), candidates, splits)
            with pytest.raises(PartitionError) as error:
                partition_module._split_columns(layers, candidates)
            assert str(error.value) == str(parent_error.value)
            assert str(error.value) == (
                "cannot split 2 units (2 granules of 1) into 3 non-empty shares"
            )
        # Without "narrow", "ragged"'s granularity fails; without it, "thin".
        for kept, message in (
            ([0, 2, 3], "granularity must divide the width (10 % 4 != 0)"),
            ([0, 3], "cannot split 1 units (1 granules of 1) into 3 non-empty shares"),
        ):
            chosen = [layers[index] for index in kept]
            with pytest.raises(PartitionError) as parent_error:
                parent_split_columns(parent_layer_sizes(chosen), columns[:, kept], splits)
            with pytest.raises(PartitionError) as error:
                partition_module._split_columns(chosen, columns[:, kept])
            assert str(error.value) == str(parent_error.value) == message
        # A network's batch: visformer's six-head attention cannot feed seven stages.
        network = networks["visformer"]
        backbone = backbone_layers(network)
        partitions = [PartitionMatrix.uniform(7, len(backbone))] * 2
        indicators = [IndicatorMatrix.full(7, len(backbone))] * 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partition_module, "_split_columns", split_through(splits))
            with pytest.raises(PartitionError) as parent_error:
                network_arrays(network, backbone, partitions, indicators)
        with pytest.raises(PartitionError) as error:
            network_arrays(network, backbone, partitions, indicators)
        assert str(error.value) == str(parent_error.value)
        assert str(error.value).startswith("cannot split 192 units (6 granules of 32)")
