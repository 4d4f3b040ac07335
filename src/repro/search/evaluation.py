"""Candidate evaluation pipeline (the "Evaluate" box of Fig. 5).

For every sampled configuration ``Pi`` the framework must:

1. partition and reorder the network according to ``P`` and the channel
   ranking, and attach exits (:mod:`repro.nn`),
2. characterise the concurrent execution on the chosen units / DVFS points
   (:mod:`repro.perf`),
3. simulate the dynamic inference to obtain exit statistics, accuracy and
   average latency/energy (:mod:`repro.dynamics`).

:class:`ConfigEvaluator` wires those steps behind a single ``evaluate`` call
and exposes the content digest under which the engine's
:class:`~repro.engine.cache.EvaluationCache` stores results, so the
evolutionary loop never pays twice for elites carried across generations.
The per-layer cost model is pluggable (analytical oracle or trained
surrogate), mirroring the paper's use of an XGBoost predictor inside the
loop.

``evaluate`` is the reference path: it builds the candidate's
:class:`~repro.nn.multiexit.DynamicNetwork`, profiles it and simulates it.
The search scores a whole generation through ``evaluate_many``, which on the
exact analytical oracle evaluates the generation as arrays, as the paper's
loop ranks a generation only once all of it is scored: every column of ``P``
is split through the evaluator's split table, and the sub-layer inputs,
reused bytes, slice keys, the Eq. 8 recursion, stage energies and exit
coverages are computed on ``(candidates, stages, layers)`` arrays, looping
over stages and layers and vectorised over candidates; all of the
generation's slice-table misses are priced in one vectorised roofline pass.
No network, sub-layer or schedule object is built, and every result equals
``evaluate``'s, field for field and bit for bit.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..dynamics.accuracy import AccuracyModel
from ..dynamics.inference import (
    DynamicInferenceResult,
    _inference_result,
    simulate_dynamic_inference,
)
from ..dynamics.samples import DEFAULT_VALIDATION_SAMPLES
from ..errors import ReproError
from ..nn.channels import ChannelRanking, rank_channels
from ..nn.graph import NetworkGraph
from ..nn.multiexit import (
    DynamicNetwork,
    NetworkArrays,
    build_dynamic_network,
    importance_curves,
    network_arrays,
    stage_coverage_arrays,
    stage_coverages,
)
from ..nn.partition import backbone_layers
from ..perf.evaluator import HardwareProfile, MappingEvaluator
from ..perf.layer_cost import CostModel
from ..soc.platform import Platform
from .space import MappingConfig

__all__ = ["EvaluatedConfig", "ConfigEvaluator"]


@dataclass(frozen=True, eq=False)
class EvaluatedConfig:
    """A configuration together with everything the search needs to rank it.

    A result is content: the configuration, its hardware profile (stage
    latencies and energies, Eq. 13/14), the simulated dynamic inference
    (exit statistics and stage accuracies) and the network's pretrained
    ``base_accuracy`` (the ``Acc_base`` of Eq. 16).  The
    :class:`~repro.nn.multiexit.DynamicNetwork` it was built from is not
    kept; rebuild it with :func:`~repro.nn.multiexit.build_dynamic_network`
    from the evaluator's inputs (its ``network``, ``config.partition``,
    ``config.indicator``, ``ranking`` and ``reorder_channels``).

    Equality is identity: the evaluation cache hands out one object per
    content digest, so membership tests (``config in pareto_set``) compare
    identities instead of every nested field.
    """

    config: MappingConfig
    profile: HardwareProfile
    inference: DynamicInferenceResult
    base_accuracy: float

    # -- convenience accessors used by objectives, constraints and reports -------
    @property
    def accuracy(self) -> float:
        """Top-1 accuracy of the dynamic cascade (its final stage's accuracy).

        Read straight off the exit statistics: the default accuracy
        objective reads it on every domination check.
        """
        return self.inference.exit_statistics.stage_accuracies[-1]

    @property
    def latency_ms(self) -> float:
        """Average per-sample latency under dynamic inference."""
        return self.inference.expected_latency_ms

    @property
    def energy_mj(self) -> float:
        """Average per-sample energy under dynamic inference."""
        return self.inference.expected_energy_mj

    @property
    def worst_case_latency_ms(self) -> float:
        """Latency when every stage is instantiated (Eq. 13)."""
        return self.inference.worst_case_latency_ms

    @property
    def worst_case_energy_mj(self) -> float:
        """Energy when every stage is instantiated (Eq. 14, M' = M)."""
        return self.inference.worst_case_energy_mj

    @property
    def reuse_fraction(self) -> float:
        """Fraction of forwardable feature maps reused."""
        return self.inference.reuse_fraction

    @property
    def stored_feature_bytes(self) -> int:
        """Shared-memory footprint of forwarded features."""
        return self.inference.stored_feature_bytes

    @property
    def accuracy_drop(self) -> float:
        """Accuracy drop relative to the pretrained baseline (can be negative)."""
        return self.base_accuracy - self.accuracy

    def summary_row(self) -> dict:
        """Flat dictionary used by the report tables."""
        return {
            "mapping": self.config.describe(),
            "accuracy_pct": 100.0 * self.accuracy,
            "avg_energy_mj": self.energy_mj,
            "avg_latency_ms": self.latency_ms,
            "reuse_pct": 100.0 * self.reuse_fraction,
        }


def _config_key(config: MappingConfig) -> Tuple:
    """Hashable identity of a configuration for evaluation caching."""
    return (
        config.partition.values.tobytes(),
        config.indicator.values.tobytes(),
        config.unit_names,
        config.dvfs_indices,
    )


def _key_bytes(parts: Tuple) -> bytes:
    """What :meth:`ConfigEvaluator.content_digest` hashes of key ``parts``:
    bytes as they are, anything else as its ``repr`` in utf-8."""
    return b"".join(
        part if isinstance(part, bytes) else repr(part).encode("utf-8") for part in parts
    )


def _ranking_fingerprint(ranking: ChannelRanking) -> str:
    """Stable digest of a channel ranking's full content (scores *and* order).

    Two rankings synthesised from different seeds produce different score
    vectors, so hashing the scores captures the seed without needing to store
    it; the order arrays are hashed too because an externally supplied
    ranking may pair identical scores with a different channel ordering,
    which changes coverage and therefore every evaluated accuracy.
    """
    digest = hashlib.sha256()
    digest.update(ranking.network_name.encode("utf-8"))
    for layer_name in ranking.layer_names():
        digest.update(layer_name.encode("utf-8"))
        digest.update(np.asarray(ranking.scores[layer_name], dtype=float).tobytes())
        digest.update(np.asarray(ranking.order[layer_name], dtype=np.int64).tobytes())
    return digest.hexdigest()


class _CachedCoverageAccuracy:
    """An accuracy model whose stage coverage reads curves computed once.

    :func:`simulate_dynamic_inference` only asks its accuracy model for
    ``stage_accuracies(dynamic_network)``.  This answers like
    :meth:`AccuracyModel.stage_accuracies`, through the same coverage helper,
    but computes each backbone layer's importance curve once per evaluator
    rather than once per stage and evaluation.  ``ranking`` is ``None`` when
    channels are not reordered (plain width fractions).
    """

    def __init__(
        self,
        model: AccuracyModel,
        network: NetworkGraph,
        ranking: Optional[ChannelRanking],
    ) -> None:
        self.model = model
        self._network = network
        self._ranking = ranking
        self._curves = None
        self._flat_curves = None

    def _importance_curves(self) -> Optional[list]:
        if self._curves is None and self._ranking is not None:
            self._curves = importance_curves(self._ranking, backbone_layers(self._network))
        return self._curves

    def stage_accuracies(self, dynamic_network: DynamicNetwork) -> tuple:
        coverages = stage_coverages(
            dynamic_network.scheme, range(dynamic_network.num_stages), self._importance_curves()
        )
        return self.model.stage_accuracies_from_coverage(dynamic_network.network, coverages)

    def stage_accuracy_rows(self, arrays: NetworkArrays) -> list:
        """:meth:`stage_accuracies` of every candidate of a batch, from its arrays."""
        curves = self._importance_curves()
        if curves is not None and self._flat_curves is None:
            offsets = np.cumsum([0] + [len(curve) for curve in curves[:-1]])
            self._flat_curves = (np.concatenate(curves), offsets)
        widths = [layer.width for layer in backbone_layers(self._network)]
        coverages = stage_coverage_arrays(arrays, widths, self._flat_curves)
        return [
            self.model.stage_accuracies_from_coverage(self._network, row)
            for row in coverages.tolist()
        ]


class ConfigEvaluator:
    """Evaluate mapping configurations for one network on one platform.

    Parameters
    ----------
    network:
        The pretrained network being transformed and mapped.
    platform:
        Target MPSoC.
    cost_model:
        Per-layer latency/energy model; ``None`` selects the analytical
        oracle.  Pass a trained :class:`~repro.perf.predictor.SurrogateCostModel`
        to reproduce the paper's surrogate-in-the-loop setup.
    accuracy_model:
        Coverage-to-accuracy model; ``None`` selects the calibrated default.
        A subclass that overrides ``stage_accuracies`` is asked through it,
        candidate by candidate.
    ranking:
        Channel-importance ranking; ``None`` synthesises one from ``seed``.
    reorder_channels:
        Whether to apply the Sect. V-D importance reordering (the ablation
        benches disable it).
    validation_samples:
        Validation-set size for the exit statistics.
    """

    def __init__(
        self,
        network: NetworkGraph,
        platform: Platform,
        cost_model: Optional[CostModel] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        ranking: Optional[ChannelRanking] = None,
        reorder_channels: bool = True,
        validation_samples: int = DEFAULT_VALIDATION_SAMPLES,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.platform = platform
        self.cost_model = cost_model
        self.accuracy_model = accuracy_model if accuracy_model is not None else AccuracyModel()
        self.ranking = ranking if ranking is not None else rank_channels(network, seed=seed)
        self.reorder_channels = bool(reorder_channels)
        self.validation_samples = int(validation_samples)
        self.seed = int(seed)
        # The memos live only as long as this evaluator: each distinct column
        # of P is split once, each distinct layer slice costed once, each
        # layer's importance curve built once.
        self._splits: dict = {}
        self._mapping_evaluator = MappingEvaluator(platform, cost_model=cost_model)
        self._mapping_evaluator._keep_slice_table(network)
        if getattr(self.accuracy_model, "_from_coverage", False):
            self._accuracy = _CachedCoverageAccuracy(
                self.accuracy_model, network, self.ranking if self.reorder_channels else None
            )
        else:
            self._accuracy = self.accuracy_model
        # Fingerprint the *effective* cost model (the mapping evaluator
        # substitutes the analytical oracle for None) now, before any
        # stateful use can advance internal RNGs: class plus full pickled
        # state, so two surrogates trained differently or two noise levels
        # never alias cache entries.  Fixed protocol keeps the digest stable
        # across Python versions for persistent caches.  An unpicklable
        # custom model still works: its fallback fingerprint is unique per
        # instance, which forgoes cache sharing but can never alias.
        effective_cost_model = self._mapping_evaluator.cost_model
        try:
            state_digest = hashlib.sha256(
                pickle.dumps(effective_cost_model, protocol=4)
            ).hexdigest()
        except Exception:  # noqa: BLE001 - arbitrary user models may not pickle
            state_digest = f"unpicklable-{id(effective_cost_model):#x}"
        self._cost_model_fingerprint = (
            type(effective_cost_model).__name__,
            state_digest,
        )
        self._identity: Optional[Tuple] = None
        self._identity_bytes: Optional[bytes] = None

    # -- content identity --------------------------------------------------------
    def identity_key(self) -> Tuple:
        """Hashable identity of this evaluator's *configuration*.

        Two evaluators that would score the same :class:`MappingConfig`
        differently (different network, platform, channel ranking, reordering
        flag, accuracy model, cost model or validation budget) must never
        alias cache entries, so all of those feed the key.  The cost model
        contributes its construction-time state digest, so surrogates trained
        on different data and noise models with different levels are
        discriminated too.
        """
        if self._identity is None:
            self._identity = (
                self.network.name,
                self.platform.name,
                _ranking_fingerprint(self.ranking),
                self.reorder_channels,
                repr(self.accuracy_model),
                self._cost_model_fingerprint,
                self.validation_samples,
            )
        return self._identity

    def config_key(self, config: MappingConfig) -> Tuple:
        """Full content key of ``config`` *as seen by this evaluator*.

        Unlike the bare configuration key, this includes the evaluator
        identity (channel ranking, ``reorder_channels``, ...) so results from
        differently configured evaluators can share one cache without
        aliasing.
        """
        return _config_key(config) + self.identity_key()

    def content_digest(self, config: MappingConfig) -> str:
        """Stable hex digest of :meth:`config_key`, for persistent caches.

        The identity suffix is encoded once per evaluator; hashing it after
        the configuration's own parts digests the same bytes.
        """
        if self._identity_bytes is None:
            self._identity_bytes = _key_bytes(self.identity_key())
        return hashlib.sha256(_key_bytes(_config_key(config)) + self._identity_bytes).hexdigest()

    def evaluate(self, config: MappingConfig) -> EvaluatedConfig:
        """Run the full pipeline for ``config``.

        The dynamic network is built, profiled and simulated, then let go:
        the result keeps only the numbers.  Uncached: repeats are resolved by
        the engine's :class:`~repro.engine.cache.EvaluationCache`, keyed on
        :meth:`content_digest`.
        """
        dynamic_network = build_dynamic_network(
            self.network,
            partition=config.partition,
            indicator=config.indicator,
            ranking=self.ranking,
            reorder=self.reorder_channels,
            splits=self._splits,
        )
        profile = self._mapping_evaluator.profile(
            dynamic_network,
            unit_names=config.unit_names,
            dvfs_indices=config.dvfs_indices,
        )
        inference = simulate_dynamic_inference(
            dynamic_network,
            profile,
            accuracy_model=self._accuracy,
            validation_samples=self.validation_samples,
        )
        return EvaluatedConfig(
            config=config,
            profile=profile,
            inference=inference,
            base_accuracy=self.network.base_accuracy,
        )

    def evaluate_many(self, configs) -> list:
        """Evaluate a whole population, preserving order.

        Each result equals ``evaluate(config)``'s, field for field.  On the
        exact analytical oracle a population of two or more is evaluated as
        arrays (see the module docstring), candidates of equal stage count
        together.  Three kinds of input take ``evaluate`` one candidate at a
        time: a cost model that is called per slice (noisy, learned or a
        subclass), so its calls keep their order; an accuracy model that
        overrides ``stage_accuracies``; and a single configuration.  A
        population with an invalid configuration is also re-run that way, so
        the first invalid one raises what ``evaluate`` raises for it.
        """
        configs = list(configs)
        if len(configs) < 2 or not self._batched():
            return [self.evaluate(config) for config in configs]
        by_stages: dict = {}
        for index, config in enumerate(configs):
            by_stages.setdefault(config.partition.num_stages, []).append(index)
        results = [None] * len(configs)
        try:
            for indices in by_stages.values():
                batch = [configs[index] for index in indices]
                for index, result in zip(indices, self._evaluate_arrays(batch)):
                    results[index] = result
        except ReproError:
            return [self.evaluate(config) for config in configs]
        return results

    def _batched(self) -> bool:
        """Whether :meth:`evaluate_many` may evaluate a population as arrays."""
        return self._mapping_evaluator._table.memo and isinstance(
            self._accuracy, _CachedCoverageAccuracy
        )

    def _evaluate_arrays(self, configs: list) -> list:
        """``[evaluate(c) for c in configs]`` for configurations of one stage count."""
        mapping = self._mapping_evaluator
        table = mapping._table
        arrays = network_arrays(
            self.network,
            table._backbone,
            [config.partition for config in configs],
            [config.indicator for config in configs],
            self._splits,
            table.output_bytes,
        )
        profiles = mapping._profile_arrays(
            arrays,
            [config.unit_names for config in configs],
            [config.dvfs_indices for config in configs],
        )
        accuracies = self._accuracy.stage_accuracy_rows(arrays)
        return [
            EvaluatedConfig(
                config=config,
                profile=profile,
                inference=_inference_result(
                    stage_accuracies,
                    profile,
                    config.indicator.reuse_fraction(),
                    self.validation_samples,
                ),
                base_accuracy=self.network.base_accuracy,
            )
            for config, profile, stage_accuracies in zip(configs, profiles, accuracies)
        ]
