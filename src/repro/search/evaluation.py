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
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..dynamics.accuracy import AccuracyModel
from ..dynamics.inference import DynamicInferenceResult, simulate_dynamic_inference
from ..dynamics.samples import DEFAULT_VALIDATION_SAMPLES
from ..nn.channels import ChannelRanking, rank_channels
from ..nn.graph import NetworkGraph
from ..nn.multiexit import (
    DynamicNetwork,
    build_dynamic_network,
    importance_curves,
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

    Equality is identity: the evaluation cache hands out one object per
    content digest, so membership tests (``config in pareto_set``) compare
    identities instead of trying to compare the nested numpy matrices
    element-wise.
    """

    config: MappingConfig
    dynamic_network: DynamicNetwork
    profile: HardwareProfile
    inference: DynamicInferenceResult

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
        return self.dynamic_network.network.base_accuracy - self.accuracy

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

    def stage_accuracies(self, dynamic_network: DynamicNetwork) -> tuple:
        if self._curves is None and self._ranking is not None:
            self._curves = importance_curves(self._ranking, backbone_layers(self._network))
        coverages = stage_coverages(
            dynamic_network.scheme, range(dynamic_network.num_stages), self._curves
        )
        return self.model.stage_accuracies_from_coverage(dynamic_network.network, coverages)


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
        self._accuracy = _CachedCoverageAccuracy(
            self.accuracy_model, network, self.ranking if self.reorder_channels else None
        )
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
        """Stable hex digest of :meth:`config_key`, for persistent caches."""
        digest = hashlib.sha256()
        for part in self.config_key(config):
            if isinstance(part, bytes):
                digest.update(part)
            else:
                digest.update(repr(part).encode("utf-8"))
        return digest.hexdigest()

    def evaluate(self, config: MappingConfig) -> EvaluatedConfig:
        """Run the full pipeline for ``config``.

        Uncached: repeats are resolved by the engine's
        :class:`~repro.engine.cache.EvaluationCache`, keyed on
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
            dynamic_network=dynamic_network,
            profile=profile,
            inference=inference,
        )

    def evaluate_many(self, configs) -> list:
        """Evaluate a whole population, preserving order."""
        return [self.evaluate(config) for config in configs]
