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

Every evaluation runs on ``(candidates, stages, layers)`` arrays, one
candidate or a whole generation alike.  The search scores a generation
through ``evaluate_many``, as the paper's loop ranks a generation only once
all of it is scored: every column of the batch's ``P`` matrices is split in
one pass, and the sub-layer inputs, reused bytes, slice keys, the Eq. 8
recursion, stage energies and exit coverages are computed looping over
stages and layers and vectorised over candidates; on the exact analytical
oracle the batch's distinct slices are priced in one vectorised roofline
pass.  The exit statistics, the expected and worst-case latency and energy
and the reuse fractions are computed on ``(candidates, stages)`` arrays
too, and each result is built from its rows; only the accuracy mapping runs
candidate by candidate, through the accuracy model's one hook,
``stage_accuracies_from_coverage``.  No network object is built.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..dynamics.accuracy import AccuracyModel
from ..dynamics.inference import DynamicInferenceResult, _inference_results
from ..dynamics.samples import DEFAULT_VALIDATION_SAMPLES
from ..errors import ReproError
from ..nn.channels import ChannelRanking, rank_channels
from ..nn.graph import NetworkGraph
from ..nn.multiexit import importance_curves, stage_coverage_arrays
from ..nn.partition import NetworkArrays, network_arrays, reuse_fractions
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
    ``base_accuracy`` (the ``Acc_base`` of Eq. 16).  It holds no
    :class:`~repro.nn.multiexit.DynamicNetwork`; view the candidate's with
    :func:`~repro.nn.multiexit.build_dynamic_network` from the evaluator's
    inputs (its ``network``, ``config.partition``,
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
        It is asked through ``stage_accuracies_from_coverage``, candidate by
        candidate, with the candidate's stage coverages.
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
        # The importance curves, built once and kept as long as this evaluator.
        self._curves = None
        self._mapping_evaluator = MappingEvaluator(platform, cost_model=cost_model)
        self._mapping_evaluator._keep_slice_table(network)
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
        """Run the full pipeline for ``config``: :meth:`evaluate_many` of it alone.

        Uncached: repeats are resolved by the engine's
        :class:`~repro.engine.cache.EvaluationCache`, keyed on
        :meth:`content_digest`.
        """
        return self.evaluate_many([config])[0]

    def evaluate_many(self, configs) -> list:
        """Evaluate a whole population, preserving order.

        Configurations of one stage count are scored together as arrays (see
        the module docstring).  Under a cost model that is called per slice
        (noisy, learned or a subclass) they are scored one at a time, in
        order, so its calls keep their order.  If a batch holds an invalid
        configuration, the population is scored again one at a time, so the
        first invalid one raises its own error.
        """
        configs = list(configs)
        array_pricing = self._mapping_evaluator._table.array_pricing
        batches: dict = {}
        for index, config in enumerate(configs):
            key = config.partition.num_stages if array_pricing else index
            batches.setdefault(key, []).append(index)
        results = [None] * len(configs)
        for indices in batches.values():
            try:
                evaluated = self._evaluate_arrays([configs[index] for index in indices])
            except ReproError:
                if len(indices) < 2:
                    raise
                # A batch of one stage count may hold a later configuration
                # than an invalid one of another stage count.
                return [self._evaluate_arrays([config])[0] for config in configs]
            for index, result in zip(indices, evaluated):
                results[index] = result
        return results

    def _evaluate_arrays(self, configs: list) -> list:
        """The results of configurations of one stage count, scored together."""
        mapping = self._mapping_evaluator
        table = mapping._table
        arrays = network_arrays(
            self.network,
            table._backbone,
            [config.partition for config in configs],
            [config.indicator for config in configs],
            table.output_bytes,
        )
        batch = mapping._profile_arrays(
            self.network,
            table,
            arrays,
            [config.unit_names for config in configs],
            [config.dvfs_indices for config in configs],
        )
        inferences = _inference_results(
            self._stage_accuracies(arrays),
            batch.latencies,
            batch.energies,
            reuse_fractions(arrays.reused),
            arrays.stored_bytes.tolist(),
            self.validation_samples,
        )
        base_accuracy = self.network.base_accuracy
        return [
            EvaluatedConfig(config, profile, inference, base_accuracy)
            for config, profile, inference in zip(configs, batch.profiles, inferences)
        ]

    def _stage_accuracies(self, arrays: NetworkArrays) -> list:
        """Every candidate's stage accuracies, from the accuracy model."""
        model = self.accuracy_model
        backbone = self._mapping_evaluator._table._backbone
        if self._curves is None and self.reorder_channels:
            self._curves = importance_curves(self.ranking, backbone)
        coverages = stage_coverage_arrays(arrays, backbone, self._curves)
        return [
            model.stage_accuracies_from_coverage(self.network, row) for row in coverages.tolist()
        ]
