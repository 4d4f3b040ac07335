"""Expected latency/energy of dynamic inference.

Combining the hardware profile (per-stage latency and energy under the
concurrent execution model) with the exit statistics (how many samples
terminate at each stage) gives the average-per-sample metrics reported in
Table II: "Avg. Enrg. (mJ)" and "Avg. Lat. (ms)".  A sample terminating at
stage ``i`` has instantiated stages ``S_1 .. S_i``, so it pays the cumulative
energy ``E_{S_{1:i}}`` (Eq. 14) and experiences the makespan of the first
``i`` concurrent stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..nn.multiexit import DynamicNetwork
from ..perf.evaluator import HardwareProfile
from .accuracy import AccuracyModel
from .samples import DEFAULT_VALIDATION_SAMPLES, ExitStatistics, _exit_statistics

__all__ = ["DynamicInferenceResult", "simulate_dynamic_inference"]


@dataclass(frozen=True)
class DynamicInferenceResult:
    """Average-case behaviour of one dynamic mapping configuration."""

    exit_statistics: ExitStatistics
    stage_latencies_ms: Tuple[float, ...]
    stage_energies_mj: Tuple[float, ...]
    expected_latency_ms: float
    expected_energy_mj: float
    worst_case_latency_ms: float
    worst_case_energy_mj: float
    reuse_fraction: float
    stored_feature_bytes: int

    @property
    def accuracy(self) -> float:
        """Top-1 accuracy of the dynamic cascade."""
        return self.exit_statistics.accuracy

    @property
    def num_stages(self) -> int:
        """Number of stages ``M``."""
        return self.exit_statistics.num_stages


def simulate_dynamic_inference(
    dynamic_network: DynamicNetwork,
    profile: HardwareProfile,
    accuracy_model: AccuracyModel | None = None,
    validation_samples: int = DEFAULT_VALIDATION_SAMPLES,
) -> DynamicInferenceResult:
    """Simulate dynamic inference of ``dynamic_network`` under ``profile``.

    Parameters
    ----------
    dynamic_network:
        The partitioned multi-exit network (provides coverage and reuse).
    profile:
        Hardware characterisation of the same network under a concrete
        mapping/DVFS choice (provides per-stage latency and energy).
    accuracy_model:
        Coverage-to-accuracy model; defaults to the calibrated family model.
    validation_samples:
        Validation-set size used for the ``N_i`` counts.
    """
    if profile.num_stages != dynamic_network.num_stages:
        raise ConfigurationError(
            f"profile has {profile.num_stages} stages but the network has "
            f"{dynamic_network.num_stages}"
        )
    model = accuracy_model if accuracy_model is not None else AccuracyModel()
    stages = profile.stages
    return _inference_results(
        [model.stage_accuracies(dynamic_network)],
        np.array([[stage.latency_ms for stage in stages]], dtype=float),
        np.array([[stage.energy_mj for stage in stages]], dtype=float),
        np.array([dynamic_network.reuse_fraction()]),
        [profile.stored_feature_bytes],
        validation_samples,
    )[0]


def _inference_results(
    accuracies: Sequence[Sequence[float]],
    latencies: np.ndarray,
    energies: np.ndarray,
    reuse_fractions: np.ndarray,
    stored_feature_bytes: Sequence[int],
    validation_samples: int,
) -> List[DynamicInferenceResult]:
    """:func:`simulate_dynamic_inference` of a batch, once its numbers are known.

    Row ``c`` of ``accuracies`` holds candidate ``c``'s stage accuracies
    (checked as :func:`~repro.dynamics.samples.compute_exit_statistics`
    checks them, one per stage), and row ``c`` of ``latencies`` and
    ``energies``, ``(candidates, stages)``, its stages' ``T_{S_i}`` and
    ``E_{S_i}``.  Each candidate's numbers take the float operations of the
    stage loop, vectorised over the candidates: stopping at stage ``i``
    costs the makespan of stages ``0..i``, a running maximum that keeps the
    earlier value unless a later one is larger (as ``max`` does), and the
    energy of all of them, a left-to-right prefix sum from 0.0.
    """
    statistics, fractions = _exit_statistics(accuracies, validation_samples, latencies.shape[1])
    makespans = latencies.copy()
    for stage in range(1, latencies.shape[1]):
        previous, current = makespans[:, stage - 1], makespans[:, stage]
        makespans[:, stage] = np.where(current > previous, current, previous)
    prefix_energies = np.cumsum(energies, axis=1) + 0.0
    expected_latencies = np.cumsum(fractions * makespans, axis=1)[:, -1] + 0.0
    expected_energies = np.cumsum(fractions * prefix_energies, axis=1)[:, -1] + 0.0
    # Each candidate's numbers after its stage tuples, in the field order.
    numbers = np.stack(
        [
            expected_latencies,
            expected_energies,
            makespans[:, -1],
            prefix_energies[:, -1],
            reuse_fractions,
        ],
        1,
    )
    return [
        DynamicInferenceResult(
            statistic, tuple(stage_latencies), tuple(stage_energies), *row, stored
        )
        for statistic, stage_latencies, stage_energies, row, stored in zip(
            statistics,
            latencies.tolist(),
            energies.tolist(),
            numbers.tolist(),
            stored_feature_bytes,
        )
    ]
