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
from typing import Sequence, Tuple

from ..errors import ConfigurationError
from ..nn.multiexit import DynamicNetwork
from ..perf.evaluator import HardwareProfile
from .accuracy import AccuracyModel
from .samples import DEFAULT_VALIDATION_SAMPLES, ExitStatistics, compute_exit_statistics

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
    return _inference_result(
        model.stage_accuracies(dynamic_network),
        profile,
        dynamic_network.reuse_fraction(),
        validation_samples,
    )


def _inference_result(
    stage_accuracies: Sequence[float],
    profile: HardwareProfile,
    reuse_fraction: float,
    validation_samples: int,
) -> DynamicInferenceResult:
    """:func:`simulate_dynamic_inference` once the stage accuracies are known."""
    statistics = compute_exit_statistics(stage_accuracies, validation_samples=validation_samples)

    if statistics.num_stages != profile.num_stages:
        raise ConfigurationError(
            f"expected {profile.num_stages} stage accuracies, one per stage, "
            f"got {statistics.num_stages}"
        )
    latencies = tuple(stage.latency_ms for stage in profile.stages)
    energies = tuple(stage.energy_mj for stage in profile.stages)
    # Stopping at stage i costs the makespan of stages 0..i and the energy of
    # all of them: the running maximum of HardwareProfile.cumulative_latency_ms,
    # and the built-in sum of each prefix that cumulative_energy_mj takes.
    expected_latency = 0.0
    expected_energy = 0.0
    makespan = latencies[0]
    for stage_index, fraction in enumerate(statistics.exit_fractions):
        makespan = max(makespan, latencies[stage_index])
        expected_latency += fraction * makespan
        expected_energy += fraction * sum(energies[: stage_index + 1])

    return DynamicInferenceResult(
        exit_statistics=statistics,
        stage_latencies_ms=latencies,
        stage_energies_mj=energies,
        expected_latency_ms=float(expected_latency),
        expected_energy_mj=float(expected_energy),
        worst_case_latency_ms=profile.latency_ms,
        worst_case_energy_mj=profile.total_energy_mj,
        reuse_fraction=reuse_fraction,
        stored_feature_bytes=profile.stored_feature_bytes,
    )
