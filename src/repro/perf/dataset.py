"""Benchmark-dataset generation for surrogate training (Sect. V-E).

The paper builds a dataset of layer-wise latency/energy measurements across
layer specifications, compute units and DVFS settings using TensorRT, then
fits an XGBoost predictor on it.  This module plays the measurement
campaign's role: it samples synthetic layer configurations spanning the
ranges that occur in CIFAR-scale CNNs and ViTs, pairs each with a randomly
chosen compute unit and DVFS operating point, and records latency/energy from
the (noisy) analytical oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..nn.layers import AttentionLayer, Conv2dLayer, FeedForwardLayer, LinearLayer
from ..soc.compute_unit import ComputeUnit
from ..soc.platform import Platform
from ..utils import as_rng
from .layer_cost import CostModel, LayerWorkload, NoisyCostModel

__all__ = [
    "BenchmarkDataset",
    "generate_benchmark_dataset",
    "encode_features",
]

#: Names of the hardware/DVFS features appended to the workload features.
HARDWARE_FEATURE_NAMES = (
    "peak_gflops",
    "memory_bandwidth_gbs",
    "launch_overhead_ms",
    "max_power_w",
    "dvfs_scale",
)


def encode_features(workload: LayerWorkload, unit: ComputeUnit, scale: float) -> np.ndarray:
    """Full feature vector for one (layer, compute unit, DVFS) combination."""
    hardware = np.array(
        [
            unit.peak_gflops,
            unit.memory_bandwidth_gbs,
            unit.launch_overhead_ms,
            unit.power.max_power_w,
            scale,
        ],
        dtype=float,
    )
    return np.concatenate([workload.features(), hardware])


@dataclass(frozen=True)
class BenchmarkDataset:
    """A table of (features, latency, energy) samples for surrogate training."""

    features: np.ndarray
    latencies_ms: np.ndarray
    energies_mj: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        latencies = np.asarray(self.latencies_ms, dtype=float)
        energies = np.asarray(self.energies_mj, dtype=float)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ConfigurationError("features must be a non-empty 2-D array")
        if latencies.shape != (features.shape[0],) or energies.shape != (features.shape[0],):
            raise ConfigurationError("latencies and energies must be 1-D and match features rows")
        if np.any(latencies <= 0) or np.any(energies <= 0):
            raise ConfigurationError("latencies and energies must be strictly positive")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "latencies_ms", latencies)
        object.__setattr__(self, "energies_mj", energies)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def split(self, train_fraction: float = 0.8, seed: int = 0) -> Tuple["BenchmarkDataset", "BenchmarkDataset"]:
        """Random train/test split preserving row alignment."""
        if not 0 < train_fraction < 1:
            raise ConfigurationError(f"train_fraction must lie in (0, 1), got {train_fraction}")
        rng = as_rng(seed)
        order = rng.permutation(len(self))
        cut = max(1, int(round(train_fraction * len(self))))
        cut = min(cut, len(self) - 1)
        train_rows, test_rows = order[:cut], order[cut:]
        return (
            BenchmarkDataset(
                self.features[train_rows],
                self.latencies_ms[train_rows],
                self.energies_mj[train_rows],
            ),
            BenchmarkDataset(
                self.features[test_rows],
                self.latencies_ms[test_rows],
                self.energies_mj[test_rows],
            ),
        )


def _sample_workload(rng: np.random.Generator) -> LayerWorkload:
    """Draw one synthetic layer configuration from CIFAR-scale ranges."""
    kind = rng.choice(["conv2d", "attention", "feedforward", "linear"])
    if kind == "conv2d":
        in_channels = int(rng.choice([3, 16, 32, 64, 96, 128, 192, 256, 384, 512]))
        out_channels = int(rng.choice([16, 32, 64, 96, 128, 192, 256, 384, 512]))
        spatial = int(rng.choice([4, 8, 16, 32]))
        kernel = int(rng.choice([1, 2, 3]))
        layer = Conv2dLayer(
            name="sample",
            width=out_channels,
            in_width=in_channels,
            kernel_size=kernel,
            stride=1,
            in_spatial=(spatial, spatial),
            out_spatial=(spatial, spatial),
        )
    elif kind == "attention":
        num_heads = int(rng.choice([2, 3, 4, 6, 8, 12]))
        width = num_heads * 32
        tokens = int(rng.choice([16, 64, 256]))
        layer = AttentionLayer(
            name="sample", width=width, in_width=width, tokens=tokens, num_heads=num_heads
        )
    elif kind == "feedforward":
        width = int(rng.choice([96, 192, 256, 384, 512]))
        tokens = int(rng.choice([16, 64, 256]))
        layer = FeedForwardLayer(
            name="sample", width=width, in_width=width, tokens=tokens, expansion=4.0
        )
    else:
        in_features = int(rng.choice([64, 128, 256, 384, 512, 1024]))
        out_features = int(rng.choice([10, 100, 256, 512, 1024]))
        layer = LinearLayer(name="sample", width=out_features, in_width=in_features, tokens=1)
    # Random partial slices widen the coverage of partitioned sub-layers.
    granularity = layer.partition_granularity
    max_granules = layer.width // granularity
    out_units = int(rng.integers(1, max_granules + 1)) * granularity
    in_units = int(rng.integers(1, layer.in_width + 1))
    return LayerWorkload.from_layer(layer, in_units=in_units, out_units=out_units)


def generate_benchmark_dataset(
    platform: Platform,
    num_samples: int = 2000,
    noise_std: float = 0.05,
    seed: int | np.random.Generator | None = 0,
    cost_model: CostModel | None = None,
) -> BenchmarkDataset:
    """Generate a surrogate-training dataset for ``platform``.

    Parameters
    ----------
    platform:
        The MPSoC whose compute units and DVFS tables to sample.
    num_samples:
        Number of (layer, unit, DVFS) rows to generate.
    noise_std:
        Log-normal measurement-noise standard deviation applied to the oracle.
    seed:
        Random seed controlling both sampling and noise.
    cost_model:
        Ground-truth oracle; defaults to a noisy analytical model.
    """
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    rng = as_rng(seed)
    oracle = cost_model if cost_model is not None else NoisyCostModel(noise_std=noise_std, seed=rng)
    rows: List[np.ndarray] = []
    latencies: List[float] = []
    energies: List[float] = []
    for _ in range(num_samples):
        workload = _sample_workload(rng)
        unit = platform.compute_units[int(rng.integers(0, platform.num_units))]
        dvfs_index = int(rng.integers(0, unit.num_dvfs_points()))
        scale = unit.scale_for_point(dvfs_index)
        rows.append(encode_features(workload, unit, scale))
        latencies.append(oracle.latency_ms(workload, unit, scale))
        energies.append(oracle.energy_mj(workload, unit, scale))
    return BenchmarkDataset(
        features=np.vstack(rows),
        latencies_ms=np.array(latencies),
        energies_mj=np.array(energies),
    )
