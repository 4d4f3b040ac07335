"""Compute-unit descriptors (GPU, DLA, CPU cores of the MPSoC).

A :class:`ComputeUnit` captures what the layer cost model needs to predict
latency and energy for a layer slice mapped onto it:

* peak half-precision throughput at the maximum DVFS point,
* effective memory bandwidth towards the shared DRAM,
* a per-invocation kernel launch / engine submission overhead (dominant for
  the small CIFAR-scale layers the paper evaluates),
* per-layer-kind utilisation factors -- the DLA sustains a much smaller
  fraction of its peak on attention layers than on convolutions, which is why
  DLA-only mapping of the Visformer is slow in Fig. 1,
* the DVFS table and linear power model of :mod:`repro.soc.dvfs`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ConfigurationError
from ..utils import check_fraction, check_non_negative, check_positive
from .dvfs import DvfsTable, PowerModel

__all__ = ["ComputeUnitKind", "ComputeUnit"]


class ComputeUnitKind(str, enum.Enum):
    """Architectural class of a compute unit."""

    GPU = "gpu"
    DLA = "dla"
    CPU = "cpu"


#: Utilisation assumed for layer kinds missing from a unit's utilisation map.
_DEFAULT_UTILISATION = 0.30


@dataclass(frozen=True)
class ComputeUnit:
    """A single processing unit of the MPSoC.

    Parameters
    ----------
    name:
        Unique identifier within the platform (``"gpu"``, ``"dla0"``, ...).
    kind:
        Architectural class (:class:`ComputeUnitKind`).
    peak_gflops:
        Peak fp16 throughput in GFLOP/s at the highest DVFS operating point.
    memory_bandwidth_gbs:
        Sustained bandwidth to shared DRAM in GB/s.
    launch_overhead_ms:
        Fixed per-layer invocation overhead (kernel launch, DLA task submit).
    power:
        Linear power model (Eq. 10).
    dvfs:
        Supported DVFS operating points.
    utilisation:
        Fraction of peak throughput sustained per layer kind
        (``{"conv2d": 0.6, "attention": 0.5, ...}``).
    """

    name: str
    kind: ComputeUnitKind
    peak_gflops: float
    memory_bandwidth_gbs: float
    launch_overhead_ms: float
    power: PowerModel
    dvfs: DvfsTable
    utilisation: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("compute unit name must be non-empty")
        check_positive(self.peak_gflops, "peak_gflops")
        check_positive(self.memory_bandwidth_gbs, "memory_bandwidth_gbs")
        check_non_negative(self.launch_overhead_ms, "launch_overhead_ms")
        for layer_kind, value in self.utilisation.items():
            check_fraction(value, f"utilisation[{layer_kind!r}]", allow_zero=False)
        object.__setattr__(self, "kind", ComputeUnitKind(self.kind))
        object.__setattr__(self, "utilisation", dict(self.utilisation))

    def __hash__(self) -> int:
        # The fields ``==`` compares, the utilisation dict by its items (it
        # stays a dict, so a platform prints as before).
        return hash(
            (
                self.name,
                self.kind,
                self.peak_gflops,
                self.memory_bandwidth_gbs,
                self.launch_overhead_ms,
                self.power,
                self.dvfs,
                frozenset(self.utilisation.items()),
            )
        )

    # -- throughput ------------------------------------------------------------
    def utilisation_for(self, layer_kind: str) -> float:
        """Sustained fraction of peak throughput for ``layer_kind`` layers."""
        return float(self.utilisation.get(layer_kind, _DEFAULT_UTILISATION))

    def effective_gflops(self, layer_kind: str, scale: float = 1.0) -> float:
        """Sustained GFLOP/s for ``layer_kind`` at DVFS scaling ``scale``."""
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
        return self.peak_gflops * self.utilisation_for(layer_kind) * scale

    def effective_bandwidth_gbs(self, scale: float = 1.0) -> float:
        """Memory bandwidth at DVFS scaling ``scale``.

        Memory traffic is only mildly sensitive to the compute clock, so the
        bandwidth is derated by half the frequency reduction.
        """
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
        return self.memory_bandwidth_gbs * (0.5 + 0.5 * scale)

    # -- power -----------------------------------------------------------------
    def power_w(self, scale: float = 1.0) -> float:
        """Power draw at DVFS scaling ``scale`` (Eq. 10)."""
        return self.power.power_w(scale)

    def num_dvfs_points(self) -> int:
        """Number of supported DVFS operating points."""
        return len(self.dvfs)

    def scale_for_point(self, index: int) -> float:
        """Scaling factor ``theta`` of DVFS operating point ``index``."""
        return self.dvfs.scale(index)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.name} ({self.kind.value}): {self.peak_gflops:.0f} GFLOP/s peak, "
            f"{self.memory_bandwidth_gbs:.0f} GB/s, {self.power.max_power_w:.1f} W max, "
            f"{len(self.dvfs)} DVFS points"
        )
