"""Layer-level latency and energy cost models.

The paper measures layer latencies and energies on the board through TensorRT
and uses those measurements both directly and to train an XGBoost surrogate
(Sect. V-E).  In this reproduction the ground truth is an analytical model --
a roofline (compute vs. memory bound) term plus a fixed per-invocation
overhead -- evaluated on a compact :class:`LayerWorkload` descriptor.  The
same descriptor doubles as the feature vector of the learned surrogate in
:mod:`repro.perf.predictor`, so the oracle and the surrogate are
interchangeable behind the :class:`CostModel` protocol.

The exact oracle prices a batch of slices at once: :func:`workload_arrays`
and :meth:`AnalyticalCostModel.latencies_ms` give, element for element, the
floats :meth:`LayerWorkload.from_layer` and
:meth:`AnalyticalCostModel.latency_ms` give for one slice, which is how
every other cost model is asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from ..nn.layers import BYTES_PER_ELEMENT, Layer
from ..nn.multiexit import SubLayer
from ..soc.compute_unit import ComputeUnit
from ..utils import as_rng, check_non_negative

__all__ = ["LayerWorkload", "CostModel", "AnalyticalCostModel", "NoisyCostModel"]

#: The terms :class:`LayerWorkload` checks, in its field order.
_WORKLOAD_TERMS = ("flops", "input_bytes", "output_bytes", "weight_bytes")

#: Order of the numerical features produced by :meth:`LayerWorkload.features`.
WORKLOAD_FEATURE_NAMES = (
    "flops",
    "input_bytes",
    "output_bytes",
    "weight_bytes",
    "is_conv2d",
    "is_attention",
    "is_feedforward",
    "is_linear",
)


@dataclass(frozen=True)
class LayerWorkload:
    """Hardware-relevant summary of one layer slice.

    The workload is what the cost models consume; it deliberately contains no
    reference to the originating network so the surrogate can be trained on
    synthetic layer configurations that never appear in any model.
    """

    kind: str
    flops: float
    input_bytes: float
    output_bytes: float
    weight_bytes: float

    def __post_init__(self) -> None:
        check_non_negative(self.flops, "flops")
        check_non_negative(self.input_bytes, "input_bytes")
        check_non_negative(self.output_bytes, "output_bytes")
        check_non_negative(self.weight_bytes, "weight_bytes")

    @property
    def total_bytes(self) -> float:
        """All bytes that move for one invocation (activations + weights)."""
        return self.input_bytes + self.output_bytes + self.weight_bytes

    def features(self) -> np.ndarray:
        """Numeric feature vector used by the learned surrogate."""
        return np.array(
            [
                self.flops,
                self.input_bytes,
                self.output_bytes,
                self.weight_bytes,
                1.0 if self.kind == "conv2d" else 0.0,
                1.0 if self.kind == "attention" else 0.0,
                1.0 if self.kind == "feedforward" else 0.0,
                1.0 if self.kind == "linear" else 0.0,
            ],
            dtype=float,
        )

    @classmethod
    def from_layer(
        cls, layer: Layer, in_units: int | None = None, out_units: int | None = None
    ) -> "LayerWorkload":
        """Build the workload of a (possibly partitioned) layer slice.

        The slice's units are resolved and validated once, and its terms come
        from the layer's formulas on those ints (or from its public accounting
        methods, for a subclass that overrides them; see
        :class:`~repro.nn.layers.Layer`).
        """
        flops, input_bytes, output_bytes, params = layer._slice(in_units, out_units)
        return cls(
            kind=layer.kind,
            flops=flops,
            input_bytes=float(input_bytes),
            output_bytes=float(output_bytes),
            weight_bytes=float(params) * BYTES_PER_ELEMENT,
        )

    @classmethod
    def from_sublayer(cls, sublayer: SubLayer) -> "LayerWorkload":
        """Build the workload of a stage's sub-layer ``l^j_i``."""
        return cls.from_layer(sublayer.base, sublayer.in_units, sublayer.out_units)


def workload_arrays(
    layers: Sequence[Layer],
    positions: np.ndarray,
    in_units: np.ndarray,
    out_units: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``flops`` and ``total_bytes`` of ``LayerWorkload.from_layer(layers[p], i, o)`` per slice.

    The slices are ``(positions[k], in_units[k], out_units[k])``, sorted by
    position.  A built-in kind's units are checked as
    :meth:`~repro.nn.layers.Layer.resolve_units` checks them, all at once,
    and its slices take its formulas on the unit arrays
    (:meth:`~repro.nn.layers.Layer._slice_arrays`); the terms are converted
    as the workload converts them and held to its non-negative finite
    checks.  A failing check raises the scalar message.  ``total_bytes`` adds
    the byte terms in :attr:`LayerWorkload.total_bytes`'s order.
    """
    formulas = np.array([layer._array_formulas for layer in layers])[positions]
    widths = np.array([layer.width for layer in layers])[positions]
    in_widths = np.array([layer.in_width for layer in layers])[positions]
    outside = formulas & (
        (out_units < 1) | (out_units > widths) | (in_units < 1) | (in_units > in_widths)
    )
    if outside.any():
        first = int(np.argmax(outside))
        layers[positions[first]].resolve_units(int(in_units[first]), int(out_units[first]))
    terms = np.empty((4, positions.size))
    bounds = np.searchsorted(positions, np.arange(len(layers) + 1)).tolist()
    for layer, start, stop in zip(layers, bounds, bounds[1:]):
        if start < stop:
            terms[:, start:stop] = layer._slice_arrays(in_units[start:stop], out_units[start:stop])
    # Rows: flops, input bytes, output bytes, then parameters to weight bytes.
    terms[3] *= BYTES_PER_ELEMENT
    if not (np.isfinite(terms) & (terms >= 0)).all():
        for name, values in zip(_WORKLOAD_TERMS, terms.tolist()):
            for value in values:
                check_non_negative(value, name)
    flops, input_bytes, output_bytes, weight_bytes = terms
    return flops, input_bytes + output_bytes + weight_bytes


@runtime_checkable
class CostModel(Protocol):
    """Anything that can predict per-layer latency and energy on a CU."""

    def latency_ms(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        """Latency in milliseconds of ``workload`` on ``unit`` at DVFS ``scale``."""
        ...

    def energy_mj(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        """Energy in millijoules of ``workload`` on ``unit`` at DVFS ``scale``."""
        ...


class AnalyticalCostModel:
    """Roofline-with-overhead oracle standing in for board measurements.

    Latency is the per-invocation launch overhead plus the maximum of the
    compute time (FLOPs over sustained throughput, derated by the DVFS scale)
    and the memory time (bytes moved over effective bandwidth).  Energy is
    latency times the unit's power at the chosen DVFS point (Eq. 11).
    """

    def latency_ms(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
        compute_ms = workload.flops / (unit.effective_gflops(workload.kind, scale) * 1e9) * 1e3
        memory_ms = workload.total_bytes / (unit.effective_bandwidth_gbs(scale) * 1e9) * 1e3
        return unit.launch_overhead_ms + max(compute_ms, memory_ms)

    def unit_rates(self, unit: ComputeUnit, kind: str, scale: float) -> Tuple[float, float, float]:
        """What :meth:`latency_ms` reads of ``unit`` for ``kind`` slices at ``scale``.

        The sustained GFLOP/s, the bandwidth and the launch overhead, after
        the same scale check.
        """
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
        return (
            unit.effective_gflops(kind, scale),
            unit.effective_bandwidth_gbs(scale),
            unit.launch_overhead_ms,
        )

    def latencies_ms(
        self,
        flops: np.ndarray,
        total_bytes: np.ndarray,
        gflops: np.ndarray,
        bandwidth_gbs: np.ndarray,
        overhead_ms: np.ndarray,
    ) -> np.ndarray:
        """:meth:`latency_ms` of many workloads, element for element.

        The last three arrays hold each element's :meth:`unit_rates`; every
        element then takes :meth:`latency_ms`'s float operations in its order.
        """
        compute_ms = flops / (gflops * 1e9) * 1e3
        memory_ms = total_bytes / (bandwidth_gbs * 1e9) * 1e3
        # max(compute_ms, memory_ms): the first unless the second is larger.
        return overhead_ms + np.where(memory_ms > compute_ms, memory_ms, compute_ms)

    def energy_mj(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        return self.latency_ms(workload, unit, scale) * unit.power_w(scale)


class NoisyCostModel:
    """Wrap a cost model with multiplicative log-normal measurement noise.

    Board measurements are noisy (scheduling jitter, thermal state); the
    surrogate-training dataset is generated through this wrapper so the
    learned predictor has to generalise rather than memorise, as it would on
    the real measurement campaign.
    """

    def __init__(
        self,
        base: CostModel | None = None,
        noise_std: float = 0.05,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {noise_std}")
        self._base = base if base is not None else AnalyticalCostModel()
        self._noise_std = noise_std
        self._rng = as_rng(seed)

    def _noise(self) -> float:
        if self._noise_std == 0:
            return 1.0
        return float(self._rng.lognormal(mean=0.0, sigma=self._noise_std))

    def latency_ms(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        return self._base.latency_ms(workload, unit, scale) * self._noise()

    def energy_mj(self, workload: LayerWorkload, unit: ComputeUnit, scale: float) -> float:
        return self._base.energy_mj(workload, unit, scale) * self._noise()
