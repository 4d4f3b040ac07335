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
every other cost model is asked.  Each built-in layer kind's formulas, the
same ones a single slice takes, run once per batch, on the attributes of
all of its layers (:class:`LayerArrays`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, Tuple, Union, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from ..nn.layers import BYTES_PER_ELEMENT, Layer
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


class LayerArrays:
    """What :func:`workload_arrays` reads of each position of ``layers``, gathered once.

    Every position's width, input width and kind, and for each class that
    opts in to array pricing (the four built-in kinds, exact classes only)
    the attributes of its layers: an attribute every one of them holds alike
    (by ``repr``, so ``1`` and ``1.0`` differ) stays that Python value, any
    other becomes an array over the layers (a pair of ints a pair of
    arrays).  A table keeps one for as long as it prices the same layers.
    Any other class is priced pair by pair through its
    :meth:`~repro.nn.layers.Layer._slice`.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = tuple(layers)
        self.widths = np.array([layer.width for layer in self.layers])
        self.in_widths = np.array([layer.in_width for layer in self.layers])
        self.formulas = np.array([layer._array_formulas for layer in self.layers])
        self.all_formulas = bool(self.formulas.all())
        #: Each position's kind, an index into the sorted kind names.
        self.kinds = sorted({layer.kind for layer in self.layers})
        self.kind_codes = np.array([self.kinds.index(layer.kind) for layer in self.layers])
        members: dict = {}
        for position, layer in enumerate(self.layers):
            if layer._array_formulas:
                members.setdefault(type(layer), []).append(position)
        # Each position's rank among its class's layers.
        self.rank = np.zeros(len(self.layers), dtype=np.int64)
        self.classes = []
        for cls, positions in members.items():
            self.rank[positions] = np.arange(len(positions))
            shared, varying = {}, {}
            for field in dataclasses.fields(cls):
                values = [getattr(self.layers[position], field.name) for position in positions]
                if len({repr(value) for value in values}) == 1:
                    shared[field.name] = values[0]
                elif isinstance(values[0], tuple):
                    varying[field.name] = tuple(np.array(part) for part in zip(*values))
                else:
                    varying[field.name] = np.array(values)
            member = np.zeros(len(self.layers), dtype=bool)
            member[positions] = True
            self.classes.append((cls, member, shared, varying))

    def formula_terms(
        self, positions: np.ndarray, in_units: np.ndarray, out_units: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, Tuple[np.ndarray, ...]]]:
        """``(selected, terms)`` of every array-priced class among the slices.

        ``selected`` indexes the slices at that class's positions, and
        ``terms`` holds their ``(flops, input_elements, output_elements,
        params)`` from one ``_terms`` call on their unit arrays, made on a
        stand-in of the class whose attributes are those of the slices'
        layers.
        """
        for cls, member, shared, varying in self.classes:
            selected = np.flatnonzero(member[positions])
            if not selected.size:
                continue
            stand_in = object.__new__(cls)
            attributes = vars(stand_in)
            attributes.update(shared)
            if varying:
                rank = self.rank[positions[selected]]
                for name, values in varying.items():
                    attributes[name] = (
                        tuple(part[rank] for part in values)
                        if isinstance(values, tuple)
                        else values[rank]
                    )
            yield selected, stand_in._terms(in_units[selected], out_units[selected])


def workload_arrays(
    layers: Union[Sequence[Layer], LayerArrays],
    positions: np.ndarray,
    in_units: np.ndarray,
    out_units: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``flops`` and ``total_bytes`` of ``LayerWorkload.from_layer(layers[p], i, o)`` per slice.

    The slices are ``(positions[k], in_units[k], out_units[k])``, sorted by
    position; ``layers`` may be given as their :class:`LayerArrays`.  An
    array-priced class's units are checked as
    :meth:`~repro.nn.layers.Layer.resolve_units` checks them, all at once,
    and the slices of all of its layers take its formulas in one call on
    the unit arrays; any other class's slices are priced pair by pair,
    position by position.  The terms are converted as the workload converts
    them and held to its non-negative finite checks.  A failing check raises
    the scalar message.  ``total_bytes`` adds the byte terms in
    :attr:`LayerWorkload.total_bytes`'s order.
    """
    gathered = layers if isinstance(layers, LayerArrays) else LayerArrays(layers)
    outside = (
        (out_units < 1)
        | (out_units > gathered.widths[positions])
        | (in_units < 1)
        | (in_units > gathered.in_widths[positions])
    )
    formulas = None
    if not gathered.all_formulas:
        formulas = gathered.formulas[positions]
        outside &= formulas
    if outside.any():
        first = int(np.argmax(outside))
        gathered.layers[positions[first]].resolve_units(
            int(in_units[first]), int(out_units[first])
        )
    # Rows: flops, input elements to bytes, output elements to bytes, then
    # parameters to weight bytes.  Scaling a float by a power of two is
    # exact, so each byte count is the float of the integer one.
    terms = np.zeros((4, positions.size))
    for selected, values in gathered.formula_terms(positions, in_units, out_units):
        terms[:, selected] = values
    terms[1:] *= BYTES_PER_ELEMENT
    if formulas is not None:
        for position in np.unique(positions[~formulas]).tolist():
            selected = np.flatnonzero(positions == position)
            layer = gathered.layers[position]
            pairs = [
                layer._slice(i, o)
                for i, o in zip(in_units[selected].tolist(), out_units[selected].tolist())
            ]
            terms[:, selected] = tuple(np.array(column) for column in zip(*pairs))
            terms[3, selected] *= BYTES_PER_ELEMENT
    # Written so that a NaN fails it too.
    if terms.size and not (terms.min() >= 0 and terms.max() < np.inf):
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
        # Written so that a NaN fails it too.
        if not 0 <= noise_std < math.inf:
            raise ConfigurationError(f"noise_std must be a finite number >= 0, got {noise_std}")
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
