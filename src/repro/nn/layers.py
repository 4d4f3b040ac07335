"""Symbolic layer descriptors with analytical cost accounting.

Layers are *not* executed: the reproduction never multiplies tensors.  Each
descriptor knows how to compute, for a given number of input and output
width-units (channels for convolutions, attention heads for self-attention,
hidden units for transformer feed-forward blocks), the number of floating
point operations, the number of parameters, and the size of the produced
feature map.  These analytical quantities drive both the hardware cost model
(:mod:`repro.perf`) and the accuracy model (:mod:`repro.dynamics`).

The ``width`` of a layer is the partitionable dimension used by the paper's
``P`` matrix (Sect. III-A): output channels for convolutional layers, heads
for multi-head self-attention, and output features for linear layers.
Normalisation / activation / pooling overheads are folded into each layer via
a small ``fused_overhead`` multiplier, mirroring how TensorRT fuses these
operations into the preceding kernel on the Jetson platform used by the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "BYTES_PER_ELEMENT",
    "Layer",
    "Conv2dLayer",
    "LinearLayer",
    "AttentionLayer",
    "FeedForwardLayer",
]

#: Feature maps are exchanged in half precision (fp16) on the Jetson DLA/GPU.
BYTES_PER_ELEMENT = 2


#: The public accounting methods and the unit resolution they share.  A
#: subclass that overrides any of them is priced through them, not through
#: the formulas on resolved units.
_ACCOUNTING = (
    "flops",
    "params",
    "input_elements",
    "output_elements",
    "input_bytes",
    "output_bytes",
    "resolve_units",
)


def _count(elements):
    """Whole elements, truncated: an ``int`` of a number, ``int64`` of an array."""
    if isinstance(elements, np.ndarray):
        return elements.astype(np.int64)
    return int(elements)


def _check_units(layer_name: str, width: int, in_width: int, in_units: int, out_units: int) -> None:
    if not 0 < out_units <= width:
        raise ConfigurationError(
            f"layer {layer_name!r}: out_units must lie in [1, {width}], got {out_units}"
        )
    if not 0 < in_units <= in_width:
        raise ConfigurationError(
            f"layer {layer_name!r}: in_units must lie in [1, {in_width}], got {in_units}"
        )


@dataclass(frozen=True)
class Layer:
    """Base class for all symbolic layers.

    Attributes
    ----------
    name:
        Unique layer identifier within a :class:`~repro.nn.graph.NetworkGraph`.
    width:
        Number of partitionable output units (the paper's ``W`` in Eq. 2).
    in_width:
        Number of input units consumed from the previous layer.
    fused_overhead:
        Multiplicative factor on FLOPs accounting for fused normalisation and
        activation operations.
    kind:
        Short lowercase identifier of the layer type (``conv2d`` ...), a
        per-class constant: the class name without its ``Layer`` suffix.

    Each public accounting method (:meth:`flops`, :meth:`params`,
    :meth:`input_elements`, :meth:`output_elements`) resolves its units once
    and delegates to a private formula on resolved units (``_flops`` ...),
    which the built-in kinds implement.  A subclass may instead override the
    public methods (or :meth:`resolve_units`); :meth:`_slice` then prices its
    slices through them.  The built-in kinds write each formula once, for
    ints and int64 unit arrays alike, and opt in to array pricing
    (``_array_formulas``): the exact oracle reads their ``_terms`` once per
    pricing pass for all layers of that exact class
    (:class:`~repro.perf.layer_cost.LayerArrays`).  A subclass, or a kind
    that does not opt in, is priced pair by pair through :meth:`_slice`.
    """

    name: str
    width: int
    in_width: int
    fused_overhead: float = 1.0
    kind: ClassVar[str] = ""
    _priced_by_formulas: ClassVar[bool] = True
    _array_formulas: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "kind" not in vars(cls):
            cls.kind = cls.__name__.removesuffix("Layer").lower()
        if any(name in vars(cls) for name in _ACCOUNTING):
            cls._priced_by_formulas = False
        # Opted in per class: a subclass does not inherit it.
        cls._array_formulas = vars(cls).get("_array_formulas", False)

    def __post_init__(self) -> None:
        # Every numeric check here and in the kinds' is bounded by inf, so
        # NaN and +-inf fail it too.
        if not 1 <= self.width < math.inf:
            raise ConfigurationError(
                f"layer {self.name!r}: width must be a finite number >= 1, got {self.width}"
            )
        if not 1 <= self.in_width < math.inf:
            raise ConfigurationError(
                f"layer {self.name!r}: in_width must be a finite number >= 1, got {self.in_width}"
            )
        if not 1.0 <= self.fused_overhead < math.inf:
            raise ConfigurationError(
                f"layer {self.name!r}: fused_overhead must be a finite number >= 1.0, "
                f"got {self.fused_overhead}"
            )

    # -- analytical accounting -------------------------------------------------
    def flops(self, in_units: int | None = None, out_units: int | None = None) -> float:
        """Floating-point operations for one input sample.

        ``in_units`` / ``out_units`` default to the full layer width, i.e. the
        unpartitioned cost.  Like every accounting method, this resolves and
        validates the units once (:meth:`resolve_units`) and hands them to the
        kind's formula.
        """
        return self._flops(*self.resolve_units(in_units, out_units))

    def params(self, in_units: int | None = None, out_units: int | None = None) -> float:
        """Number of trainable parameters for the selected slice."""
        return self._params(*self.resolve_units(in_units, out_units))

    def output_elements(self, out_units: int | None = None) -> int:
        """Number of scalar elements in the produced feature map (per sample)."""
        return self._output_elements(self.resolve_units(None, out_units)[1])

    def input_elements(self, in_units: int | None = None) -> int:
        """Number of scalar elements consumed from the input feature map."""
        return self._input_elements(self.resolve_units(in_units, None)[0])

    # -- convenience helpers ---------------------------------------------------
    def output_bytes(self, out_units: int | None = None) -> int:
        """Size of the produced feature map in bytes (fp16)."""
        return self.output_elements(out_units) * BYTES_PER_ELEMENT

    def input_bytes(self, in_units: int | None = None) -> int:
        """Size of the consumed feature map in bytes (fp16)."""
        return self.input_elements(in_units) * BYTES_PER_ELEMENT

    # -- formulas on resolved units ----------------------------------------------
    # Each takes resolved ints, or, for a kind that opts in to array pricing,
    # int64 arrays of checked units; element counts are then int64 arrays.
    def _flops(self, in_u: int, out_u: int) -> float:
        raise NotImplementedError

    def _params(self, in_u: int, out_u: int) -> float:
        raise NotImplementedError

    def _output_elements(self, out_u: int) -> int:
        raise NotImplementedError

    def _input_elements(self, in_u: int) -> int:
        raise NotImplementedError

    def _terms(self, in_u, out_u) -> tuple:
        """``(flops, input_elements, output_elements, params)`` of resolved units.

        On arrays ``self`` may be a stand-in of its class whose attributes
        hold one element per pair, so one call prices many layers' slices.
        """
        return (
            self._flops(in_u, out_u),
            self._input_elements(in_u),
            self._output_elements(out_u),
            self._params(in_u, out_u),
        )

    def _slice(
        self, in_units: int | None, out_units: int | None
    ) -> Tuple[float, int, int, float]:
        """``(flops, input_bytes, output_bytes, params)`` of one slice.

        The units are resolved once and the formulas take them.  A class that
        overrides a public accounting method is priced through its public
        methods instead, each of which resolves the units again.
        """
        in_u, out_u = self.resolve_units(in_units, out_units)
        if self._priced_by_formulas:
            flops, inputs, outputs, params = self._terms(in_u, out_u)
            return flops, inputs * BYTES_PER_ELEMENT, outputs * BYTES_PER_ELEMENT, params
        return (
            self.flops(in_units=in_u, out_units=out_u),
            self.input_bytes(in_u),
            self.output_bytes(out_u),
            self.params(in_units=in_u, out_units=out_u),
        )

    def resolve_units(self, in_units: int | None, out_units: int | None) -> Tuple[int, int]:
        """Fill in defaults and validate a ``(in_units, out_units)`` pair."""
        in_u = self.in_width if in_units is None else int(in_units)
        out_u = self.width if out_units is None else int(out_units)
        _check_units(self.name, self.width, self.in_width, in_u, out_u)
        return in_u, out_u

    def with_name(self, name: str) -> "Layer":
        """Return a copy of this layer under a different name."""
        return replace(self, name=name)

    @property
    def partition_granularity(self) -> int:
        """Smallest indivisible group of width-units when partitioning.

        Convolutions and linear layers can be split at single-channel
        granularity; attention layers can only be split at whole-head
        granularity (``head_dim`` channels per head).
        """
        return 1


@dataclass(frozen=True)
class Conv2dLayer(Layer):
    """2-D convolution (optionally grouped) with fused norm/activation.

    ``width`` is the number of output channels; ``in_width`` the number of
    input channels.  ``out_spatial`` is the spatial size of the produced
    feature map, which already accounts for stride and any pooling folded
    into this layer by the model builder.
    """

    kernel_size: int = 3
    stride: int = 1
    in_spatial: Tuple[int, int] = (32, 32)
    out_spatial: Tuple[int, int] = (32, 32)
    groups: int = 1
    _array_formulas = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (1 <= self.kernel_size < math.inf and 1 <= self.stride < math.inf):
            raise ConfigurationError(
                f"layer {self.name!r}: kernel_size and stride must be finite numbers >= 1, "
                f"got {self.kernel_size} and {self.stride}"
            )
        if not 1 <= self.groups < math.inf:
            raise ConfigurationError(
                f"layer {self.name!r}: groups must be a finite number >= 1, got {self.groups}"
            )
        for dims, label in ((self.in_spatial, "in_spatial"), (self.out_spatial, "out_spatial")):
            if len(dims) != 2 or not all(1 <= dim < math.inf for dim in dims):
                raise ConfigurationError(
                    f"layer {self.name!r}: {label} must be a pair of positive ints, got {dims!r}"
                )

    def _flops(self, in_u: int, out_u: int) -> float:
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

    def _params(self, in_u: int, out_u: int) -> float:
        weights = self.kernel_size * self.kernel_size * (in_u / self.groups) * out_u
        bias_and_norm = 3 * out_u  # bias + fused batch-norm scale/shift
        return weights + bias_and_norm

    def _output_elements(self, out_u: int) -> int:
        height, width = self.out_spatial
        return _count(out_u * height * width)

    def _input_elements(self, in_u: int) -> int:
        height, width = self.in_spatial
        return _count(in_u * height * width)


@dataclass(frozen=True)
class LinearLayer(Layer):
    """Fully-connected layer applied to ``tokens`` positions.

    ``width`` is the number of output features, ``in_width`` the number of
    input features.  With ``tokens == 1`` this models a classifier head; with
    ``tokens > 1`` it models a token-wise projection.
    """

    tokens: int = 1
    _array_formulas = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.tokens < math.inf:
            raise ConfigurationError(
                f"layer {self.name!r}: tokens must be a finite number >= 1, got {self.tokens}"
            )

    def _flops(self, in_u: int, out_u: int) -> float:
        return 2.0 * self.tokens * in_u * out_u * self.fused_overhead

    def _params(self, in_u: int, out_u: int) -> float:
        return in_u * out_u + out_u

    def _output_elements(self, out_u: int) -> int:
        return _count(self.tokens * out_u)

    def _input_elements(self, in_u: int) -> int:
        return _count(self.tokens * in_u)


@dataclass(frozen=True)
class AttentionLayer(Layer):
    """Multi-head self-attention over ``tokens`` positions.

    ``width`` is the number of *output embedding channels* so the layer chains
    naturally with its neighbours; the partitionable granularity is a whole
    attention head (``head_dim = width // num_heads`` channels), the dimension
    exploited by MIA-Former and by the paper for ViT architectures.
    ``in_width`` is the number of embedding channels available at the input.
    """

    tokens: int = 64
    num_heads: int = 6
    _array_formulas = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (1 <= self.tokens < math.inf and 1 <= self.num_heads < math.inf):
            raise ConfigurationError(
                f"layer {self.name!r}: tokens and num_heads must be finite numbers >= 1, "
                f"got {self.tokens} and {self.num_heads}"
            )
        if self.width % self.num_heads != 0:
            raise ConfigurationError(
                f"layer {self.name!r}: width ({self.width}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )

    @property
    def head_dim(self) -> int:
        """Embedding channels contributed by a single attention head."""
        return self.width // self.num_heads

    @property
    def partition_granularity(self) -> int:
        return self.head_dim

    def _flops(self, in_u: int, out_u: int) -> float:
        qkv = 3 * 2.0 * self.tokens * in_u * out_u
        attention = 2 * 2.0 * self.tokens * self.tokens * out_u
        projection = 2.0 * self.tokens * out_u * out_u
        return (qkv + attention + projection) * self.fused_overhead

    def _params(self, in_u: int, out_u: int) -> float:
        qkv = 3 * in_u * out_u + 3 * out_u
        projection = out_u * out_u + out_u
        return qkv + projection

    def _output_elements(self, out_u: int) -> int:
        return _count(self.tokens * out_u)

    def _input_elements(self, in_u: int) -> int:
        return _count(self.tokens * in_u)


@dataclass(frozen=True)
class FeedForwardLayer(Layer):
    """Transformer feed-forward block (two linear projections with expansion).

    ``width`` is the number of *output* embedding channels; the hidden layer
    is scaled proportionally through ``expansion`` so that partitioning along
    the output width also shrinks the hidden projection, as in S2DNAS-style
    width partitioning.
    """

    tokens: int = 64
    expansion: float = 4.0
    _array_formulas = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.expansion < math.inf:
            raise ConfigurationError(
                f"layer {self.name!r}: expansion must be a finite number > 0, got {self.expansion}"
            )

    def hidden_units(self, out_units: int | None = None) -> int:
        """Hidden width used for a slice producing ``out_units`` channels.

        The formulas read the hidden width through this method, so a subclass
        may override it.
        """
        _, out_u = self.resolve_units(None, out_units)
        return max(1, int(round(out_u * self.expansion)))

    def _hidden(self, out_u):
        """:meth:`hidden_units` of resolved ``out_u``; on an array, rounded
        half to even, as ``round`` rounds."""
        if isinstance(out_u, np.ndarray):
            return np.maximum(np.rint(out_u * self.expansion).astype(np.int64), 1)
        return self.hidden_units(out_u)

    def _flops(self, in_u: int, out_u: int) -> float:
        hidden = self._hidden(out_u)
        first = 2.0 * self.tokens * in_u * hidden
        second = 2.0 * self.tokens * hidden * out_u
        return (first + second) * self.fused_overhead

    def _params(self, in_u: int, out_u: int) -> float:
        hidden = self._hidden(out_u)
        return in_u * hidden + hidden + hidden * out_u + out_u

    def _output_elements(self, out_u: int) -> int:
        return _count(self.tokens * out_u)

    def _input_elements(self, in_u: int) -> int:
        return _count(self.tokens * in_u)
