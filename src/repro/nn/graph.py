"""Sequential network graph.

The paper models a network as a chain of layers (Eq. 1),

    NN = L_n o L_{n-1} o ... o L_1,

each of which carries a partitionable width (Eq. 2).  :class:`NetworkGraph`
captures that chain together with dataset-level metadata (input shape, number
of classes, and the baseline accuracy ``Acc_base`` that enters the search
objective of Eq. 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from ..errors import ConfigurationError
from ..utils import _left_sum, check_fraction
from .layers import Layer

__all__ = ["NetworkGraph"]


@dataclass(frozen=True)
class NetworkGraph:
    """An immutable chain of symbolic layers.

    Parameters
    ----------
    name:
        Human-readable model identifier (``"visformer"``, ``"vgg19"`` ...).
    layers:
        The partitionable layer chain, ordered from input to output.  Each
        layer's ``in_width`` must equal the preceding layer's ``width``.
    input_shape:
        ``(channels, height, width)`` of the model input.
    num_classes:
        Number of output classes of the classification head.
    base_accuracy:
        Top-1 accuracy of the unmodified pretrained model (``Acc_base`` in
        Eq. 16), expressed as a fraction in ``[0, 1]``.
    family:
        Architecture family tag, ``"vit"`` or ``"cnn"``; used by the accuracy
        model to pick redundancy characteristics.
    """

    name: str
    layers: Tuple[Layer, ...]
    input_shape: Tuple[int, int, int] = (3, 32, 32)
    num_classes: int = 100
    base_accuracy: float = 0.88
    family: str = "cnn"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError(f"network {self.name!r} must contain at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"network {self.name!r} has duplicate layer names")
        for previous, current in zip(self.layers, self.layers[1:]):
            if current.in_width != previous.width:
                raise ConfigurationError(
                    f"network {self.name!r}: layer {current.name!r} expects in_width="
                    f"{current.in_width} but {previous.name!r} produces width={previous.width}"
                )
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ConfigurationError(
                f"network {self.name!r}: input_shape must be (C, H, W) of positive ints"
            )
        if self.num_classes < 2:
            raise ConfigurationError(f"network {self.name!r}: num_classes must be >= 2")
        check_fraction(self.base_accuracy, "base_accuracy", allow_zero=False)
        if self.family not in ("vit", "cnn"):
            raise ConfigurationError(
                f"network {self.name!r}: family must be 'vit' or 'cnn', got {self.family!r}"
            )

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]

    # -- lookups ---------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of partitionable layers ``n`` in the chain."""
        return len(self.layers)

    @property
    def widths(self) -> Tuple[int, ...]:
        """Width of every layer, ordered from input to output."""
        return tuple(layer.width for layer in self.layers)

    @property
    def layer_names(self) -> Tuple[str, ...]:
        """Names of every layer, ordered from input to output."""
        return tuple(layer.name for layer in self.layers)

    def layer_index(self, name: str) -> int:
        """Return the position of the layer called ``name``."""
        for index, layer in enumerate(self.layers):
            if layer.name == name:
                return index
        raise KeyError(f"network {self.name!r} has no layer named {name!r}")

    # -- analytical totals -----------------------------------------------------
    def total_flops(self) -> float:
        """FLOPs of one full (unpartitioned) forward pass."""
        return float(_left_sum(layer.flops() for layer in self.layers))

    def total_params(self) -> float:
        """Parameter count of the unpartitioned model."""
        return float(_left_sum(layer.params() for layer in self.layers))

    def total_feature_bytes(self) -> int:
        """Total bytes of all intermediate feature maps for one sample."""
        return int(sum(layer.output_bytes() for layer in self.layers))

    def summary(self) -> str:
        """Multi-line human-readable summary of the layer chain."""
        lines = [
            f"{self.name} ({self.family}, {self.num_classes} classes, "
            f"input {self.input_shape}, Acc_base={self.base_accuracy:.2%})"
        ]
        header = f"{'#':>3} {'name':<22} {'kind':<12} {'in':>6} {'width':>6} {'GFLOPs':>9} {'MParams':>9}"
        lines.append(header)
        for index, layer in enumerate(self.layers):
            lines.append(
                f"{index:>3} {layer.name:<22} {layer.kind:<12} {layer.in_width:>6} "
                f"{layer.width:>6} {layer.flops() / 1e9:>9.3f} {layer.params() / 1e6:>9.3f}"
            )
        lines.append(
            f"total: {self.total_flops() / 1e9:.3f} GFLOPs, "
            f"{self.total_params() / 1e6:.3f} M params, "
            f"{self.total_feature_bytes() / 1e6:.3f} MB feature maps"
        )
        return "\n".join(lines)
