"""Channel importance ranking and reordering (Sect. V-D of the paper).

Before a candidate configuration is evaluated, the paper reorders the width
channels of every layer by importance so that the most important channels are
assigned to the earliest inference stages.  The paper estimates importance
with the Taylor-expansion criterion of Molchanov et al. (CVPR 2019) on the
trained weights; since this reproduction does not train networks, importance
scores are *synthesised* from a heavy-tailed (log-normal) distribution, which
reproduces the property the method exploits -- a small fraction of channels
carries most of the accuracy-relevant signal.  Scores are deterministic per
``(network, layer, seed)`` so repeated runs and tests agree.

The quantity consumed downstream is the *cumulative importance coverage*:
given the top ``k`` channels of a layer, which fraction of total importance
mass they retain.  The accuracy model (:mod:`repro.dynamics.accuracy`) maps
coverage to stage accuracy, and the search benefits from assigning important
channels to early stages exactly as described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..utils import as_rng, check_fraction
from .graph import NetworkGraph

__all__ = ["ChannelRanking", "rank_channels"]

#: Spread of the synthetic log-normal importance distribution.  A sigma of
#: 1.0 makes the top ~25% of channels carry roughly 60-70% of the mass, in
#: line with published Taylor-importance histograms for CNNs and ViTs.
_DEFAULT_SIGMA = 1.0


def _array_content(values: np.ndarray) -> tuple:
    return values.dtype.str, values.shape, values.tobytes()


@dataclass(frozen=True, eq=False)
class ChannelRanking:
    """Per-layer channel importance scores and the derived ordering.

    Attributes
    ----------
    network_name:
        Name of the network the ranking was computed for.
    scores:
        Mapping from layer name to the importance score of every channel
        (original channel order, normalised to sum to one per layer).
    order:
        Mapping from layer name to channel indices sorted by decreasing
        importance -- the reordering applied before partitioning.

    Both mappings hold read-only copies of the arrays given, and a ranking
    compares and hashes by content: its network name, its layer names in
    order, and each layer's scores and order by dtype, shape and bytes.
    """

    network_name: str
    scores: Mapping[str, np.ndarray]
    order: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if set(self.scores) != set(self.order):
            raise ConfigurationError("scores and order must cover the same layers")
        for layer_name, layer_scores in self.scores.items():
            if layer_scores.ndim != 1 or layer_scores.size == 0:
                raise ConfigurationError(
                    f"scores for layer {layer_name!r} must be a non-empty 1-D array"
                )
            if abs(float(layer_scores.sum()) - 1.0) > 1e-6:
                raise ConfigurationError(
                    f"scores for layer {layer_name!r} must sum to 1.0"
                )
        # Read-only copies: no later write, to the caller's arrays or to
        # these, may change a ranking that was compared or hashed.
        for name in ("scores", "order"):
            arrays = {key: np.array(values) for key, values in getattr(self, name).items()}
            object.__setattr__(self, name, arrays)
        self.__setstate__({})

    def __setstate__(self, state: dict) -> None:
        # Also run by unpickling and deep copies, which rebuild the arrays
        # writeable.
        self.__dict__.update(state)
        for values in (*self.scores.values(), *self.order.values()):
            values.flags.writeable = False

    def _content(self) -> tuple:
        return self.network_name, tuple(
            (name, _array_content(self.scores[name]), _array_content(self.order[name]))
            for name in self.scores
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    def layer_names(self) -> Tuple[str, ...]:
        """Names of all ranked layers."""
        return tuple(self.scores)

    def coverage(self, layer_name: str, fraction: float) -> float:
        """Importance mass retained by the top ``fraction`` of channels.

        This is the cumulative importance curve evaluated at ``fraction``,
        assuming channels are taken in decreasing order of importance (i.e.
        after the reordering of Sect. V-D).
        """
        check_fraction(fraction, "fraction")
        layer_scores = self._layer_scores(layer_name)
        if fraction == 0.0:
            return 0.0
        sorted_scores = layer_scores[self.order[layer_name]]
        count = max(1, int(round(fraction * sorted_scores.size)))
        return float(sorted_scores[:count].sum())

    def coverage_unordered(self, layer_name: str, fraction: float) -> float:
        """Importance mass retained without reordering (ablation baseline).

        The first ``fraction`` of channels in their *original* order is used,
        which models switching channel reordering off.
        """
        check_fraction(fraction, "fraction")
        layer_scores = self._layer_scores(layer_name)
        if fraction == 0.0:
            return 0.0
        count = max(1, int(round(fraction * layer_scores.size)))
        return float(layer_scores[:count].sum())

    def cumulative_curve(self, layer_name: str) -> np.ndarray:
        """Full cumulative importance curve (length = layer width)."""
        layer_scores = self._layer_scores(layer_name)
        return np.cumsum(layer_scores[self.order[layer_name]])

    def _layer_scores(self, layer_name: str) -> np.ndarray:
        try:
            return np.asarray(self.scores[layer_name], dtype=float)
        except KeyError:
            raise KeyError(
                f"ranking for {self.network_name!r} has no layer named {layer_name!r}"
            ) from None


def rank_channels(
    network: NetworkGraph,
    seed: int | np.random.Generator | None = 0,
    sigma: float = _DEFAULT_SIGMA,
) -> ChannelRanking:
    """Synthesise Taylor-style channel importance scores for ``network``.

    Parameters
    ----------
    network:
        The network whose layers are to be ranked.
    seed:
        Seed (or generator) controlling the synthetic scores.  The layer name
        is hashed into the stream so that two layers of equal width still get
        distinct score vectors.
    sigma:
        Log-normal spread; larger values concentrate importance in fewer
        channels (more redundancy to exploit).
    """
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    rng = as_rng(seed)
    scores: Dict[str, np.ndarray] = {}
    order: Dict[str, np.ndarray] = {}
    for layer in network.layers:
        raw = rng.lognormal(mean=0.0, sigma=sigma, size=layer.width)
        normalised = raw / raw.sum()
        scores[layer.name] = normalised
        order[layer.name] = np.argsort(-normalised, kind="stable")
    return ChannelRanking(network_name=network.name, scores=scores, order=order)
