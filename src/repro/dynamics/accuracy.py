"""Analytical accuracy model for width-partitioned multi-exit networks.

The paper trains each candidate multi-exit model (or fine-tunes exits) and
measures top-1 accuracy on CIFAR-100.  Without training in the loop, this
reproduction uses a calibrated analytical substitute built on two published
observations the paper itself relies on:

1. **Channel redundancy** -- accuracy degrades slowly while the most
   important channels are retained and steeply once they are not (the basis
   of channel pruning).  We model the relative accuracy of a stage as
   ``1 - (1 - coverage) ** redundancy`` where ``coverage`` is the
   channel-importance mass available to the stage (own channels plus reused
   features, averaged over layers) and ``redundancy`` controls how flat the
   curve is near full coverage.  Larger exponents mean a more redundant
   architecture.
2. **Exit-head gains on over-parameterised CNNs** -- VGG19's dynamic variants
   in Table II *exceed* the static baseline by ~4 points, a known effect of
   deep supervision on heavily over-parameterised CNNs; the model captures it
   with a family-specific multiplicative bonus that grows with coverage.

Calibration targets (Table II): Visformer baseline 88.09 %, dynamic variants
84-88 % with drops of up to ~6 % under hard 50 % reuse constraints; VGG19
baseline 80.55 % with dynamic variants around 82-85 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import ConfigurationError
from ..nn.graph import NetworkGraph
from ..utils import check_fraction, check_non_negative

__all__ = ["AccuracyModel"]

#: Redundancy exponent per architecture family: larger = more redundant, i.e.
#: the accuracy curve stays flat longer as channels are removed.
_FAMILY_REDUNDANCY = {"vit": 2.0, "cnn": 3.0}

#: Multiplicative accuracy bonus of deep supervision at full coverage.
_FAMILY_EXIT_BONUS = {"vit": 0.00, "cnn": 0.055}

#: Hard ceiling so bonuses can never produce accuracies above this value.
_ACCURACY_CEILING = 0.995


@dataclass(frozen=True)
class AccuracyModel:
    """Maps stage coverage to stage top-1 accuracy.

    :meth:`stage_accuracies_from_coverage` is the one hook through which
    every evaluation asks for a candidate's stage accuracies; a subclass
    overrides it (or the per-stage :meth:`stage_accuracy_from_coverage`).

    Parameters
    ----------
    redundancy:
        Redundancy exponent; ``None`` selects the family default
        (ViT 2.0, CNN 3.0).
    exit_bonus:
        Maximum relative accuracy gain from per-stage exit heads (deep
        supervision); ``None`` selects the family default.
    exit_penalty:
        Relative accuracy cost of classifying from an intermediate exit
        instead of the original head (applies to every stage).
    """

    redundancy: float | None = None
    exit_bonus: float | None = None
    exit_penalty: float = 0.005

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # No evaluation asks a per-network method, so one would be ignored.
        if "stage_accuracies" in vars(cls):
            raise ConfigurationError(
                f"{cls.__name__} defines stage_accuracies, which no evaluation asks; "
                "override stage_accuracies_from_coverage(network, coverages) instead"
            )

    def __post_init__(self) -> None:
        if self.redundancy is not None and self.redundancy <= 0:
            raise ConfigurationError(f"redundancy must be > 0, got {self.redundancy}")
        if self.exit_bonus is not None:
            check_non_negative(self.exit_bonus, "exit_bonus")
        check_fraction(self.exit_penalty, "exit_penalty")

    def _redundancy_for(self, family: str) -> float:
        if self.redundancy is not None:
            return self.redundancy
        return _FAMILY_REDUNDANCY.get(family, 2.5)

    def _bonus_for(self, family: str) -> float:
        if self.exit_bonus is not None:
            return self.exit_bonus
        return _FAMILY_EXIT_BONUS.get(family, 0.0)

    def stage_accuracy_from_coverage(
        self, coverage: float, base_accuracy: float, family: str
    ) -> float:
        """Top-1 accuracy of a stage whose exit sees ``coverage`` importance mass."""
        check_fraction(coverage, "coverage")
        check_fraction(base_accuracy, "base_accuracy", allow_zero=False)
        if coverage == 0.0:
            return 0.0
        redundancy = self._redundancy_for(family)
        relative = 1.0 - (1.0 - coverage) ** redundancy
        bonus = 1.0 + self._bonus_for(family) * coverage
        penalty = 1.0 - self.exit_penalty
        accuracy = base_accuracy * relative * bonus * penalty
        return float(min(_ACCURACY_CEILING, max(0.0, accuracy)))

    def stage_accuracies_from_coverage(
        self, network: NetworkGraph, coverages: Iterable[float]
    ) -> tuple:
        """Top-1 accuracy of every stage's exit of ``network``, in stage order.

        ``coverages`` holds each stage's coverage (see
        :meth:`~repro.nn.multiexit.DynamicNetwork.stage_coverage`).  Stage
        accuracies are non-decreasing in practice because later stages see
        strictly more features (their own plus whatever earlier stages
        forward); the model enforces monotonicity explicitly so that exit
        statistics stay well defined even for adversarial indicator choices.
        An override must return one accuracy per stage.
        """
        base = network.base_accuracy
        family = network.family
        accuracies = []
        best_so_far = 0.0
        for coverage in coverages:
            accuracy = self.stage_accuracy_from_coverage(coverage, base, family)
            best_so_far = max(best_so_far, accuracy)
            accuracies.append(best_so_far)
        return tuple(accuracies)
