"""Exit statistics under the paper's ideal input-mapping assumption.

The paper assumes the number of stages needed to process an input sample is
known a priori (Sect. III-B), i.e. a sample that stage ``i`` can classify
correctly -- but no earlier stage can -- terminates exactly at stage ``i``.
Given per-stage accuracies this yields the ``N_i`` counts of Eq. 16:

    N_i = number of validation samples correctly classified at S_i,
          given that every prior stage misclassifies them.

Under the nested-correctness view (a sample classifiable by a weak exit is
also classifiable by every stronger one), ``N_i`` is simply the accuracy
increment between consecutive stages times the validation-set size, while the
samples no stage classifies correctly traverse the whole cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..utils import check_stage_accuracies

__all__ = ["ExitStatistics", "compute_exit_statistics"]

#: CIFAR-100 test-set size, the validation set used by the paper.
DEFAULT_VALIDATION_SAMPLES = 10_000


@dataclass(frozen=True)
class ExitStatistics:
    """Per-stage exit behaviour of a dynamic multi-exit network."""

    stage_accuracies: Tuple[float, ...]
    correct_counts: Tuple[int, ...]
    exit_fractions: Tuple[float, ...]
    validation_samples: int

    def __post_init__(self) -> None:
        if not self.stage_accuracies:
            raise ConfigurationError("ExitStatistics needs at least one stage")
        if not (
            len(self.stage_accuracies)
            == len(self.correct_counts)
            == len(self.exit_fractions)
        ):
            raise ConfigurationError("per-stage tuples must have identical length")
        total_fraction = float(sum(self.exit_fractions))
        if abs(total_fraction - 1.0) > 1e-6:
            raise ConfigurationError(
                f"exit fractions must sum to 1, got {total_fraction:.6f}"
            )

    @property
    def num_stages(self) -> int:
        """Number of exits / stages."""
        return len(self.stage_accuracies)

    @property
    def accuracy(self) -> float:
        """Top-1 accuracy of the dynamic cascade (its final stage)."""
        return self.stage_accuracies[-1]

    @property
    def early_exit_fraction(self) -> float:
        """Fraction of samples that terminate before the last stage."""
        return float(sum(self.exit_fractions[:-1]))

    def expected_stages(self) -> float:
        """Mean number of stages instantiated per sample."""
        return float(
            sum((index + 1) * fraction for index, fraction in enumerate(self.exit_fractions))
        )


def _numpy_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))`` of a non-empty float sequence, bit for bit.

    numpy adds fewer than eight terms left to right, so short sequences are
    summed by a plain loop (not the built-in ``sum``, which compensates
    rounding on newer Pythons); longer ones keep numpy's pairwise reduction.
    """
    if len(values) >= 8:
        return float(np.sum(values))
    total = values[0]
    for value in values[1:]:
        total += value
    return float(total)


def compute_exit_statistics(
    stage_accuracies: Sequence[float],
    validation_samples: int = DEFAULT_VALIDATION_SAMPLES,
) -> ExitStatistics:
    """Derive ``N_i`` counts and termination fractions from stage accuracies.

    Parameters
    ----------
    stage_accuracies:
        Non-decreasing top-1 accuracies of the stages' exits (fractions).
    validation_samples:
        Size of the validation set the counts refer to (10 000 for the
        CIFAR-100 test set used in the paper).
    """
    accuracies = check_stage_accuracies(stage_accuracies)
    if validation_samples < 1:
        raise ConfigurationError("validation_samples must be >= 1")

    # Plain floats and the same IEEE operations numpy would run on these
    # few-element vectors (Python's round is half-to-even like np.round).
    increments = [b - a for a, b in zip([0.0] + accuracies, accuracies)]
    correct_counts = [round(increment * validation_samples) for increment in increments]
    # Samples that no stage classifies correctly still traverse all stages
    # and therefore terminate at the last one.
    exit_fractions = list(increments)
    exit_fractions[-1] += 1.0 - accuracies[-1]
    # Normalise away rounding noise.
    total = _numpy_sum(exit_fractions)
    return ExitStatistics(
        stage_accuracies=tuple(accuracies),
        correct_counts=tuple(correct_counts),
        exit_fractions=tuple(value / total for value in exit_fractions),
        validation_samples=int(validation_samples),
    )
