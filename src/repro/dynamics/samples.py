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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..utils import _left_sum, check_stage_accuracies

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
        total_fraction = float(_left_sum(self.exit_fractions))
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
        return float(_left_sum(self.exit_fractions[:-1]))

    def expected_stages(self) -> float:
        """Mean number of stages instantiated per sample."""
        return float(
            _left_sum(
                (index + 1) * fraction for index, fraction in enumerate(self.exit_fractions)
            )
        )


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
    return _exit_statistics([stage_accuracies], validation_samples)[0][0]


def _exit_statistics(
    rows: Sequence[Sequence[float]],
    validation_samples: int,
    num_stages: Optional[int] = None,
) -> Tuple[List[ExitStatistics], np.ndarray]:
    """:func:`compute_exit_statistics` of every row of stage accuracies, at once.

    Returns the statistics and their exit fractions as a ``(rows, stages)``
    array.  With ``num_stages``, every row must hold that many accuracies.
    The rows are computed together, each element with the float operations
    of one row's: increments, counts rounded half to even (``np.rint``, as
    ``round``), and fractions normalised by what ``np.sum`` of a row gives,
    a left-to-right sum below eight stages (``cumsum``) and numpy's
    pairwise one from eight (a row sum along the contiguous axis).
    """
    accuracies = _checked_accuracies(rows, validation_samples, num_stages)
    stages = accuracies.shape[1]
    increments = np.diff(accuracies, axis=1, prepend=0.0)
    counts = np.rint(increments * validation_samples).tolist()
    # Samples that no stage classifies correctly still traverse all stages
    # and therefore terminate at the last one.
    fractions = increments.copy()
    fractions[:, -1] += 1.0 - accuracies[:, -1]
    # Normalise away rounding noise.
    if stages < 8:
        total = np.cumsum(fractions, axis=1)[:, -1]
    else:
        total = fractions.sum(axis=1)
    fractions /= total[:, None]
    samples = int(validation_samples)
    statistics = [
        ExitStatistics(tuple(row), tuple(map(int, row_counts)), tuple(row_fractions), samples)
        for row, row_counts, row_fractions in zip(
            accuracies.tolist(), counts, fractions.tolist()
        )
    ]
    return statistics, fractions


def _checked_accuracies(
    rows: Sequence[Sequence[float]], validation_samples: int, num_stages: Optional[int]
) -> np.ndarray:
    """The rows as a float array, ``(rows, stages)``, once each would pass its checks.

    A row is checked as :func:`compute_exit_statistics` checks its
    accuracies (:func:`~repro.utils.check_stage_accuracies`), then the
    validation-set size, then its length against ``num_stages``.  Rows of
    floats that pass every check are checked all at once; otherwise the
    rows are checked one by one, in order, and the first offending one
    raises its error.
    """
    try:
        accuracies = np.array(rows)
    except (TypeError, ValueError):  # ragged or foreign rows: checked one by one
        accuracies = None
    if (
        accuracies is not None
        and accuracies.dtype == np.float64
        and accuracies.ndim == 2
        and accuracies.shape[1] > 0
        and num_stages in (None, accuracies.shape[1])
        and (np.isfinite(accuracies) & (accuracies >= 0) & (accuracies <= 1)).all()
        and not (accuracies[:, 1:] < accuracies[:, :-1] - 1e-9).any()
    ):
        _check_validation_samples(validation_samples)
        return accuracies
    checked = []
    for row in rows:
        values = check_stage_accuracies(row)
        _check_validation_samples(validation_samples)
        if num_stages is not None and len(values) != num_stages:
            raise ConfigurationError(
                f"expected {num_stages} stage accuracies, one per stage, got {len(values)}"
            )
        checked.append(values)
    return np.array(checked, dtype=float)


def _check_validation_samples(validation_samples: int) -> None:
    if validation_samples < 1:
        raise ConfigurationError("validation_samples must be >= 1")
