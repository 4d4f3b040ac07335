"""Small shared utilities: validation helpers, deterministic RNG management.

The whole library is deterministic given a seed.  Every stochastic component
(channel-importance synthesis, measurement-noise injection, the evolutionary
search) accepts either an integer seed or a :class:`numpy.random.Generator`
and routes it through :func:`as_rng` so composition stays reproducible.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "as_rng",
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_stage_accuracies",
    "check_probability_vector",
    "pairwise",
    "geometric_mean",
    "spearman_rank_correlation",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a non-deterministic generator; an integer yields a
    deterministic one; an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: The Python ints numpy converts to an integer array scalar (int64 or uint64).
_NUMPY_INT_MIN = -(2**63)
_NUMPY_INT_MAX = 2**64 - 1


def _is_finite(value) -> bool:
    """``np.isfinite(value)`` for one scalar, without numpy's overhead on floats and ints.

    Python floats (and ``np.float64``, a float subclass) take ``math.isfinite``,
    which answers the same.  An exact ``int`` (not a ``bool``) that numpy would
    hold as int64 or uint64 is finite, as numpy answers; anything else,
    including ints outside that range, keeps numpy's answer and errors.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    if type(value) is int and _NUMPY_INT_MIN <= value <= _NUMPY_INT_MAX:
        return True
    return np.isfinite(value)


def _left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as Python 3.9-3.11 adds floats: left to right from 0.

    Python 3.12 made the built-in ``sum`` of floats compensated, so the same
    floats would total differently from one interpreter to the next; every
    float total in the library adds through this loop instead.  A row's
    ``cumsum`` plus ``0.0`` is the same sum.
    """
    total = 0
    for value in values:
        total += value
    return total


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not _is_finite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is finite and >= 0 and return it."""
    if not _is_finite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
    return float(value)


def check_fraction(value: float, name: str, *, allow_zero: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` (or ``(0, 1]``)."""
    lower_ok = value >= 0 if allow_zero else value > 0
    if not _is_finite(value) or not lower_ok or value > 1:
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ConfigurationError(f"{name} must lie in {bound}, got {value!r}")
    return float(value)


def check_stage_accuracies(values: Iterable[float]) -> list[float]:
    """Validate a per-stage exit accuracy vector and return it as floats.

    Non-empty, every value a fraction, non-decreasing up to a 1e-9 dip.
    """
    accuracies = [check_fraction(value, "stage accuracy") for value in values]
    if not accuracies:
        raise ConfigurationError("stage_accuracies must be non-empty")
    if any(b < a - 1e-9 for a, b in zip(accuracies, accuracies[1:])):
        raise ConfigurationError("stage accuracies must be non-decreasing")
    return accuracies


def check_probability_vector(values: Sequence[float], name: str, *, atol: float = 1e-6) -> np.ndarray:
    """Validate that ``values`` are non-negative and sum to one."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(f"{name} must be a non-empty 1-D sequence")
    if np.any(arr < -atol):
        raise ConfigurationError(f"{name} must be non-negative, got {values!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ConfigurationError(f"{name} must sum to 1.0 (got {total:.6f})")
    return arr


def pairwise(items: Iterable):
    """Yield consecutive pairs ``(items[k], items[k+1])``."""
    iterator = iter(items)
    try:
        previous = next(iterator)
    except StopIteration:
        return
    for current in iterator:
        yield previous, current
        previous = current


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("geometric_mean requires at least one value")
    if np.any(arr <= 0):
        raise ConfigurationError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Average ranks (ties share the mean rank), as Spearman requires."""
    array = np.asarray(values, dtype=float)
    order = np.argsort(array, kind="stable")
    ranks = np.empty(array.size, dtype=float)
    position = 0
    while position < array.size:
        end = position
        while end + 1 < array.size and array[order[end + 1]] == array[order[position]]:
            end += 1
        ranks[order[position : end + 1]] = (position + end) / 2.0
        position = end + 1
    return ranks


def spearman_rank_correlation(first: Sequence[float], second: Sequence[float]) -> float:
    """Spearman rank correlation with average-rank tie handling.

    The proxy-vs-measured differential layer (``bench_policy_campaigns.py``
    and the hypothesis tests) pins the M/D/1 proxy's rank agreement with
    simulated waits using this exact estimator.  Degenerate inputs answer
    deterministically: fewer than two points correlate perfectly (``1.0``,
    or ``0.0`` for empty input) and an all-ties ranking correlates ``0.0``.
    """
    if len(first) < 2:
        return 1.0 if first else 0.0
    ranks_a = _average_ranks(first)
    ranks_b = _average_ranks(second)
    std_a = float(ranks_a.std())
    std_b = float(ranks_b.std())
    if std_a == 0.0 or std_b == 0.0:
        return 0.0
    covariance = float(((ranks_a - ranks_a.mean()) * (ranks_b - ranks_b.mean())).mean())
    return covariance / (std_a * std_b)
