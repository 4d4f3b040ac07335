"""Unit tests for the shared utilities and the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import errors
from repro.utils import (
    as_rng,
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability_vector,
    geometric_mean,
    pairwise,
    spearman_rank_correlation,
)


class TestValidationHelpers:
    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        for bad in (0, -1, float("nan"), float("inf")):
            with pytest.raises(errors.ConfigurationError):
                check_positive(bad, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(errors.ConfigurationError):
            check_non_negative(-0.1, "x")

    def test_check_fraction(self):
        assert check_fraction(0.5, "x") == 0.5
        assert check_fraction(0.0, "x") == 0.0
        with pytest.raises(errors.ConfigurationError):
            check_fraction(0.0, "x", allow_zero=False)
        with pytest.raises(errors.ConfigurationError):
            check_fraction(1.1, "x")

    def test_check_probability_vector(self):
        result = check_probability_vector([0.25, 0.25, 0.5], "p")
        assert result.sum() == pytest.approx(1.0)
        with pytest.raises(errors.ConfigurationError):
            check_probability_vector([0.3, 0.3], "p")
        with pytest.raises(errors.ConfigurationError):
            check_probability_vector([], "p")
        with pytest.raises(errors.ConfigurationError):
            check_probability_vector([-0.5, 1.5], "p")


class TestRngAndIterables:
    def test_as_rng_accepts_seed_generator_and_none(self):
        assert isinstance(as_rng(3), np.random.Generator)
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator
        assert isinstance(as_rng(None), np.random.Generator)

    def test_as_rng_deterministic_per_seed(self):
        assert as_rng(7).integers(0, 1000) == as_rng(7).integers(0, 1000)

    def test_pairwise(self):
        assert list(pairwise([1, 2, 3, 4])) == [(1, 2), (2, 3), (3, 4)]
        assert list(pairwise([1])) == []
        assert list(pairwise([])) == []

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5.0]) == pytest.approx(5.0)
        with pytest.raises(errors.ConfigurationError):
            geometric_mean([])
        with pytest.raises(errors.ConfigurationError):
            geometric_mean([1.0, 0.0])


class TestSpearman:
    def test_perfect_and_reversed(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        value = spearman_rank_correlation([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert -1.0 < value < 1.0

    def test_degenerate_inputs(self):
        assert spearman_rank_correlation([], []) == 0.0
        assert spearman_rank_correlation([1.0], [2.0]) == 1.0
        assert spearman_rank_correlation([1.0, 1.0], [1.0, 2.0]) == 0.0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        specific = (
            errors.ConfigurationError,
            errors.PartitionError,
            errors.MappingError,
            errors.PlatformError,
            errors.ConstraintViolation,
            errors.SearchError,
            errors.PredictionError,
        )
        for error_type in specific:
            assert issubclass(error_type, errors.ReproError)

    def test_partition_and_mapping_errors_are_configuration_errors(self):
        assert issubclass(errors.PartitionError, errors.ConfigurationError)
        assert issubclass(errors.MappingError, errors.ConfigurationError)
        assert issubclass(errors.PlatformError, errors.ConfigurationError)

    def test_catching_base_class_catches_specific(self):
        with pytest.raises(errors.ReproError):
            raise errors.SearchError("boom")


class TestPackageSurface:
    def test_top_level_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
        assert repro.__version__ == "1.5.0"
