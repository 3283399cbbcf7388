"""Tests of the validation guards."""

import numpy as np
import pytest

from repro.algorithms.incremental import IncrementalScheduler
from repro.core.engine import EngineSpec
from repro.core.errors import InstanceValidationError
from repro.core.scoreplane import ScorePlane
from repro.interactive.gaps import build_gap_report
from repro.stream import StreamDriver
from repro.utils.validation import (
    check_budget,
    check_fraction,
    check_index,
    check_non_negative,
    check_positive,
    check_probability_matrix,
)

from tests.conftest import make_random_instance
from tests.resilience.conftest import golden_instance, golden_trace


class TestScalarGuards:
    def test_check_positive_passes_and_returns(self):
        assert check_positive(2.5, "x") == 2.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive(0.0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative(-0.1, "x")

    def test_check_fraction(self):
        assert check_fraction(1.0, "p") == 1.0
        assert check_fraction(0.0, "p") == 0.0
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_fraction(1.01, "p")


class TestBudgetGuard:
    def test_integers_returned_as_int(self):
        for value in (0, 3, np.int64(3), np.int32(3), np.uint8(3)):
            budget = check_budget(value, "k")
            assert budget == value and type(budget) is int

    @pytest.mark.parametrize(
        "value", [2.5, 3.0, True, np.True_, "3", None, np.float64(3)],
        ids=repr,
    )
    def test_non_integers_rejected_naming_the_field(self, value):
        with pytest.raises(TypeError, match="k must be an integer"):
            check_budget(value, "k")

    def test_negative_and_non_positive(self):
        with pytest.raises(ValueError, match="k must be non-negative"):
            check_budget(-1, "k")
        assert check_budget(1, "new_k", positive=True) == 1
        with pytest.raises(ValueError, match="new_k must be positive"):
            check_budget(0, "new_k", positive=True)


class TestBudgetCallers:
    """The budgets the stream, the incremental scheduler and gap reports
    take pass through ``check_budget`` too: non-integers raise a
    TypeError naming the field, numpy integers arrive as ``int``."""

    BAD = [2.5, True, "3"]

    @pytest.fixture
    def instance(self):
        return make_random_instance(seed=42)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_incremental_scheduler(self, instance, bad):
        with pytest.raises(TypeError, match="k must be an integer"):
            IncrementalScheduler(instance, bad)
        scheduler = IncrementalScheduler(instance, np.int64(3))
        assert scheduler.k == 3 and type(scheduler.k) is int
        assert scheduler.schedule == IncrementalScheduler(instance, 3).schedule

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_raise_budget(self, instance, bad):
        scheduler = IncrementalScheduler(instance, 2)
        with pytest.raises(TypeError, match="new_k must be an integer"):
            scheduler.raise_budget(bad)
        assert scheduler.k == 2 and len(scheduler.schedule) == 2
        scheduler.raise_budget(np.int64(3))
        assert scheduler.k == 3 and type(scheduler.k) is int
        with pytest.raises(ValueError, match="budget can only grow"):
            scheduler.raise_budget(2)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_stream_driver(self, bad):
        instance, trace = golden_instance("dense_b"), golden_trace("dense_b")
        with pytest.raises(TypeError, match="k must be an integer"):
            StreamDriver(instance, k=bad)
        numpy_k = StreamDriver(instance, k=np.int64(3)).run(trace)
        plain_k = StreamDriver(instance, k=3).run(trace)
        assert numpy_k.utilities == plain_k.utilities
        assert numpy_k.final_schedule == plain_k.final_schedule

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_gap_report(self, instance, bad):
        plane = ScorePlane(EngineSpec().build(instance))
        with pytest.raises(TypeError, match="k must be an integer"):
            build_gap_report(instance, {0: 0}, bad, plane)
        report = build_gap_report(instance, {0: 0}, np.int64(3), plane)
        assert report.k == 3 and type(report.k) is int


class TestIndexGuard:
    def test_valid_index_returned_as_int(self):
        value = check_index(np.int64(3), 5, "i")
        assert value == 3
        assert isinstance(value, int)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError, match=r"\[0, 5\)"):
            check_index(5, 5, "i")

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError, match="integer index"):
            check_index(2.5, 5, "i")


class TestMatrixGuard:
    def test_valid_matrix_passes(self):
        matrix = check_probability_matrix(np.array([[0.0, 1.0]]), "m")
        assert matrix.dtype == float

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="m entries"):
            check_probability_matrix(np.array([[2.0]]), "m")

    def test_nan_rejected_before_range(self):
        with pytest.raises(ValueError, match="NaN"):
            check_probability_matrix(np.array([[np.nan]]), "m")

    @pytest.mark.parametrize("value", [np.nan, 2.0, -0.5])
    def test_failures_are_typed(self, value):
        with pytest.raises(InstanceValidationError, match="m "):
            check_probability_matrix(np.array([[value]]), "m")
        assert issubclass(InstanceValidationError, ValueError)

    def test_empty_matrix_passes(self):
        check_probability_matrix(np.zeros((0, 3)), "m")

    def test_lists_coerced(self):
        matrix = check_probability_matrix([[0.5, 0.5]], "m")
        assert isinstance(matrix, np.ndarray)
