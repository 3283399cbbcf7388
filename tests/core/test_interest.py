"""Unit tests for the interest matrix (the paper's ``mu``)."""

import numpy as np
import pytest

from repro.core.errors import InstanceValidationError
from repro.core.interest import InterestMatrix

from tests.conftest import INTEREST_INPUTS, messy_coo


class TestConstruction:
    def test_from_arrays_shapes(self):
        matrix = InterestMatrix.from_arrays(np.zeros((3, 2)), np.zeros((3, 4)))
        assert matrix.n_users == 3
        assert matrix.n_events == 2
        assert matrix.n_competing == 4

    def test_from_arrays_without_competing(self):
        matrix = InterestMatrix.from_arrays(np.ones((2, 2)) * 0.5)
        assert matrix.n_competing == 0

    def test_values_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            InterestMatrix.from_arrays(np.array([[1.5]]))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            InterestMatrix.from_arrays(np.array([[-0.1]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            InterestMatrix.from_arrays(np.array([[np.nan]]))

    def test_mismatched_user_axes_rejected(self):
        with pytest.raises(InstanceValidationError, match="user axis"):
            InterestMatrix.from_arrays(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_one_dimensional_rejected(self):
        with pytest.raises(InstanceValidationError, match="2-D"):
            InterestMatrix(candidate=np.zeros(3), competing=np.zeros((3, 0)))

    def test_arrays_become_read_only(self):
        matrix = InterestMatrix.from_arrays(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            matrix.candidate[0, 0] = 1.0


class TestAccessors:
    def test_mu_event(self):
        matrix = InterestMatrix.from_arrays(np.array([[0.25, 0.75]]))
        assert matrix.mu_event(0, 1) == 0.75

    def test_mu_competing(self):
        matrix = InterestMatrix.from_arrays(
            np.zeros((1, 1)), np.array([[0.4]])
        )
        assert matrix.mu_competing(0, 0) == 0.4

    def test_event_column_is_all_users(self):
        candidate = np.array([[0.1, 0.2], [0.3, 0.4]])
        matrix = InterestMatrix.from_arrays(candidate)
        np.testing.assert_array_equal(matrix.event_column(1), [0.2, 0.4])

    def test_competing_column(self):
        matrix = InterestMatrix.from_arrays(
            np.zeros((2, 1)), np.array([[0.5], [0.6]])
        )
        np.testing.assert_array_equal(matrix.competing_column(0), [0.5, 0.6])


class TestFromFunction:
    def test_materializes_callable(self):
        matrix = InterestMatrix.from_function(
            n_users=2,
            n_events=3,
            n_competing=1,
            event_interest=lambda u, e: (u + e) / 10,
            competing_interest=lambda u, c: 0.9,
        )
        assert matrix.mu_event(1, 2) == pytest.approx(0.3)
        assert matrix.mu_competing(0, 0) == 0.9

    def test_competing_defaults_to_zero(self):
        matrix = InterestMatrix.from_function(
            n_users=1, n_events=1, n_competing=2, event_interest=lambda u, e: 0.5
        )
        np.testing.assert_array_equal(matrix.competing, np.zeros((1, 2)))


class TestFromSparse:
    def test_absent_pairs_are_zero(self):
        matrix = InterestMatrix.from_sparse(
            n_users=2,
            n_events=2,
            n_competing=1,
            event_entries={(0, 1): 0.8},
            competing_entries={(1, 0): 0.3},
        )
        assert matrix.mu_event(0, 1) == 0.8
        assert matrix.mu_event(0, 0) == 0.0
        assert matrix.mu_event(1, 1) == 0.0
        assert matrix.mu_competing(1, 0) == 0.3
        assert matrix.mu_competing(0, 0) == 0.0


def _as_input(array: np.ndarray, form: str):
    return messy_coo(array) if form == "coo" else array


@pytest.mark.parametrize("form", INTEREST_INPUTS)
class TestCscStorage:
    """Every input form converts to one canonical, read-only CSC storage."""

    CANDIDATE = np.array([[0.5, 0.0, 0.25], [0.0, 0.0, 1.0]])
    COMPETING = np.array([[0.4], [0.0]])

    def _matrix(self, form):
        return InterestMatrix.from_arrays(
            _as_input(self.CANDIDATE, form), _as_input(self.COMPETING, form)
        )

    def test_storage_is_canonical_read_only_csc(self, form):
        matrix = self._matrix(form)
        for csc in (matrix.candidate_sparse, matrix.competing_sparse):
            assert csc.format == "csc" and csc.dtype == np.float64
            assert csc.has_canonical_format
            assert (csc.data != 0.0).all()
            assert not csc.data.flags.writeable
        np.testing.assert_array_equal(
            matrix.candidate_sparse.indptr, [0, 1, 1, 3]
        )

    def test_dense_views_match_the_input(self, form):
        matrix = self._matrix(form)
        np.testing.assert_array_equal(matrix.candidate, self.CANDIDATE)
        np.testing.assert_array_equal(matrix.competing, self.COMPETING)

    def test_element_and_column_accessors(self, form):
        matrix = self._matrix(form)
        assert matrix.mu_event(0, 0) == 0.5
        assert matrix.mu_event(1, 0) == 0.0
        assert matrix.mu_competing(0, 0) == 0.4
        np.testing.assert_array_equal(matrix.event_column(2), [0.25, 1.0])
        np.testing.assert_array_equal(matrix.competing_column(0), [0.4, 0.0])

    def test_column_entries_gather(self, form):
        matrix = self._matrix(form)
        rows, values = matrix.event_column_entries(2)
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_array_equal(values, [0.25, 1.0])
        rows, values = matrix.event_column_entries(1)
        assert rows.size == 0 and values.size == 0

    def test_competing_mass_accumulation(self, form):
        competing = np.array([[0.2, 0.3], [0.0, 0.5], [0.0, 0.0]])
        matrix = InterestMatrix.from_arrays(
            np.zeros((3, 1)), _as_input(competing, form)
        )
        rows, values = matrix.competing_mass_entries([0, 1])
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_allclose(values, [0.5, 0.5])
        rows, values = matrix.competing_mass_entries([])
        assert rows.size == 0

    def test_column_shape_failure_is_typed(self, form):
        with pytest.raises(InstanceValidationError, match="shape"):
            self._matrix(form).with_event_column(np.zeros(1))

    def test_restrict_users(self, form):
        matrix = self._matrix(form)
        cut = matrix.restrict_users(1)
        assert cut.n_users == 1
        np.testing.assert_array_equal(cut.candidate, self.CANDIDATE[:1])
        with pytest.raises(ValueError, match="restrict"):
            matrix.restrict_users(7)

    def test_canonical_coo_is_zero_free_and_csc_ordered(self, form):
        rows, cols, values = self._matrix(form).candidate_coo()
        assert (values != 0.0).all()
        order = np.lexsort((rows, cols))
        np.testing.assert_array_equal(order, np.arange(rows.size))
        # column-major: (0,0)=0.5, then column 2: (0,2)=0.25, (1,2)=1.0
        np.testing.assert_array_equal(cols, [0, 2, 2])
        np.testing.assert_array_equal(rows, [0, 0, 1])
        np.testing.assert_array_equal(values, [0.5, 0.25, 1.0])

    def test_statistics(self, form):
        matrix = self._matrix(form)
        assert matrix.sparsity() == 0.5
        assert matrix.mean_positive_interest() == pytest.approx(1.75 / 3)
        assert matrix.nnz_candidate() == 3


class TestConversionBoundary:
    def test_backend_keyword_is_gone(self):
        with pytest.raises(TypeError):
            InterestMatrix(np.zeros((1, 1)), np.zeros((1, 0)), backend="sparse")
        with pytest.raises(TypeError):
            InterestMatrix.from_arrays(np.zeros((1, 1)), backend="dense")

    def test_stored_matrices_are_shared_not_copied(self):
        matrix = InterestMatrix.from_arrays(
            np.array([[0.5, 0.0]]), np.array([[0.25]])
        )
        copy = InterestMatrix(
            matrix.candidate_sparse, matrix.competing_sparse[:, []]
        )
        assert copy.candidate_sparse is matrix.candidate_sparse
        assert copy.n_competing == 0

    def test_read_only_csc_inputs_are_still_validated(self):
        """A read-only canonical CSC looks like shared storage; it is
        shared only if its values are valid stored entries."""
        import scipy.sparse as sp

        def read_only(data):
            csc = sp.csc_matrix(
                (np.array(data), np.array([0, 0]), np.array([0, 1, 2])),
                shape=(1, 2),
            )
            csc.data.setflags(write=False)
            return csc

        for bad in ([7.5, 0.5], [np.nan, 0.5], [-0.25, 0.5]):
            with pytest.raises(InstanceValidationError):
                InterestMatrix.from_scipy(read_only(bad))
        zero = read_only([0.0, 0.5])
        matrix = InterestMatrix.from_scipy(zero)
        assert matrix.candidate_sparse is not zero
        np.testing.assert_array_equal(matrix.candidate_sparse.data, [0.5])

    def test_writable_csc_inputs_are_copied(self):
        import scipy.sparse as sp

        source = sp.csc_matrix(np.array([[0.5]]))
        matrix = InterestMatrix.from_scipy(source)
        assert matrix.candidate_sparse is not source
        source.data[0] = 0.75
        assert matrix.mu_event(0, 0) == 0.5

    def test_integer_scipy_input_stores_float64(self):
        import scipy.sparse as sp

        matrix = InterestMatrix.from_scipy(sp.csc_matrix(np.array([[1, 0]])))
        assert matrix.candidate_sparse.dtype == np.float64
        assert matrix.mu_event(0, 0) == 1.0

    def test_sparse_values_validated(self):
        import scipy.sparse as sp

        bad = sp.csc_matrix(np.array([[1.5]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            InterestMatrix.from_scipy(bad)
        nan = sp.csc_matrix(np.array([[np.nan]]))
        with pytest.raises(ValueError, match="NaN"):
            InterestMatrix.from_scipy(nan)

    @pytest.mark.parametrize("value", [np.nan, 1.5])
    def test_sparse_failures_are_typed(self, value):
        import scipy.sparse as sp

        with pytest.raises(InstanceValidationError):
            InterestMatrix.from_scipy(sp.csc_matrix(np.array([[value]])))

    def test_from_sparse_direct_to_csc(self):
        matrix = InterestMatrix.from_sparse(
            n_users=3,
            n_events=2,
            n_competing=1,
            event_entries={(0, 1): 0.8, (2, 0): 0.1},
            competing_entries={(1, 0): 0.3},
        )
        assert matrix.candidate_sparse.nnz == 2
        assert matrix.mu_event(0, 1) == 0.8
        assert matrix.mu_event(0, 0) == 0.0
        assert matrix.mu_competing(1, 0) == 0.3

    def test_user_axis_mismatch_rejected(self):
        import scipy.sparse as sp

        with pytest.raises(InstanceValidationError, match="user axis"):
            InterestMatrix(
                candidate=sp.csc_matrix((3, 2)),
                competing=sp.csc_matrix((4, 1)),
            )


class TestHandOver:
    """Matrices built only to be handed to :class:`InterestMatrix` become
    its storage without a second copy; bad values still raise."""

    MATRIX = InterestMatrix.from_arrays(
        np.array([[0.5, 0.0, 0.25], [0.0, 0.75, 1.0], [0.1, 0.0, 0.0]]),
        np.array([[0.4, 0.0], [0.0, 0.2], [0.3, 0.3]]),
    )
    COLUMN = np.array([0.0, 0.6, 0.9])

    EDITS = {
        "with_event_column": lambda m, c: m.with_event_column(c),
        "with_competing_column": lambda m, c: m.with_competing_column(c),
        "with_replaced_event_column": lambda m, c: m.with_replaced_event_column(1, c),
        "without_event_column": lambda m, c: m.without_event_column(1),
        "restrict_users": lambda m, c: m.restrict_users(2),
    }

    def test_copies_are_counted(self, interest_copies):
        import scipy.sparse as sp

        InterestMatrix.from_scipy(sp.csc_matrix(np.array([[0.5]])))
        assert interest_copies == ["candidate interest", "competing interest"]

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_column_edits_copy_nothing(self, interest_copies, edit):
        edited = self.EDITS[edit](self.MATRIX, self.COLUMN)
        assert interest_copies == []
        for csc in (edited.candidate_sparse, edited.competing_sparse):
            assert not csc.data.flags.writeable
            assert csc.has_canonical_format

    def test_edited_values_are_the_edit(self):
        edited = self.MATRIX.with_replaced_event_column(1, self.COLUMN)
        expected = self.MATRIX.candidate.copy()
        expected[:, 1] = self.COLUMN
        np.testing.assert_array_equal(edited.candidate, expected)

    def test_live_freeze_copies_nothing(self, interest_copies):
        from repro.core.live import LiveInterest

        live = LiveInterest(self.MATRIX)
        live.append_event(self.COLUMN)
        frozen = live.freeze()
        assert interest_copies == []
        np.testing.assert_array_equal(
            frozen.candidate,
            np.column_stack([self.MATRIX.candidate, self.COLUMN]),
        )
        np.testing.assert_array_equal(frozen.competing, self.MATRIX.competing)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_bad_columns_still_raise(self, interest_copies, bad):
        column = self.COLUMN.copy()
        column[1] = bad
        with pytest.raises(InstanceValidationError):
            self.MATRIX.with_event_column(column)
        with pytest.raises(InstanceValidationError):
            self.MATRIX.with_competing_column(column)
        assert interest_copies


class TestStatistics:
    def test_sparsity_counts_exact_zeros(self):
        matrix = InterestMatrix.from_arrays(np.array([[0.0, 0.5], [0.0, 0.0]]))
        assert matrix.sparsity() == pytest.approx(0.75)

    def test_sparsity_of_empty_matrix_is_one(self):
        matrix = InterestMatrix.from_arrays(np.zeros((0, 0)))
        assert matrix.sparsity() == 1.0

    def test_mean_positive_interest(self):
        matrix = InterestMatrix.from_arrays(np.array([[0.0, 0.5], [0.7, 0.0]]))
        assert matrix.mean_positive_interest() == pytest.approx(0.6)

    def test_mean_positive_interest_all_zero(self):
        matrix = InterestMatrix.from_arrays(np.zeros((2, 2)))
        assert matrix.mean_positive_interest() == 0.0
