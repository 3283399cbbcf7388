"""Unit tests for the interest matrix (the paper's ``mu``)."""

import numpy as np
import pytest

from repro.core.errors import InstanceValidationError
from repro.core.interest import InterestMatrix


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


class TestSparseBackend:
    def _matrix(self, backend="sparse"):
        candidate = np.array([[0.5, 0.0, 0.25], [0.0, 0.0, 1.0]])
        competing = np.array([[0.4], [0.0]])
        return InterestMatrix.from_arrays(candidate, competing, backend=backend)

    def test_backend_property(self):
        assert self._matrix("dense").backend == "dense"
        assert self._matrix("sparse").backend == "sparse"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown interest backend"):
            self._matrix("octree")

    def test_dense_views_match(self):
        dense, sparse = self._matrix("dense"), self._matrix("sparse")
        np.testing.assert_array_equal(sparse.candidate, dense.candidate)
        np.testing.assert_array_equal(sparse.competing, dense.competing)

    def test_element_and_column_accessors(self):
        matrix = self._matrix()
        assert matrix.mu_event(0, 0) == 0.5
        assert matrix.mu_event(1, 0) == 0.0
        assert matrix.mu_competing(0, 0) == 0.4
        np.testing.assert_array_equal(matrix.event_column(2), [0.25, 1.0])
        np.testing.assert_array_equal(matrix.competing_column(0), [0.4, 0.0])

    def test_column_entries_gather(self):
        for matrix in (self._matrix("dense"), self._matrix("sparse")):
            rows, values = matrix.event_column_entries(2)
            np.testing.assert_array_equal(rows, [0, 1])
            np.testing.assert_array_equal(values, [0.25, 1.0])
            rows, values = matrix.event_column_entries(1)
            assert rows.size == 0 and values.size == 0

    def test_competing_mass_accumulation(self):
        candidate = np.zeros((3, 1))
        competing = np.array([[0.2, 0.3], [0.0, 0.5], [0.0, 0.0]])
        for backend in ("dense", "sparse"):
            matrix = InterestMatrix.from_arrays(
                candidate, competing, backend=backend
            )
            rows, values = matrix.competing_mass_entries([0, 1])
            np.testing.assert_array_equal(rows, [0, 1])
            np.testing.assert_allclose(values, [0.5, 0.5])
            rows, values = matrix.competing_mass_entries([])
            assert rows.size == 0

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

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_column_shape_failure_is_typed(self, backend):
        with pytest.raises(InstanceValidationError, match="shape"):
            self._matrix(backend).with_event_column(np.zeros(1))

    def test_to_backend_round_trip(self):
        dense = self._matrix("dense")
        there = dense.to_backend("sparse")
        back = there.to_backend("dense")
        assert there.backend == "sparse" and back.backend == "dense"
        np.testing.assert_array_equal(back.candidate, dense.candidate)
        assert dense.to_backend("dense") is dense
        assert there.to_backend("sparse") is there

    def test_restrict_users_preserves_backend(self):
        for backend in ("dense", "sparse"):
            matrix = self._matrix(backend)
            cut = matrix.restrict_users(1)
            assert cut.backend == backend
            assert cut.n_users == 1
            np.testing.assert_array_equal(cut.candidate, matrix.candidate[:1])
        with pytest.raises(ValueError, match="restrict"):
            self._matrix().restrict_users(7)

    def test_from_sparse_direct_to_csc(self):
        matrix = InterestMatrix.from_sparse(
            n_users=3,
            n_events=2,
            n_competing=1,
            event_entries={(0, 1): 0.8, (2, 0): 0.1},
            competing_entries={(1, 0): 0.3},
            backend="sparse",
        )
        assert matrix.backend == "sparse"
        assert matrix.mu_event(0, 1) == 0.8
        assert matrix.mu_event(0, 0) == 0.0
        assert matrix.mu_competing(1, 0) == 0.3

    def test_canonical_coo_is_zero_free_and_csc_ordered(self):
        matrix = self._matrix("sparse")
        rows, cols, values = matrix.candidate_coo()
        assert (values != 0.0).all()
        order = np.lexsort((rows, cols))
        np.testing.assert_array_equal(order, np.arange(rows.size))
        # column-major: (0,0)=0.5, then column 2: (0,2)=0.25, (1,2)=1.0
        np.testing.assert_array_equal(cols, [0, 2, 2])
        np.testing.assert_array_equal(rows, [0, 0, 1])
        np.testing.assert_allclose(values, [0.5, 0.25, 1.0])

    def test_statistics_match_dense(self):
        dense, sparse = self._matrix("dense"), self._matrix("sparse")
        assert sparse.sparsity() == dense.sparsity()
        assert sparse.mean_positive_interest() == pytest.approx(
            dense.mean_positive_interest()
        )
        assert sparse.nnz_candidate() == dense.nnz_candidate() == 3

    def test_user_axis_mismatch_rejected(self):
        import scipy.sparse as sp

        with pytest.raises(InstanceValidationError, match="user axis"):
            InterestMatrix(
                candidate=sp.csc_matrix((3, 2)),
                competing=sp.csc_matrix((4, 1)),
                backend="sparse",
            )


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
