"""ShardedInterest: block storage behind the flat accessor protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InstanceValidationError
from repro.core.interest import InterestMatrix, slice_entries
from repro.shard.interest import ShardedInterest
from repro.shard.plan import ShardPlan

pytest.importorskip("scipy")

N_USERS, N_EVENTS, N_COMPETING = 97, 7, 5


@pytest.fixture(scope="module")
def flat() -> InterestMatrix:
    rng = np.random.default_rng(21)
    candidate = rng.uniform(0, 1, (N_USERS, N_EVENTS))
    candidate *= rng.random(candidate.shape) < 0.3
    competing = rng.uniform(0, 1, (N_USERS, N_COMPETING))
    competing *= rng.random(competing.shape) < 0.3
    return InterestMatrix.from_arrays(candidate, competing, backend="sparse")


@pytest.fixture(scope="module")
def plan() -> ShardPlan:
    return ShardPlan(n_users=N_USERS, n_shards=3, block_users=16)


def build(flat, plan):
    return ShardedInterest.from_interest(flat, plan)


class TestSliceEntries:
    def test_window_is_localized(self):
        rows = np.array([2, 5, 9, 14, 30], dtype=np.intp)
        values = np.array([0.2, 0.5, 0.9, 0.4, 0.3])
        local, vals = slice_entries(rows, values, 5, 15)
        np.testing.assert_array_equal(local, [0, 4, 9])
        np.testing.assert_array_equal(vals, [0.5, 0.9, 0.4])

    def test_empty_window(self):
        rows = np.array([2, 5], dtype=np.intp)
        local, vals = slice_entries(rows, np.array([0.2, 0.5]), 10, 20)
        assert local.size == 0 and vals.size == 0


class TestAccessorProtocolParity:
    @pytest.fixture(
        params=[1, 16, 50, 128],
        ids=["block1", "block16", "block50", "block128"],
    )
    def plan(self, request) -> ShardPlan:
        """Block layouts for the parity checks: one user per block, a
        ragged one-user tail, two unequal blocks, and one block wider
        than the user axis."""
        return ShardPlan(n_users=N_USERS, n_shards=3, block_users=request.param)

    def test_shape_and_backend(self, flat, plan):
        sharded = build(flat, plan)
        assert sharded.backend == "sharded"
        assert (sharded.n_users, sharded.n_events, sharded.n_competing) == (
            N_USERS,
            N_EVENTS,
            N_COMPETING,
        )

    def test_dense_matrices_match(self, flat, plan):
        sharded = build(flat, plan)
        np.testing.assert_array_equal(sharded.candidate, flat.candidate)
        np.testing.assert_array_equal(sharded.competing, flat.competing)

    def test_column_entries_match(self, flat, plan):
        sharded = build(flat, plan)
        for event in range(N_EVENTS):
            rows, values = sharded.event_column_entries(event)
            frows, fvalues = flat.event_column_entries(event)
            np.testing.assert_array_equal(rows, frows)
            np.testing.assert_array_equal(values, fvalues)
            assert values.dtype == np.float64
            np.testing.assert_array_equal(
                sharded.event_column(event), flat.event_column(event)
            )

    def test_competing_mass_entries_match(self, flat, plan):
        sharded = build(flat, plan)
        rivals = [0, 2, 4]
        rows, values = sharded.competing_mass_entries(rivals)
        frows, fvalues = flat.competing_mass_entries(rivals)
        np.testing.assert_array_equal(rows, frows)
        np.testing.assert_array_equal(values, fvalues)
        assert sharded.competing_mass_entries([])[0].size == 0

    def test_pointwise_mu(self, flat, plan):
        sharded = build(flat, plan)
        edges = {
            user
            for block in range(plan.n_blocks)
            for lo, hi in [plan.block_bounds(block)]
            for user in (lo, hi - 1)
        }
        for user in sorted(edges):
            for event in range(N_EVENTS):
                assert sharded.mu_event(user, event) == flat.mu_event(
                    user, event
                )
            assert sharded.mu_competing(user, 1) == flat.mu_competing(user, 1)

    def test_sparse_and_coo_views(self, flat, plan):
        sharded = build(flat, plan)
        np.testing.assert_array_equal(
            sharded.candidate_sparse.toarray(), flat.candidate
        )
        rows, cols, values = sharded.candidate_coo()
        dense = np.zeros((N_USERS, N_EVENTS))
        dense[rows, cols] = values
        np.testing.assert_array_equal(dense, flat.candidate)

    def test_statistics(self, flat, plan):
        sharded = build(flat, plan)
        assert sharded.nnz_candidate() == flat.nnz_candidate()
        assert sharded.sparsity() == pytest.approx(flat.sparsity())
        assert sharded.mean_positive_interest() == pytest.approx(
            flat.mean_positive_interest(), abs=1e-6
        )


class TestConstruction:
    def test_plan_user_mismatch_rejected(self, flat):
        with pytest.raises(InstanceValidationError, match="plan covers"):
            ShardedInterest.from_interest(
                flat, ShardPlan(n_users=N_USERS + 1, block_users=16)
            )

    def test_wrong_block_count_rejected(self, flat, plan):
        sharded = build(flat, plan)
        blocks = [sharded.candidate_block(i) for i in range(plan.n_blocks)]
        with pytest.raises(InstanceValidationError, match="candidate blocks"):
            ShardedInterest(plan, blocks[:-1], blocks)

    def test_wrong_block_shape_rejected(self, flat, plan):
        sharded = build(flat, plan)
        candidate = [sharded.candidate_block(i) for i in range(plan.n_blocks)]
        competing = [sharded.competing_block(i) for i in range(plan.n_blocks)]
        candidate[0] = candidate[0][:5]
        with pytest.raises(InstanceValidationError, match="has shape"):
            ShardedInterest(plan, candidate, competing)

    def test_constructor_takes_only_float64_csc_blocks(self, flat, plan):
        sharded = build(flat, plan)
        competing = [sharded.competing_block(i) for i in range(plan.n_blocks)]
        for wrong in (
            sharded.candidate_block(0).toarray(),
            sharded.candidate_block(0).astype(np.float32),
            sharded.candidate_block(0).tocsr(),
        ):
            candidate = [sharded.candidate_block(i) for i in range(plan.n_blocks)]
            candidate[0] = wrong
            with pytest.raises(InstanceValidationError, match="float64 CSC"):
                ShardedInterest(plan, candidate, competing)

    def test_out_of_range_values_rejected(self, plan):
        bad = np.full((16, 2), 1.5)
        blocks = [
            np.zeros((hi - lo, 2))
            for b in range(plan.n_blocks)
            for lo, hi in [plan.block_bounds(b)]
        ]
        candidate = list(blocks)
        candidate[0] = bad
        with pytest.raises(InstanceValidationError, match=r"\[0, 1\]"):
            ShardedInterest.from_blocks(plan, candidate, blocks)

    def test_nan_rejected(self, plan):
        blocks = [
            np.zeros((hi - lo, 2))
            for b in range(plan.n_blocks)
            for lo, hi in [plan.block_bounds(b)]
        ]
        candidate = list(blocks)
        candidate[0] = np.full((16, 2), np.nan)
        with pytest.raises(InstanceValidationError, match="NaN"):
            ShardedInterest.from_blocks(plan, candidate, blocks)

    def test_generic_duck_source_matches_sparse_source(self, flat, plan):
        """A dense-backed matrix reshards through the entries fallback."""
        dense_flat = flat.to_backend("dense")
        from_entries = ShardedInterest.from_interest(dense_flat, plan)
        from_sparse = ShardedInterest.from_interest(flat, plan)
        np.testing.assert_array_equal(
            from_entries.candidate, from_sparse.candidate
        )
        np.testing.assert_array_equal(
            from_entries.competing, from_sparse.competing
        )


class TestConversion:
    def test_to_interest_backends(self, flat, plan):
        sharded = build(flat, plan)
        back_sparse = sharded.to_interest("sparse")
        assert back_sparse.backend == "sparse"
        np.testing.assert_array_equal(back_sparse.candidate, flat.candidate)
        back_dense = sharded.to_interest("dense")
        assert back_dense.backend == "dense"
        np.testing.assert_array_equal(back_dense.candidate, flat.candidate)
