"""Tests of ``grd-heap``: the name GRD's lazy pick loop is also served as.

Compared with Algorithm 1's eager loop (the oracle in
``tests/algorithms/eager_grd.py``), schedule and utility bits alike.
"""

from repro.algorithms.greedy import GreedyScheduler
from repro.algorithms.greedy_heap import LazyGreedyScheduler
from repro.core.feasibility import is_schedule_feasible

from tests.algorithms.eager_grd import EagerGreedyScheduler
from tests.conftest import make_random_instance


class TestEquivalenceWithEagerGRD:
    def test_same_utility_across_random_instances(self):
        """Lazy rescoring must not change what greedy selects."""
        for seed in range(8):
            instance = make_random_instance(seed=seed)
            eager = EagerGreedyScheduler().solve(instance, 4)
            lazy = LazyGreedyScheduler().solve(instance, 4)
            assert list(lazy.schedule) == list(eager.schedule), f"seed {seed}"
            assert lazy.utility.hex() == eager.utility.hex(), f"seed {seed}"

    def test_same_schedule_without_ties(self):
        instance = make_random_instance(seed=90)
        assert (
            LazyGreedyScheduler().solve(instance, 4).schedule
            == EagerGreedyScheduler().solve(instance, 4).schedule
        )

    def test_runs_grds_loop(self):
        instance = make_random_instance(seed=94, n_events=10, n_intervals=5)
        heap = LazyGreedyScheduler().solve(instance, 6)
        grd = GreedyScheduler().solve(instance, 6)
        assert heap.solver == "GRD-heap"
        assert list(heap.schedule) == list(grd.schedule)
        assert heap.utility.hex() == grd.utility.hex()
        assert heap.stats == grd.stats

    def test_feasible_and_complete(self):
        instance = make_random_instance(seed=91)
        result = LazyGreedyScheduler().solve(instance, 5)
        assert result.achieved_k == 5
        assert is_schedule_feasible(instance, result.schedule)

    def test_partial_when_capacity_binds(self, tight_instance):
        result = LazyGreedyScheduler().solve(tight_instance, 4)
        assert result.achieved_k == 2


class TestLaziness:
    def test_rescores_fewer_entries_than_full_refresh(self):
        """Fewer score updates than Algorithm 1's full row refresh."""
        instance = make_random_instance(
            seed=92, n_events=12, n_intervals=6, n_users=20
        )
        k = 6
        lazy = LazyGreedyScheduler().solve(instance, k)
        eager = EagerGreedyScheduler().solve(instance, k)
        assert lazy.stats.score_updates < eager.stats.score_updates

    def test_pops_at_least_k(self):
        instance = make_random_instance(seed=93)
        result = LazyGreedyScheduler().solve(instance, 4)
        assert result.stats.pops >= 4
