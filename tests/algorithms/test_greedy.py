"""Tests of GRD (Algorithm 1): selection semantics and invariants."""

import numpy as np
import pytest

from repro.algorithms.exhaustive import ExhaustiveScheduler
from repro.algorithms.greedy import GreedyScheduler
from repro.core.engine import make_engine
from repro.core.feasibility import is_schedule_feasible
from repro.core.objective import total_utility
from repro.core.schedule import Assignment, Schedule

from tests.algorithms.eager_grd import EagerGreedyScheduler
from tests.conftest import make_random_instance


class TestSelectionSemantics:
    def test_first_pick_is_global_argmax(self):
        """GRD's first selection is the single best assignment anywhere."""
        instance = make_random_instance(seed=80)
        engine = make_engine(instance)
        best = -1.0
        for interval in range(instance.n_intervals):
            scores = engine.scores_for_interval(interval, range(instance.n_events))
            best = max(best, float(scores.max()))
        result = GreedyScheduler().solve(instance, 1)
        assert result.utility == pytest.approx(best, abs=1e-9)

    def test_greedy_trace_is_marginally_optimal(self):
        """Each accepted assignment has the max score among valid ones.

        Replays GRD's schedule in selection order (which the Schedule
        preserves per interval) against a fresh engine and checks the
        greedy invariant at every step.
        """
        instance = make_random_instance(seed=81, n_events=8, n_intervals=3)
        result = GreedyScheduler().solve(instance, 5)
        # recover GRD's selection order: replay by repeatedly finding which
        # remaining scheduled assignment currently has the best score
        engine = make_engine(instance)
        from repro.core.feasibility import FeasibilityChecker

        checker = FeasibilityChecker(instance)
        pending = dict(result.schedule.as_mapping())
        while pending:
            # best score over ALL currently-valid assignments
            best_everywhere = -np.inf
            for interval in range(instance.n_intervals):
                events = [
                    e for e in range(instance.n_events)
                    if not engine.schedule.contains_event(e)
                    and checker.is_valid(Assignment(e, interval))
                ]
                if events:
                    scores = engine.scores_for_interval(interval, events)
                    best_everywhere = max(best_everywhere, float(scores.max()))
            # the next greedy pick must match it (up to ties)
            step_scores = {
                event: engine.score(event, interval)
                for event, interval in pending.items()
            }
            chosen = max(step_scores, key=step_scores.get)
            assert step_scores[chosen] == pytest.approx(
                best_everywhere, abs=1e-9
            )
            interval = pending.pop(chosen)
            checker.apply(Assignment(chosen, interval))
            engine.assign(chosen, interval)

    def test_schedules_exactly_k_when_capacity_allows(self):
        instance = make_random_instance(seed=82)
        for k in (1, 2, 4):
            assert GreedyScheduler().solve(instance, k).achieved_k == k

    def test_stops_when_no_valid_assignment_remains(self, tight_instance):
        result = GreedyScheduler().solve(tight_instance, 4)
        assert result.achieved_k == 2  # one location, 2 intervals, theta binds
        assert is_schedule_feasible(tight_instance, result.schedule)


class TestUtilityQuality:
    def test_utility_equals_schedule_reevaluation(self):
        """Reported utility must equal Omega of the reported schedule."""
        instance = make_random_instance(seed=83)
        result = GreedyScheduler().solve(instance, 4)
        assert result.utility == pytest.approx(
            total_utility(instance, result.schedule), abs=1e-9
        )

    def test_matches_exact_optimum_on_single_pick(self):
        """k=1 greedy IS optimal (it takes the argmax assignment)."""
        instance = make_random_instance(seed=84, n_events=5, n_intervals=3)
        greedy = GreedyScheduler().solve(instance, 1)
        exact = ExhaustiveScheduler().solve(instance, 1)
        assert greedy.utility == pytest.approx(exact.utility, abs=1e-9)

    def test_within_half_of_optimum_on_small_instances(self):
        """Empirical quality floor on tiny instances.

        Greedy on a monotone objective with these constraints should stay
        well above 1/2 of optimum; we assert the 1/2 floor as a regression
        tripwire (not a proven bound for SES).
        """
        for seed in range(6):
            instance = make_random_instance(
                seed=seed, n_events=5, n_intervals=3, n_users=8
            )
            greedy = GreedyScheduler().solve(instance, 3)
            exact = ExhaustiveScheduler().solve(instance, 3)
            assert greedy.utility >= 0.5 * exact.utility - 1e-9

    def test_monotone_utility_in_k(self):
        """More budget never hurts GRD (scores are non-negative)."""
        instance = make_random_instance(seed=85)
        utilities = [
            GreedyScheduler().solve(instance, k).utility for k in (1, 2, 3, 4, 5)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(utilities, utilities[1:]))


class TestStats:
    def test_initial_scores_cover_all_pairs(self):
        instance = make_random_instance(seed=86)
        result = GreedyScheduler().solve(instance, 3)
        assert (
            result.stats.initial_scores
            == instance.n_events * instance.n_intervals
        )

    def test_pops_equal_iterations(self):
        """Matrix GRD pops only valid entries: pops == accepted picks."""
        instance = make_random_instance(seed=87)
        result = GreedyScheduler().solve(instance, 3)
        assert result.stats.pops == result.stats.iterations == 3

    def test_updates_happen_after_each_pick_except_last(self):
        instance = make_random_instance(seed=88)
        result = GreedyScheduler().solve(instance, 3)
        assert result.stats.score_updates > 0

    def test_rescores_fewer_cells_than_eager_and_counts_every_one(
        self, monkeypatch
    ):
        """``score_updates`` counts exactly the cells the engine rescored
        (``engine cells == initial_scores + score_updates``), and the lazy
        loop rescores strictly fewer of them than Algorithm 1's eager
        update makes for the same picks."""
        instance = make_random_instance(
            seed=92, n_events=12, n_intervals=6, n_users=20
        )
        engine = make_engine(instance)
        cells = []
        kernel = engine._scores_for_rows

        def counting(intervals, events):
            cells.append(len(intervals) * len(events))
            return kernel(intervals, events)

        monkeypatch.setattr(engine, "_scores_for_rows", counting)
        lazy = GreedyScheduler().solve(instance, 6, engine=engine)
        eager = EagerGreedyScheduler().solve(instance, 6)
        assert lazy.schedule == eager.schedule
        assert 0 < lazy.stats.score_updates < eager.stats.score_updates
        assert sum(cells) == lazy.stats.initial_scores + lazy.stats.score_updates


class TestDeterminism:
    def test_same_instance_same_schedule(self):
        instance = make_random_instance(seed=89)
        a = GreedyScheduler().solve(instance, 4)
        b = GreedyScheduler().solve(instance, 4)
        assert a.schedule == b.schedule
        assert a.utility == b.utility
