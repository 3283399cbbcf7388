"""Tests of the solver scaffolding: results, stats, strictness, clamping."""

import pytest

from repro.algorithms.base import ScheduleResult, Scheduler, SolverStats
from repro.algorithms.greedy import GreedyScheduler
from repro.algorithms.random_schedule import RandomScheduler
from repro.core.engine import EngineSpec
from repro.core.errors import ScheduleSizeError
from repro.core.feasibility import is_schedule_feasible

from tests.conftest import make_random_instance


class TestSolverStats:
    def test_counters_start_at_zero(self):
        stats = SolverStats()
        assert all(value == 0 for value in stats.as_dict().values())

    def test_as_dict_round_trips_every_field(self):
        stats = SolverStats(initial_scores=3, pops=2, iterations=1)
        payload = stats.as_dict()
        assert payload["initial_scores"] == 3
        assert payload["pops"] == 2
        assert payload["iterations"] == 1

    def test_as_dict_mirrors_every_dataclass_field(self):
        """as_dict derives from dataclasses.fields — a newly added counter
        can no longer silently drop from benchmark output."""
        import dataclasses

        stats = SolverStats(initial_scores=1, moves_accepted=2)
        payload = stats.as_dict()
        assert set(payload) == {
            f.name for f in dataclasses.fields(SolverStats)
        }
        assert payload["initial_scores"] == 1
        assert payload["moves_accepted"] == 2


class TestScheduleResult:
    def test_summary_mentions_solver_and_utility(self):
        instance = make_random_instance(seed=70)
        result = GreedyScheduler().solve(instance, 2)
        text = result.summary()
        assert "GRD" in text
        assert "utility=" in text

    def test_complete_flag(self):
        instance = make_random_instance(seed=71)
        result = GreedyScheduler().solve(instance, 2)
        assert result.complete
        assert result.achieved_k == 2


class TestSolveContract:
    def test_negative_k_rejected(self):
        instance = make_random_instance(seed=72)
        with pytest.raises(ValueError, match="non-negative"):
            GreedyScheduler().solve(instance, -1)

    def test_k_zero_returns_empty_schedule(self):
        instance = make_random_instance(seed=73)
        result = GreedyScheduler().solve(instance, 0)
        assert len(result.schedule) == 0
        assert result.utility == pytest.approx(0.0)

    def test_k_clamped_to_event_count(self):
        instance = make_random_instance(seed=74, n_events=3)
        result = GreedyScheduler().solve(instance, 50)
        assert result.requested_k == 3

    def test_every_result_is_feasible(self):
        instance = make_random_instance(seed=75)
        for solver in (GreedyScheduler(), RandomScheduler(seed=1)):
            result = solver.solve(instance, 4)
            assert is_schedule_feasible(instance, result.schedule)

    def test_strict_mode_raises_when_k_unreachable(self, tight_instance):
        # 1 location x 2 intervals and theta=2 per interval with xi=2:
        # at most one event per interval -> at most 2 assignments, not 4
        solver = GreedyScheduler(strict=True)
        with pytest.raises(ScheduleSizeError, match="placed only"):
            solver.solve(tight_instance, 4)

    def test_non_strict_mode_returns_partial(self, tight_instance):
        result = GreedyScheduler().solve(tight_instance, 4)
        assert result.achieved_k == 2
        assert not result.complete

    def test_runtime_is_measured(self):
        instance = make_random_instance(seed=76)
        result = GreedyScheduler().solve(instance, 3)
        assert result.runtime_seconds > 0.0

    def test_engine_spec_is_respected(self):
        instance = make_random_instance(seed=77)
        sparse = GreedyScheduler(engine="sparse").solve(instance, 3)
        reference = GreedyScheduler(engine="reference").solve(instance, 3)
        assert sparse.utility == pytest.approx(reference.utility, abs=1e-9)
        assert sparse.schedule == reference.schedule

    def test_injected_engine_must_match_instance(self):
        a = make_random_instance(seed=503)
        b = make_random_instance(seed=504)
        engine = EngineSpec().build(b)
        with pytest.raises(ValueError, match="different instance"):
            GreedyScheduler().solve(a, 2, engine=engine)
