"""Gap reports: warm-plane gains, zero extra evaluations, status taxonomy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ScheduleSession, SolveRequest
from repro.core.engine import EngineSpec
from repro.core.scoreplane import ScorePlane
from repro.interactive import LockSet, build_gap_report
from repro.serve import ServingSession

from tests.conftest import make_random_instance


@pytest.fixture
def instance():
    return make_random_instance(seed=321)


class TestAcceptance:
    def test_gains_match_warm_plane_with_zero_extra_evaluations(self, instance):
        """The acceptance criterion: every reported gain equals the warm
        ScorePlane entry to 1e-9, and building the report fills or
        refreshes zero cells on a warm session."""
        session = ScheduleSession(instance)
        response = session.solve(SolveRequest(k=3, solver="grd"))

        plane = session.plane_for(None)
        spent_before = plane.cells_filled + plane.cells_refreshed
        matrix = np.array(plane.ensure(), copy=True)

        report = session.gap_report(response)

        assert report.cells_spent == 0
        assert plane.cells_filled + plane.cells_refreshed == spent_before
        scheduled = dict(report.schedule)
        assert len(report.gaps) == instance.n_events - len(scheduled)
        for gap in report.gaps:
            assert gap.event not in scheduled
            for cell in gap.cells:
                assert abs(cell.gain - matrix[cell.interval, gap.event]) < 1e-9

    def test_cold_plane_pays_once_then_reports_are_free(self, instance):
        plane = ScorePlane(EngineSpec().build(instance))
        cold = build_gap_report(instance, {}, 3, plane)
        assert cold.cells_spent == instance.n_events * instance.n_intervals
        warm = build_gap_report(instance, {}, 3, plane)
        assert warm.cells_spent == 0


class TestStatuses:
    def test_budget_room_means_open(self, instance):
        session = ScheduleSession(instance)
        response = session.solve(k=2, solver="grd")
        # ask against a larger budget: every feasible cell is "open"
        report = session.gap_report(response.schedule, k=instance.n_events)
        assert not report.at_budget
        statuses = {c.status for g in report.gaps for c in g.cells}
        assert statuses <= {"open", "blocked"}
        assert "open" in statuses

    def test_at_budget_splits_displace_and_dominated(self, instance):
        session = ScheduleSession(instance)
        response = session.solve(k=2, solver="rand", seed=9)
        report = session.gap_report(response)
        assert report.at_budget
        assert report.weakest is not None
        weakest_gain = report.weakest[2]
        for gap in report.gaps:
            for cell in gap.cells:
                if cell.status == "displace":
                    assert cell.gain > weakest_gain
                elif cell.status == "dominated":
                    assert cell.gain <= weakest_gain + 1e-9

    def test_forbidden_cells_labelled_and_never_fillable(self, instance):
        session = ScheduleSession(instance)
        response = session.solve(k=2, solver="grd")
        free_event = next(
            e
            for e in range(instance.n_events)
            if e not in response.schedule.as_mapping()
        )
        locks = LockSet().forbid(0, free_event)
        report = session.gap_report(response.schedule, k=2, locks=locks)
        cell = next(
            c
            for c in report.gap_for(free_event).cells
            if c.interval == 0
        )
        assert cell.status == "forbidden"
        assert not cell.fillable

    def test_blocked_cells_carry_an_explanation(self):
        # 1 location + tight theta: conflicts genuinely bind
        instance = make_random_instance(seed=13, n_locations=1, theta=5.0)
        session = ScheduleSession(instance)
        response = session.solve(k=instance.n_events, solver="grd")
        report = session.gap_report(response)
        blocked = [
            c for g in report.gaps for c in g.cells if c.status == "blocked"
        ]
        assert blocked
        assert all(c.detail for c in blocked)


class TestShape:
    def test_limit_keeps_top_gaps_by_best_gain(self, instance):
        session = ScheduleSession(instance)
        response = session.solve(k=2, solver="grd")
        full = session.gap_report(response)
        cut = session.gap_report(response, limit=2)
        assert [g.event for g in cut.gaps] == [g.event for g in full.gaps[:2]]
        gains = [g.best_gain for g in full.gaps]
        assert gains == sorted(gains, reverse=True)

    def test_gap_for_unknown_event_raises(self, instance):
        session = ScheduleSession(instance)
        report = session.gap_report(session.solve(k=2, solver="grd"))
        scheduled_event = report.schedule[0][0]
        with pytest.raises(KeyError, match="not among"):
            report.gap_for(scheduled_event)

    def test_bare_schedule_requires_k(self, instance):
        session = ScheduleSession(instance)
        response = session.solve(k=2, solver="grd")
        with pytest.raises(TypeError, match="k is required"):
            session.gap_report(response.schedule)

    def test_describe_smoke(self, instance):
        session = ScheduleSession(instance)
        report = session.gap_report(session.solve(k=2, solver="grd"))
        text = report.describe()
        assert "gap report:" in text
        assert f"2/2 placed" in text
        for gap in report.gaps:
            assert f"e{gap.event}" in text

    def test_validation(self, instance):
        plane = ScorePlane(EngineSpec().build(instance))
        with pytest.raises(ValueError, match="k must be non-negative"):
            build_gap_report(instance, {}, -1, plane)
        with pytest.raises(ValueError, match="limit must be non-negative"):
            build_gap_report(instance, {}, 2, plane, limit=-1)


class TestServing:
    def test_report_is_stamped_with_the_pool_generation(self, instance):
        session = ServingSession(instance)
        served = session.solve(k=2, solver="grd")
        report = session.gap_report(served)
        assert report.version == session.version
        # generation moves with a live mutation; reports must say so
        session.cancel_event(instance.n_events - 1)
        bumped = session.gap_report(
            {0: 0}, k=2
        )
        assert bumped.version == session.version > report.version

    @pytest.mark.parametrize("kind", [ScheduleSession, ServingSession])
    def test_served_response_k_and_locks_are_reused(self, instance, kind):
        session = kind(instance)
        locks = LockSet().forbid(0, 0)
        served = session.solve(k=2, solver="grd", locks=locks)
        report = session.gap_report(served)
        assert report.k == 2
        mapping = dict(report.schedule)
        if 0 not in mapping:
            cell = next(
                c for c in report.gap_for(0).cells if c.interval == 0
            )
            assert cell.status == "forbidden"

    @pytest.mark.parametrize("kind", [ScheduleSession, ServingSession])
    def test_gap_report_counts_as_served_request(self, instance, kind):
        session = kind(instance)
        served = session.solve(k=2, solver="grd")
        before = session.requests_served
        session.gap_report(served)
        assert session.requests_served == before + 1
