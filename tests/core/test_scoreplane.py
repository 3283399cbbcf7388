"""Unit tests of the ScorePlane cache mechanics (fill, dirty, deltas)."""

import numpy as np
import pytest

from repro.core.engine import ENGINE_KINDS, EngineSpec
from repro.core.entities import CandidateEvent, CompetingEvent
from repro.core.interest import InterestMatrix
from repro.core.live import LiveInstance
from repro.core.schedule import Assignment
from repro.core.scoreplane import ScorePlane

from tests.conftest import INTEREST_INPUTS, make_random_instance


def build_plane(seed=900, kind="sparse", **kwargs):
    instance = make_random_instance(
        seed=seed, n_events=6, n_intervals=4, **kwargs
    )
    engine = EngineSpec(kind=kind).build(instance)
    return instance, engine, ScorePlane(engine)


def cold_matrix(instance, spec_kind="sparse"):
    engine = EngineSpec(kind=spec_kind).build(instance)
    all_events = list(range(instance.n_events))
    return np.vstack(
        [
            engine.scores_for_interval(interval, all_events)
            for interval in range(instance.n_intervals)
        ]
    )


class TestFill:
    def test_lazy_until_first_ensure(self):
        _, __, plane = build_plane()
        assert plane.array is None and not plane.filled
        matrix = plane.ensure()
        assert plane.filled
        assert matrix.shape == (plane.n_intervals, plane.n_events)

    def test_cold_fill_matches_direct_row_queries(self):
        instance, _, plane = build_plane()
        np.testing.assert_array_equal(plane.ensure(), cold_matrix(instance))

    def test_second_ensure_is_warm(self):
        _, __, plane = build_plane()
        plane.ensure()
        spent = plane.cells_filled + plane.cells_refreshed
        plane.ensure()
        assert plane.cells_filled + plane.cells_refreshed == spent
        assert plane.warm_reads == 1
        assert plane.fills == 1

    def test_invalidate_forces_refill(self):
        _, __, plane = build_plane()
        plane.ensure()
        plane.invalidate()
        assert not plane.filled
        plane.ensure()
        assert plane.fills == 2

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_cold_fill_gathers_each_column_once(self, form, monkeypatch):
        """A cold fill reads every event's interest column once, not once
        per interval (``n_intervals * n_events`` reads at 90 x 120)."""
        instance = make_random_instance(
            seed=901, n_events=6, n_intervals=4, interest_input=form
        )
        gathered = []
        original = InterestMatrix.event_column_entries

        def counting(self, event):
            gathered.append(event)
            return original(self, event)

        monkeypatch.setattr(InterestMatrix, "event_column_entries", counting)
        ScorePlane(EngineSpec().build(instance)).ensure()
        assert sorted(gathered) == list(range(instance.n_events))


class TestDirtyRows:
    def test_mark_dirty_rescoring_only_that_row(self):
        _, __, plane = build_plane()
        plane.ensure()
        plane.mark_dirty(2)
        assert plane.dirty_intervals == frozenset({2})
        plane.ensure()
        assert plane.dirty_intervals == frozenset()
        assert plane.cells_refreshed == plane.n_events  # one row

    def test_dirty_row_reflects_engine_state_changes(self):
        instance, engine, _ = build_plane()
        plane = ScorePlane(engine, auto_reset=False)
        plane.ensure()
        engine.assign(0, 1)
        plane.on_assign(0, 1)
        matrix = plane.ensure()
        assert np.all(np.isneginf(matrix[:, 0]))  # consumed column
        # the contested row was re-scored against the new mass state
        fresh = engine.scores_for_interval(
            1, [e for e in range(instance.n_events) if e != 0]
        )
        np.testing.assert_array_equal(
            matrix[1, [e for e in range(instance.n_events) if e != 0]], fresh
        )

    def test_on_unassign_restores_column(self):
        instance, engine, _ = build_plane()
        plane = ScorePlane(engine, auto_reset=False)
        plane.ensure()
        engine.assign(0, 1)
        plane.on_assign(0, 1)
        plane.ensure()
        engine.unassign(0)
        plane.on_unassign(0, 1)
        matrix = plane.ensure()
        np.testing.assert_array_equal(matrix, cold_matrix(instance))


class TestAutoReset:
    def test_leftover_solve_schedule_is_reset_on_read(self):
        _, engine, plane = build_plane()
        before = plane.ensure().copy()
        engine.assign(2, 0)  # a batch solve ran through the plane's engine
        after = plane.ensure()
        assert len(engine.schedule) == 0  # auto-reset restored the baseline
        np.testing.assert_array_equal(before, after)

    def test_schedule_relative_plane_never_resets(self):
        _, engine, __ = build_plane()
        plane = ScorePlane(engine, auto_reset=False)
        plane.ensure()
        engine.assign(2, 0)
        plane.on_assign(2, 0)
        plane.ensure()
        assert len(engine.schedule) == 1  # the maintained schedule survives


@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("form", INTEREST_INPUTS)
class TestLiveDeltas:
    def build_live(self, form, kind):
        instance = make_random_instance(
            seed=901, n_events=6, n_intervals=4, interest_input=form
        )
        live = LiveInstance(instance)
        engine = EngineSpec(kind=kind).build(live)
        return live, ScorePlane(engine)

    def check_current(self, live, plane, kind):
        """The ensured matrix equals a cold fill by a fresh engine."""
        fresh = EngineSpec(kind=kind).build(live)
        all_events = list(range(live.n_events))
        expected = np.vstack(
            [
                fresh.scores_for_interval(interval, all_events)
                for interval in range(live.n_intervals)
            ]
        )
        np.testing.assert_allclose(plane.ensure(), expected, atol=1e-12)

    def test_event_added(self, form, kind):
        live, plane = self.build_live(form, kind)
        plane.ensure()
        column = np.zeros(live.n_users)
        column[:3] = 0.5
        delta = live.add_event(
            CandidateEvent(
                index=live.n_events, location=99, required_resources=1.0
            ),
            column,
        )
        plane.apply_delta(delta)
        assert plane.ensure().shape[1] == live.n_events
        self.check_current(live, plane, kind)

    def test_event_removed(self, form, kind):
        live, plane = self.build_live(form, kind)
        plane.ensure()
        delta = live.remove_event(2)
        plane.apply_delta(delta)
        assert plane.ensure().shape[1] == live.n_events
        self.check_current(live, plane, kind)

    def test_interest_replaced(self, form, kind):
        live, plane = self.build_live(form, kind)
        plane.ensure()
        column = np.zeros(live.n_users)
        column[1::2] = 0.25
        plane.apply_delta(live.replace_event_interest(3, column))
        self.check_current(live, plane, kind)

    def test_competing_added_dirties_only_its_interval(self, form, kind):
        live, plane = self.build_live(form, kind)
        plane.ensure()
        column = np.zeros(live.n_users)
        column[::2] = 0.75
        delta = live.add_competing(
            CompetingEvent(index=live.n_competing, interval=1), column
        )
        plane.apply_delta(delta)
        assert plane.dirty_intervals == frozenset({1})
        self.check_current(live, plane, kind)

    def test_warm_maintenance_beats_cold_refill(self, form, kind):
        """A delta stream must re-score strictly fewer cells than the
        equivalent sequence of cold fills."""
        live, plane = self.build_live(form, kind)
        plane.ensure()
        cold_cells = plane.cells_filled
        column = np.zeros(live.n_users)
        column[0] = 0.9
        for interval in range(3):
            delta = live.add_competing(
                CompetingEvent(index=live.n_competing, interval=interval),
                column,
            )
            plane.apply_delta(delta)
            plane.ensure()
        assert plane.cells_refreshed < 3 * cold_cells
        assert plane.fills == 1


class TestArrivalsStayWarm:
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_many_arrivals_keep_warm_equal_to_cold(self, form):
        """A cell's value never depends on the live event count or the
        query's batch size, so a long run of arrivals never forces a
        refill and the warm matrix stays bit-identical to a cold one."""
        instance = make_random_instance(
            seed=905, n_users=500, n_events=20, n_intervals=4,
            interest_input=form,
        )
        live = LiveInstance(instance)
        plane = ScorePlane(EngineSpec().build(live))
        plane.ensure()
        column = np.zeros(live.n_users)
        column[:50] = 0.5
        for index in range(13):  # 20 -> 33 events crosses 32
            delta = live.add_event(
                CandidateEvent(
                    index=live.n_events,
                    location=100 + index,
                    required_resources=1.0,
                ),
                column,
            )
            plane.apply_delta(delta)
        warm = plane.ensure()
        fresh = EngineSpec().build(live)
        cold = np.vstack(
            [
                fresh.scores_for_interval(t, list(range(live.n_events)))
                for t in range(live.n_intervals)
            ]
        )
        np.testing.assert_array_equal(warm, cold)
        assert plane.fills == 1  # no arrival invalidated the plane


class TestSeedFrom:
    def test_seed_copies_and_stays_independent(self):
        instance, engine, plane = build_plane()
        other = ScorePlane(EngineSpec().build(instance))
        plane.ensure()
        other.seed_from(plane)
        np.testing.assert_array_equal(other.array, plane.array)
        other.array[0, 0] = 123.0
        assert plane.array[0, 0] != 123.0
