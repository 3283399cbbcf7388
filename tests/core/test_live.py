"""Unit tests of the mutable live-instance layer (repro.core.live)."""

import numpy as np
import pytest

from repro.core.engine import EngineSpec, make_engine
from repro.core.entities import CandidateEvent, CompetingEvent
from repro.core.errors import InstanceValidationError, UnknownEntityError
from repro.core.live import (
    CompetingAdded,
    EventAdded,
    EventInterestReplaced,
    EventRemoved,
    LiveInstance,
    LiveInterest,
)

from tests.conftest import INTEREST_INPUTS, make_random_instance


def make_live(form: str = "array", seed: int = 500) -> LiveInstance:
    instance = make_random_instance(
        seed=seed, n_users=12, n_events=5, n_intervals=3,
        interest_input=form,
    )
    return LiveInstance(instance)


class TestReadSurface:
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_mirrors_source_instance(self, form):
        live = make_live(form)
        source = live.freeze()  # pre-mutation: the source itself
        assert live.n_users == source.n_users
        assert live.n_events == source.n_events
        assert live.n_competing == source.n_competing
        assert live.theta == source.theta
        assert list(live.events) == list(source.events)
        assert [list(g) for g in live.competing_by_interval] == [
            list(g) for g in source.competing_by_interval
        ]
        assert np.array_equal(live.competing_mass, source.competing_mass)

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_interest_accessor_parity(self, form):
        live = make_live(form)
        matrix = live.freeze().interest
        interest = live.interest
        assert np.array_equal(interest.candidate, matrix.candidate)
        assert np.array_equal(interest.competing, matrix.competing)
        for event in range(matrix.n_events):
            rows, values = interest.event_column_entries(event)
            expected_rows, expected_values = matrix.event_column_entries(event)
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(values, expected_values)
            assert np.array_equal(
                interest.event_column(event), matrix.event_column(event)
            )
            assert interest.mu_event(3, event) == matrix.mu_event(3, event)
        for rival in range(matrix.n_competing):
            assert np.array_equal(
                interest.competing_column(rival),
                matrix.competing_column(rival),
            )
            assert interest.mu_competing(5, rival) == matrix.mu_competing(
                5, rival
            )
        assert interest.nnz_candidate() == matrix.nnz_candidate()


class TestMutators:
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_add_event_appends_column(self, form):
        live = make_live(form)
        column = np.zeros(live.n_users)
        column[[1, 4]] = [0.5, 0.25]
        event = CandidateEvent(index=live.n_events, location=7,
                               required_resources=1.0, name="new")
        delta = live.add_event(event, column)
        assert isinstance(delta, EventAdded)
        assert delta.event == event.index
        assert np.array_equal(delta.rows, [1, 4])
        assert live.n_events == 6
        assert np.array_equal(live.interest.event_column(5), column)
        frozen = live.freeze()
        assert frozen.events[-1] == event
        assert np.array_equal(frozen.interest.event_column(5), column)

    def test_add_event_validates_index_and_resources(self):
        live = make_live()
        column = np.zeros(live.n_users)
        with pytest.raises(InstanceValidationError, match="index"):
            live.add_event(
                CandidateEvent(index=0, location=1, required_resources=1.0),
                column,
            )
        with pytest.raises(InstanceValidationError, match="could never"):
            live.add_event(
                CandidateEvent(
                    index=live.n_events, location=1,
                    required_resources=live.theta + 1.0,
                ),
                column,
            )

    def test_column_validation(self):
        live = make_live()
        event = CandidateEvent(index=live.n_events, location=1,
                               required_resources=1.0)
        with pytest.raises(ValueError, match="shape"):
            live.add_event(event, np.zeros(3))
        with pytest.raises(ValueError, match="NaN"):
            live.add_event(event, np.full(live.n_users, np.nan))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            live.add_event(event, np.full(live.n_users, 1.5))

    @pytest.mark.parametrize(
        "column", ["short", "nan", "above-one"]
    )
    def test_column_failures_are_typed(self, column):
        live = make_live()
        event = CandidateEvent(index=live.n_events, location=1,
                               required_resources=1.0)
        values = {
            "short": np.zeros(3),
            "nan": np.full(live.n_users, np.nan),
            "above-one": np.full(live.n_users, 1.5),
        }[column]
        with pytest.raises(InstanceValidationError):
            live.add_event(event, values)

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_remove_event_renumbers(self, form):
        live = make_live(form)
        survivor_columns = [
            live.interest.event_column(event)
            for event in range(live.n_events)
            if event != 2
        ]
        delta = live.remove_event(2)
        assert isinstance(delta, EventRemoved) and delta.event == 2
        assert live.n_events == 4
        assert [event.index for event in live.events] == [0, 1, 2, 3]
        for event, column in enumerate(survivor_columns):
            assert np.array_equal(live.interest.event_column(event), column)

    def test_remove_unknown_event_rejected(self):
        live = make_live()
        with pytest.raises(UnknownEntityError, match="no candidate event"):
            live.remove_event(99)

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_replace_event_interest_reports_old_and_new(self, form):
        live = make_live(form)
        old = live.interest.event_column(1).copy()
        column = np.zeros(live.n_users)
        column[0] = 0.75
        delta = live.replace_event_interest(1, column)
        assert isinstance(delta, EventInterestReplaced)
        assert np.array_equal(
            _dense(delta.old_rows, delta.old_values, live.n_users), old
        )
        assert np.array_equal(live.interest.event_column(1), column)

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_add_competing_updates_groups_and_mass(self, form):
        live = make_live(form)
        column = np.zeros(live.n_users)
        column[3] = 0.6
        rival = CompetingEvent(index=live.n_competing, interval=1, name="r")
        delta = live.add_competing(rival, column)
        assert isinstance(delta, CompetingAdded)
        assert rival.index in live.competing_by_interval[1]
        # the live K_t view must equal the frozen snapshot's
        assert np.array_equal(
            live.competing_mass, live.freeze().competing_mass
        )

    def test_add_competing_validates_interval(self):
        live = make_live()
        with pytest.raises(InstanceValidationError, match="interval"):
            live.add_competing(
                CompetingEvent(index=live.n_competing, interval=99),
                np.zeros(live.n_users),
            )


class TestFreeze:
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_freeze_counts_and_caches(self, form):
        live = make_live(form)
        source = live.freeze()
        assert live.freezes == 0  # the source doubles as the first snapshot
        live.remove_event(0)
        assert live.mutations == 1
        first = live.freeze()
        assert first is not source and live.freezes == 1
        assert live.freeze() is first
        assert live.freezes == 1

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_snapshots_share_the_side_no_write_touched(self, form):
        """A freeze rebuilds only the interest side a write changed; the
        other side is the previous snapshot's storage, not a copy."""
        live = make_live(form)
        source = live.freeze().interest
        live.remove_event(0)
        cancelled = live.freeze().interest
        assert cancelled.competing_sparse is source.competing_sparse
        assert cancelled.candidate_sparse is not source.candidate_sparse
        column = np.zeros(live.n_users)
        column[3] = 0.6
        live.add_competing(
            CompetingEvent(index=live.n_competing, interval=1), column
        )
        rivalled = live.freeze().interest
        assert rivalled.candidate_sparse is cancelled.candidate_sparse
        assert rivalled.competing_sparse is not cancelled.competing_sparse
        np.testing.assert_array_equal(
            rivalled.candidate, np.delete(source.candidate, 0, axis=1)
        )
        np.testing.assert_array_equal(
            rivalled.competing, np.column_stack([source.competing, column])
        )

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_frozen_instance_serves_engines(self, form):
        live = make_live(form)
        live.remove_event(1)
        frozen = live.freeze()
        engine = make_engine(frozen, EngineSpec())
        engine.assign(0, 0)
        assert engine.total_utility() >= 0.0


class TestEngineDeltaGuards:
    def test_removing_scheduled_event_requires_unassign(self):
        live = make_live()
        engine = EngineSpec().build(live)
        engine.assign(2, 0)
        delta = live.remove_event(2)
        with pytest.raises(ValueError, match="unassign"):
            engine.apply_delta(delta)

    def test_unknown_delta_rejected(self):
        live = make_live()
        engine = EngineSpec().build(live)
        with pytest.raises(TypeError, match="unknown live delta"):
            engine.apply_delta(object())

    def test_schedule_mirror_renumbered_after_removal(self):
        live = make_live()
        engine = EngineSpec().build(live)
        engine.assign(1, 0)
        engine.assign(4, 2)
        live.remove_event(2)
        engine.apply_delta(EventRemoved(event=2))
        assert engine.schedule.as_mapping() == {1: 0, 3: 2}


def _dense(rows, values, n_users):
    out = np.zeros(n_users)
    out[rows] = values
    return out


class TestLiveInterestGrowth:
    """The per-column entry lists take many appends and removals cleanly."""

    def test_many_appends_then_freeze(self):
        live = make_live()
        for index in range(12):
            column = np.zeros(live.n_users)
            column[index % live.n_users] = 0.5
            live.add_event(
                CandidateEvent(
                    index=live.n_events, location=50 + index,
                    required_resources=0.5, name=f"a{index}",
                ),
                column,
            )
        assert live.n_events == 17
        frozen = live.freeze()
        assert frozen.n_events == 17
        assert frozen.interest.n_events == 17

    def test_interleaved_appends_and_removals(self):
        live = make_live()
        for index in range(6):
            live.add_event(
                CandidateEvent(
                    index=live.n_events, location=50 + index,
                    required_resources=0.5,
                ),
                np.full(live.n_users, 0.1 * (index + 1)),
            )
            live.remove_event(0)
        assert live.n_events == 5
        # the surviving columns are the appended ones, oldest first
        assert live.interest.event_column(0)[0] == pytest.approx(0.2)
        assert live.freeze().n_events == 5
