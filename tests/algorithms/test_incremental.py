"""Tests of the incremental/online SES scheduler."""

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyScheduler
from repro.algorithms.incremental import IncrementalScheduler
from repro.core.engine import EngineSpec, SparseEngine
from repro.core.errors import InfeasibleAssignmentError, UnknownEntityError
from repro.core.feasibility import FeasibilityChecker, is_schedule_feasible

from tests.conftest import make_random_instance


@pytest.fixture
def scheduler():
    instance = make_random_instance(seed=400, n_events=6, n_intervals=4)
    return IncrementalScheduler(instance, k=4)


class TestInitialState:
    def test_initial_fill_matches_greedy_utility(self):
        instance = make_random_instance(seed=401)
        incremental = IncrementalScheduler(instance, k=4)
        greedy = GreedyScheduler().solve(instance, 4)
        assert incremental.utility() == pytest.approx(greedy.utility, abs=1e-9)

    def test_initial_schedule_feasible(self, scheduler):
        assert is_schedule_feasible(scheduler.instance, scheduler.schedule)
        assert len(scheduler.schedule) == 4

    def test_negative_k_rejected(self):
        instance = make_random_instance(seed=402)
        with pytest.raises(ValueError, match="non-negative"):
            IncrementalScheduler(instance, k=-1)


class TestEventArrival:
    def test_irresistible_arrival_gets_scheduled(self, scheduler):
        """An event everyone loves must displace something."""
        before = scheduler.utility()
        index = scheduler.add_candidate_event(
            location=99,  # fresh location: no conflicts
            required_resources=0.5,
            interest_column=np.ones(scheduler.instance.n_users),
            name="superstar",
        )
        assert scheduler.schedule.contains_event(index)
        assert scheduler.utility() > before
        assert is_schedule_feasible(scheduler.instance, scheduler.schedule)

    def test_worthless_arrival_changes_nothing(self, scheduler):
        before_mapping = scheduler.schedule.as_mapping()
        before_utility = scheduler.utility()
        index = scheduler.add_candidate_event(
            location=99,
            required_resources=0.5,
            interest_column=np.zeros(scheduler.instance.n_users),
            name="dud",
        )
        assert not scheduler.schedule.contains_event(index)
        assert scheduler.schedule.as_mapping() == before_mapping
        assert scheduler.utility() == pytest.approx(before_utility, abs=1e-9)

    def test_arrival_fills_headroom_first(self):
        instance = make_random_instance(seed=403, n_events=3, n_intervals=4)
        incremental = IncrementalScheduler(instance, k=4)  # only 3 events exist
        assert len(incremental.schedule) == 3
        index = incremental.add_candidate_event(
            location=99,
            required_resources=1.0,
            interest_column=np.full(instance.n_users, 0.4),
        )
        assert incremental.schedule.contains_event(index)
        assert len(incremental.schedule) == 4

    def test_bad_interest_shape_rejected(self, scheduler):
        with pytest.raises(ValueError, match="shape"):
            scheduler.add_candidate_event(
                location=0, required_resources=1.0,
                interest_column=np.ones(3),
            )


class TestDisplacementProbes:
    """An arrival at budget probes feasibility once per interval and a
    few times per victim, not once per victim and interval."""

    def test_arrival_probes_grow_with_victims_plus_intervals(self, monkeypatch):
        instance = make_random_instance(
            seed=403, n_users=30, n_events=16, n_intervals=24, n_locations=6
        )
        scheduler = IncrementalScheduler(instance, k=8)
        victims = len(scheduler.schedule)
        assert victims == 8
        probes = {"scalar": 0, "cells": 0}
        is_feasible = FeasibilityChecker.is_feasible
        valid_intervals = FeasibilityChecker.valid_intervals

        def count_scalar(checker, assignment):
            probes["scalar"] += 1
            return is_feasible(checker, assignment)

        def count_cells(checker, event):
            mask = valid_intervals(checker, event)
            probes["cells"] += mask.size
            return mask

        monkeypatch.setattr(FeasibilityChecker, "is_feasible", count_scalar)
        monkeypatch.setattr(FeasibilityChecker, "valid_intervals", count_cells)
        index = scheduler.add_candidate_event(
            location=99,
            required_resources=1.0,
            interest_column=np.ones(instance.n_users),
        )
        assert scheduler.schedule.contains_event(index)
        # per victim: the withdrawn home probe, the rehearsal's own
        # apply and the re-probe after it; one commit; one vector probe
        assert probes["scalar"] <= 3 * victims + 1
        assert probes["cells"] == instance.n_intervals
        assert sum(probes.values()) < victims * instance.n_intervals / 2


class TestCancellation:
    def test_cancelled_event_disappears_and_budget_refills(self, scheduler):
        victim = next(iter(scheduler.schedule.scheduled_events()))
        n_events_before = scheduler.instance.n_events
        scheduler.cancel_event(victim)
        assert scheduler.instance.n_events == n_events_before - 1
        # 6 events, 4 budget: after losing one, refill should restore size 4
        assert len(scheduler.schedule) == 4
        assert is_schedule_feasible(scheduler.instance, scheduler.schedule)

    def test_cancel_unscheduled_candidate(self, scheduler):
        unscheduled = [
            e for e in range(scheduler.instance.n_events)
            if not scheduler.schedule.contains_event(e)
        ]
        before_utility = scheduler.utility()
        scheduler.cancel_event(unscheduled[0])
        assert scheduler.utility() >= before_utility - 1e-9

    def test_cancel_unknown_event_rejected(self, scheduler):
        with pytest.raises(UnknownEntityError, match="no candidate event"):
            scheduler.cancel_event(999)


class TestCompetitionArrival:
    def test_new_rival_lowers_or_keeps_utility(self, scheduler):
        before = scheduler.utility()
        target = next(iter(scheduler.schedule.used_intervals()))
        scheduler.add_competing_event(
            interval=target,
            interest_column=np.full(scheduler.instance.n_users, 0.9),
        )
        # relocation may dodge some damage but cannot profit from a rival
        assert scheduler.utility() <= before + 1e-9
        assert is_schedule_feasible(scheduler.instance, scheduler.schedule)

    def test_events_can_flee_contested_interval(self):
        instance = make_random_instance(
            seed=404, n_events=4, n_intervals=4, n_competing=0,
            n_locations=4,
        )
        incremental = IncrementalScheduler(instance, k=2)
        target = next(iter(incremental.schedule.used_intervals()))
        occupants_before = set(incremental.schedule.events_at(target))
        incremental.add_competing_event(
            interval=target,
            interest_column=np.ones(instance.n_users),
        )
        occupants_after = set(incremental.schedule.events_at(target))
        # with an overwhelming rival, staying is dominated whenever another
        # interval is free — occupants must not have grown
        assert occupants_after <= occupants_before


class TestInterestDrift:
    def test_drift_on_unknown_event_rejected(self, scheduler):
        with pytest.raises(UnknownEntityError, match="no candidate event"):
            scheduler.update_event_interest(
                99, np.zeros(scheduler.instance.n_users)
            )

    def test_bad_drift_shape_rejected(self, scheduler):
        with pytest.raises(ValueError, match="shape"):
            scheduler.update_event_interest(0, np.ones(3))

    def test_drift_changes_reported_utility(self, scheduler):
        victim = next(iter(scheduler.schedule.scheduled_events()))
        before = scheduler.utility()
        scheduler.update_event_interest(
            victim, np.zeros(scheduler.instance.n_users)
        )
        # the drifted event now attracts nobody: utility must drop
        assert scheduler.utility() < before
        assert is_schedule_feasible(scheduler.instance, scheduler.schedule)

    def test_hot_drift_can_pull_event_into_schedule(self):
        instance = make_random_instance(seed=405, n_events=3, n_intervals=4)
        incremental = IncrementalScheduler(instance, k=4)  # headroom remains
        outsider = incremental.add_candidate_event(
            location=99,
            required_resources=0.5,
            interest_column=np.zeros(instance.n_users),
            maintain=False,
        )
        assert not incremental.schedule.contains_event(outsider)
        incremental.update_event_interest(
            outsider, np.ones(incremental.instance.n_users)
        )
        assert incremental.schedule.contains_event(outsider)


class TestRepairOnlyMode:
    """maintain=False applies the structural change without upkeep."""

    def test_arrival_without_maintenance_stays_unscheduled(self, scheduler):
        index = scheduler.add_candidate_event(
            location=99,
            required_resources=0.5,
            interest_column=np.ones(scheduler.instance.n_users),
            maintain=False,
        )
        assert scheduler.instance.n_events == 7
        assert not scheduler.schedule.contains_event(index)

    def test_cancel_without_maintenance_leaves_slot_empty(self, scheduler):
        victim = next(iter(scheduler.schedule.scheduled_events()))
        scheduler.cancel_event(victim, maintain=False)
        assert len(scheduler.schedule) == 3
        assert is_schedule_feasible(scheduler.instance, scheduler.schedule)

    def test_budget_raise_without_maintenance_defers_fill(self, scheduler):
        scheduler.raise_budget(6, maintain=False)
        assert len(scheduler.schedule) == 4
        scheduler.raise_budget(6)  # maintained: fills the headroom now
        assert len(scheduler.schedule) == 6


class TestAdopt:
    def test_adopt_replaces_schedule_wholesale(self, scheduler):
        greedy = GreedyScheduler().solve(scheduler.instance, 2)
        scheduler.adopt(greedy.schedule)
        assert scheduler.schedule.as_mapping() == greedy.schedule.as_mapping()
        assert scheduler.utility() == pytest.approx(greedy.utility, abs=1e-9)

    def test_adopt_accepts_plain_mappings(self, scheduler):
        mapping = dict(list(scheduler.schedule.as_mapping().items())[:2])
        scheduler.adopt(mapping)
        assert scheduler.schedule.as_mapping() == mapping

    def test_adopt_validates_feasibility(self, scheduler):
        events = scheduler.instance.events
        twin_location = [
            (a.index, b.index)
            for a in events
            for b in events
            if a.index < b.index and a.location == b.location
        ]
        if not twin_location:
            pytest.skip("no co-located event pair in this instance")
        first, second = twin_location[0]
        with pytest.raises(InfeasibleAssignmentError):
            scheduler.adopt({first: 0, second: 0})

    def test_rejected_adopt_leaves_state_untouched(self, scheduler):
        """Adoption is atomic: a rejected mapping must not leave a
        half-applied schedule behind."""
        before_mapping = scheduler.schedule.as_mapping()
        before_utility = scheduler.utility()
        events = scheduler.instance.events
        twin_location = [
            (a.index, b.index)
            for a in events
            for b in events
            if a.index < b.index and a.location == b.location
        ]
        if not twin_location:
            pytest.skip("no co-located event pair in this instance")
        first, second = twin_location[0]
        with pytest.raises(InfeasibleAssignmentError):
            scheduler.adopt({first: 0, second: 0})
        assert scheduler.schedule.as_mapping() == before_mapping
        assert scheduler.utility() == before_utility


class TestEngineSpecSurvival:
    """Regression: structural rebuilds must preserve the configured
    engine spec AND CSC interest storage (a sparse instance once silently
    reverted to dense on the first arrival)."""

    def make_sparse_scheduler(self, **kwargs):
        instance = make_random_instance(seed=406, n_events=6, n_intervals=4)
        return IncrementalScheduler(
            instance, k=4, engine=EngineSpec(kind="sparse"), **kwargs
        )

    def ops(self, scheduler):
        n_users = scheduler.instance.n_users
        yield "arrival", lambda: scheduler.add_candidate_event(
            location=99, required_resources=0.5,
            interest_column=np.full(n_users, 0.3),
        )
        yield "cancel", lambda: scheduler.cancel_event(0)
        yield "rival", lambda: scheduler.add_competing_event(
            interval=1, interest_column=np.full(n_users, 0.4)
        )
        yield "drift", lambda: scheduler.update_event_interest(
            1, np.full(n_users, 0.2)
        )

    def test_csc_storage_and_engine_survive_every_structural_op(self):
        scheduler = self.make_sparse_scheduler()
        spec = scheduler.engine_spec
        for label, op in self.ops(scheduler):
            op()
            interest = scheduler.instance.interest
            assert interest.candidate_sparse.format == "csc", label
            assert interest.competing_sparse.format == "csc", label
            assert isinstance(scheduler._engine, SparseEngine), label
            assert scheduler.engine_spec is spec, label

    def test_arrival_column_is_stored_as_csc(self):
        instance = make_random_instance(seed=407, n_events=6, n_intervals=4)
        scheduler = IncrementalScheduler(instance, k=3)
        scheduler.add_candidate_event(
            location=99, required_resources=0.5,
            interest_column=np.full(instance.n_users, 0.3),
        )
        arrived = scheduler.instance.interest.candidate_sparse[:, -1]
        assert arrived.format == "csc" and arrived.nnz == instance.n_users

    def test_coo_input_matches_array_trajectory(self):
        """The same op sequence yields the same bits whichever form ``mu``
        was handed in."""
        instances = [
            make_random_instance(
                seed=408, n_events=6, n_intervals=4, interest_input=form
            )
            for form in ("array", "coo")
        ]
        schedulers = [IncrementalScheduler(inst, k=4) for inst in instances]
        column = np.linspace(0.1, 0.9, instances[0].n_users)
        for live in schedulers:
            live.add_candidate_event(
                location=99, required_resources=0.5, interest_column=column
            )
            live.cancel_event(2)
            live.add_competing_event(interval=0, interest_column=column)
            live.update_event_interest(1, column[::-1].copy())
        array, coo = schedulers
        assert array.schedule.as_mapping() == coo.schedule.as_mapping()
        assert array.utility().hex() == coo.utility().hex()


class TestBudget:
    def test_raise_budget_fills(self, scheduler):
        scheduler.raise_budget(6)
        assert len(scheduler.schedule) == 6

    def test_budget_cannot_shrink(self, scheduler):
        with pytest.raises(ValueError, match="only grow"):
            scheduler.raise_budget(1)

    def test_rebuild_never_loses_to_incremental_state(self, scheduler):
        scheduler.add_candidate_event(
            location=99, required_resources=0.5,
            interest_column=np.full(scheduler.instance.n_users, 0.7),
        )
        incremental_utility = scheduler.utility()
        scheduler.rebuild()
        assert scheduler.utility() >= incremental_utility - 1e-9
