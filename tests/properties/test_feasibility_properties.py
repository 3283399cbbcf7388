"""Property tests: the incremental checker agrees with the one-shot check.

The :class:`FeasibilityChecker` maintains per-interval state move by move;
:func:`is_schedule_feasible` re-derives everything from scratch.  Any
divergence between them means solvers (which trust the checker) and
validators (which trust the one-shot check) would disagree about the same
schedule — so we pin them to each other over random build histories,
including interleaved removals.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivityModel,
    CandidateEvent,
    InterestMatrix,
    Organizer,
    SESInstance,
    TimeInterval,
    User,
)
from repro.core.feasibility import FeasibilityChecker, is_schedule_feasible
from repro.core.live import LiveInstance, arrival_event
from repro.core.schedule import Assignment, Schedule

from tests.properties.conftest import ses_instances

COMMON = settings(max_examples=50, deadline=None)


@given(
    instance=ses_instances(),
    seed=st.integers(0, 2**20),
    churn=st.floats(0.0, 0.5),
)
@COMMON
def test_checker_matches_oneshot_under_random_histories(instance, seed, churn):
    """Build a schedule via random valid moves (with removals); states agree."""
    rng = np.random.default_rng(seed)
    checker = FeasibilityChecker(instance)
    schedule = Schedule(instance)

    for _ in range(3 * instance.n_events):
        remove = schedule.scheduled_events() and rng.random() < churn
        if remove:
            victim = int(rng.choice(sorted(schedule.scheduled_events())))
            removed = schedule.remove(victim)
            checker.unapply(removed)
        else:
            event = int(rng.integers(instance.n_events))
            interval = int(rng.integers(instance.n_intervals))
            assignment = Assignment(event, interval)
            if checker.is_valid(assignment):
                checker.apply(assignment)
                schedule.add(assignment)
        # invariant: everything the checker accepted is one-shot feasible
        assert is_schedule_feasible(instance, schedule)

    # final cross-check: the checker's validity verdicts are consistent
    # with actually attempting the addition
    for event in range(instance.n_events):
        if schedule.contains_event(event):
            continue
        for interval in range(instance.n_intervals):
            assignment = Assignment(event, interval)
            if checker.is_valid(assignment):
                grown = schedule.copy()
                grown.add(assignment)
                assert is_schedule_feasible(instance, grown)
            break  # one interval per event bounds runtime


@given(instance=ses_instances(), seed=st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_checker_rebuild_equals_incremental_state(instance, seed):
    """A checker rebuilt from the final schedule behaves identically."""
    rng = np.random.default_rng(seed)
    incremental = FeasibilityChecker(instance)
    schedule = Schedule(instance)
    for _ in range(2 * instance.n_events):
        event = int(rng.integers(instance.n_events))
        interval = int(rng.integers(instance.n_intervals))
        assignment = Assignment(event, interval)
        if incremental.is_valid(assignment):
            incremental.apply(assignment)
            schedule.add(assignment)

    rebuilt = FeasibilityChecker(instance, schedule)
    for event in range(instance.n_events):
        for interval in range(instance.n_intervals):
            assignment = Assignment(event, interval)
            assert incremental.is_valid(assignment) == rebuilt.is_valid(
                assignment
            )
    for interval in range(instance.n_intervals):
        assert incremental.remaining_resources(interval) == (
            rebuilt.remaining_resources(interval)
        )


#: Capacity and resources: ``0.1 + 0.2`` is ``0.30000000000000004``, an
#: ulp past the capacity, so fits that hold only within the tolerance
#: are common.
_THETA, _XI = 0.3, (0.1, 0.2, 0.3)


def probe_state(seed: int, n_events: int, n_intervals: int, n_locations: int):
    """``(live, checker, features)``: a checker built over a live instance
    with a random history, after which the instance gained and lost
    unscheduled events.  ``features`` names what the state holds."""
    rng = np.random.default_rng(seed)
    instance = SESInstance(
        [User(index=0), User(index=1)],
        [TimeInterval(index=t) for t in range(n_intervals)],
        [
            CandidateEvent(
                index=e,
                location=int(rng.integers(n_locations)),
                required_resources=float(rng.choice(_XI)),
            )
            for e in range(n_events)
        ],
        [],
        InterestMatrix.from_arrays(rng.uniform(0.0, 1.0, (2, n_events))),
        ActivityModel.constant(2, n_intervals),
        Organizer(resources=_THETA),
    )
    live = LiveInstance(instance)
    checker = FeasibilityChecker(live)
    schedule = Schedule(live)
    for _ in range(3 * n_events):
        if len(schedule) and rng.random() < 0.2:
            victim = int(rng.choice(sorted(schedule.scheduled_events())))
            checker.unapply(schedule.remove(victim))
            continue
        assignment = Assignment(
            int(rng.integers(n_events)), int(rng.integers(n_intervals))
        )
        if checker.is_valid(assignment):
            checker.apply(assignment)
            schedule.add(assignment)
    features = set()
    for _ in range(int(rng.integers(0, 3))):
        location, xi = int(rng.integers(n_locations)), float(rng.choice(_XI))
        live.add_event(arrival_event(live, location, xi), rng.uniform(0, 1, 2))
        features.add("gained")
    # the checker tracks events by index, so only unscheduled events past
    # every scheduled one may go
    first_free = max(schedule.scheduled_events(), default=-1) + 1
    for _ in range(int(rng.integers(0, 3))):
        if first_free < live.n_events:
            live.remove_event(int(rng.integers(first_free, live.n_events)))
            features.add("lost")
    for event, candidate in enumerate(live.events):
        for interval in range(n_intervals):
            cell = Assignment(event, interval)
            if checker.is_event_assigned(event):
                features.add("assigned")
            elif checker.is_valid(cell) and (
                checker.remaining_resources(interval) < candidate.required_resources
            ):
                # it fits only within the tolerance
                features.add("exact fit")
            elif any(
                live.events[other].location == candidate.location
                for other in schedule.events_at(interval)
            ):
                features.add("occupied")
    return live, checker, features


@given(
    seed=st.integers(0, 2**20),
    n_events=st.integers(1, 8),
    n_intervals=st.integers(1, 4),
    n_locations=st.integers(1, 4),
)
@COMMON
def test_vector_probes_equal_scalar_probes(seed, n_events, n_intervals, n_locations):
    """``valid_events`` and ``valid_intervals`` answer ``is_valid`` cell
    for cell, in any event order, on a live instance that changed since
    the checker was built."""
    live, checker, _ = probe_state(seed, n_events, n_intervals, n_locations)
    rng = np.random.default_rng(seed + 1)
    events = rng.permutation(live.n_events)
    for interval in range(n_intervals):
        expected = [checker.is_valid(Assignment(int(e), interval)) for e in events]
        assert checker.valid_events(interval, events).tolist() == expected
    for event in range(live.n_events):
        expected = [
            checker.is_valid(Assignment(event, t)) for t in range(n_intervals)
        ]
        assert checker.valid_intervals(event).tolist() == expected


def test_probe_states_hold_every_feature():
    """The states above include an exact-capacity fit within the
    tolerance, an occupied location, an assigned event, and a live
    instance that gained and one that lost events."""
    features = set()
    for seed in range(40):
        features |= probe_state(seed, 8, 3, 3)[2]
    assert features == {"exact fit", "occupied", "assigned", "gained", "lost"}
