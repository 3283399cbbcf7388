"""Organizer locks under live change streams, across maintenance policies.

The streaming contract: locks handed to :class:`StreamDriver` (or
either session kind's ``stream``) bind every intermediate and final schedule,
whatever maintenance policy absorbs the ops — incremental repair,
periodic batch rebuilds, or the hybrid.  Cancels renumber the event axis,
and the locks renumber with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.incremental import IncrementalScheduler
from repro.api import ScheduleSession
from repro.core.errors import LockError
from repro.interactive import LockSet
from repro.serve import ServingSession
from repro.stream import POLICY_NAMES, StreamDriver, Trace
from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    DriftInterest,
    RaiseBudget,
)

from tests.conftest import make_random_instance

K = 3


@pytest.fixture
def instance():
    return make_random_instance(seed=99, n_events=8, n_intervals=5)


def churn_trace(instance, *, with_cancel_below=None):
    """A small but varied trace; optionally cancels one low event index."""
    rng = np.random.default_rng(5)

    def entries():
        return tuple(
            (int(u), float(rng.uniform(0.2, 1.0)))
            for u in rng.choice(instance.n_users, size=4, replace=False)
        )

    ops = [
        DriftInterest(time=0.0, event=2, interest=entries()),
        ArriveCandidate(
            time=1.0, location=0, required_resources=1.5, interest=entries()
        ),
        AnnounceRival(time=2.0, interval=1, interest=entries()),
        RaiseBudget(time=3.0, new_k=K + 1),
        DriftInterest(time=4.0, event=5, interest=entries()),
    ]
    if with_cancel_below is not None:
        ops.insert(2, CancelEvent(time=1.5, event=with_cancel_below))
    return Trace(
        ops=tuple(ops),
        n_users=instance.n_users,
        initial_k=K,
        n_events=instance.n_events,
        n_intervals=instance.n_intervals,
    )


def feasible_locks(instance):
    """Pin one greedy-proven assignment; forbid another draft cell."""
    from repro.algorithms.registry import solver_registry

    draft = sorted(
        solver_registry.create("grd").solve(instance, K)
        .schedule.as_mapping().items()
    )
    (pin_event, pin_interval) = draft[0]
    (other_event, other_interval) = draft[1]
    return LockSet(
        pins=((pin_interval, pin_event),),
        forbids=frozenset({(other_interval, other_event)}),
    )


class TestLocksSurviveStreams:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_final_schedule_honors_locks_under_every_policy(
        self, instance, policy
    ):
        locks = feasible_locks(instance)
        driver = StreamDriver(instance, k=K, policy=policy, locks=locks)
        result = driver.run(churn_trace(instance))
        locks.check_schedule(result.final_schedule)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_intermediate_schedule_honors_locks(self, instance, policy):
        """Belt and braces: replay the ops by hand through the policy's
        own scheduler and check after every op, not just at the end."""
        locks = feasible_locks(instance)
        from repro.stream import make_policy

        maintenance = make_policy(policy)
        maintenance.bind(instance, K, locks=locks)
        for op in churn_trace(instance).ops:
            maintenance.apply(op)
            maintenance.scheduler.locks.check_schedule(
                maintenance.scheduler.schedule
            )

    @pytest.mark.parametrize("kind", [ScheduleSession, ServingSession])
    def test_session_stream_threads_locks(self, instance, kind):
        locks = feasible_locks(instance)
        session = kind(instance)
        result = session.stream(
            churn_trace(instance), "incremental", k=K, locks=locks
        )
        locks.check_schedule(result.final_schedule)


class TestCancelRenumbering:
    def test_cancel_below_pin_shifts_the_pin_down(self, instance):
        locks = feasible_locks(instance)
        (pin_interval, pin_event) = locks.pins[0]
        assert pin_event > 0, "test needs a pinned event above index 0"

        inc = IncrementalScheduler(instance, K, locks=locks)
        inc.cancel_event(0)
        shifted = inc.locks
        assert shifted.pins == ((pin_interval, pin_event - 1),)
        shifted.check_schedule(inc.schedule)

    def test_cancelling_the_pinned_event_releases_the_pin(self, instance):
        locks = feasible_locks(instance)
        (pin_interval, pin_event) = locks.pins[0]
        inc = IncrementalScheduler(instance, K, locks=locks)
        inc.cancel_event(pin_event)
        remaining = inc.locks
        assert remaining is None or pin_event not in {
            e for _, e in remaining.pins
        }

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_streamed_cancel_keeps_renumbered_locks_binding(
        self, instance, policy
    ):
        locks = feasible_locks(instance)
        (pin_interval, pin_event) = locks.pins[0]
        assert pin_event > 0
        driver = StreamDriver(instance, k=K, policy=policy, locks=locks)
        result = driver.run(churn_trace(instance, with_cancel_below=0))
        # the pin followed the renumbering: event index shifted down one
        assert result.final_schedule.get(pin_event - 1) == pin_interval


class TestLockValidation:
    def test_over_pinned_budget_rejected_up_front(self, instance):
        draft = sorted(
            ScheduleSession(instance)
            .solve(k=K, solver="grd")
            .schedule.as_mapping()
            .items()
        )
        locks = LockSet(
            pins=tuple((t, e) for e, t in draft) + ((0, 7),)
        )
        with pytest.raises(LockError, match="pinned but the budget"):
            IncrementalScheduler(instance, K, locks=locks)

    def test_out_of_range_locks_rejected(self, instance):
        with pytest.raises(LockError, match="events"):
            IncrementalScheduler(
                instance, K, locks=LockSet().pin(0, instance.n_events)
            )
