"""Differential fuzz suite: LiveInstance vs. the frozen-rebuild semantics.

The pre-LiveInstance scheduler rebuilt an immutable ``SESInstance`` from
scratch on every structural op.  That path is gone from the library, so
this suite re-implements it as a *shadow*: a fresh ``SESInstance`` is
maintained per op with the same backend-preserving
``InterestMatrix.with_event_column`` / ``without_event_column`` /
``with_replaced_event_column`` / ``with_competing_column`` edits the old
code used.  Seeded random op sequences (both interest backends) then
assert, after **every** op:

* ``LiveInstance.freeze()`` equals the shadow instance field for field
  (entities, interest matrices, activity, organizer, derived ``K_t``);
* the delta-updated engine state matches a *fresh* engine built from the
  frozen instance to 1e-9 on every query the scheduler asks: full score
  tables, total utility, per-event omega, removal losses and
  displacement what-ifs;
* the maintained schedule replays cleanly through a feasibility checker
  on the frozen instance.

Sequences are drawn from :class:`TraceGenerator` (arrivals,
cancellations, rivals, drift, budget raises) and applied both maintained
and repair-only.
"""

import numpy as np
import pytest

from repro.algorithms.incremental import IncrementalScheduler
from repro.core.engine import EngineSpec
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.schedule import Assignment
from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    DriftInterest,
    entries_from_column,
)
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

ATOL = 1e-9


def _column(entries, n_users: int) -> np.ndarray:
    column = np.zeros(n_users)
    for user, value in entries:
        column[user] = value
    return column


def shadow_apply(instance: SESInstance, op) -> SESInstance:
    """One structural op applied the way the old scheduler rebuilt."""
    from dataclasses import replace as dc_replace

    events = instance.events
    competing = instance.competing
    interest = instance.interest
    if isinstance(op, ArriveCandidate):
        from repro.core.entities import CandidateEvent

        event = CandidateEvent(
            index=instance.n_events,
            location=op.location,
            required_resources=op.required_resources,
            name=op.name or f"arrival-{instance.n_events}",
        )
        events = (*events, event)
        interest = interest.with_event_column(
            _column(op.interest, instance.n_users)
        )
    elif isinstance(op, CancelEvent):
        events = tuple(
            dc_replace(event, index=position)
            for position, event in enumerate(
                e for e in events if e.index != op.event
            )
        )
        interest = interest.without_event_column(op.event)
    elif isinstance(op, AnnounceRival):
        from repro.core.entities import CompetingEvent

        rival = CompetingEvent(
            index=instance.n_competing,
            interval=op.interval,
            name=op.name or f"rival-arrival-{instance.n_competing}",
        )
        competing = (*competing, rival)
        interest = interest.with_competing_column(
            _column(op.interest, instance.n_users)
        )
    elif isinstance(op, DriftInterest):
        interest = interest.with_replaced_event_column(
            op.event, _column(op.interest, instance.n_users)
        )
    else:  # RaiseBudget: no structural change
        return instance
    return SESInstance(
        users=instance.users,
        intervals=instance.intervals,
        events=events,
        competing=competing,
        interest=interest,
        activity=instance.activity,
        organizer=instance.organizer,
    )


def assert_instances_equal(frozen: SESInstance, shadow: SESInstance) -> None:
    """Field-for-field equality of two instances (exact, not approximate)."""
    assert frozen.users == shadow.users
    assert frozen.intervals == shadow.intervals
    assert frozen.events == shadow.events
    assert frozen.competing == shadow.competing
    assert frozen.organizer == shadow.organizer
    assert frozen.theta == shadow.theta
    assert np.array_equal(frozen.activity.matrix, shadow.activity.matrix)
    left, right = frozen.interest, shadow.interest
    assert left.backend == right.backend
    assert np.array_equal(left.candidate, right.candidate)
    assert np.array_equal(left.competing, right.competing)
    assert np.array_equal(frozen.competing_mass, shadow.competing_mass)


def assert_engine_matches_fresh(scheduler: IncrementalScheduler) -> None:
    """Delta-updated engine state == fresh engine from the frozen state."""
    frozen = scheduler.instance
    fresh = scheduler.engine_spec.build(frozen)
    mapping = scheduler.schedule.as_mapping()
    for event, interval in sorted(mapping.items()):
        fresh.assign(event, interval)

    live_engine = scheduler._engine
    assert live_engine.total_utility() == pytest.approx(
        fresh.total_utility(), abs=ATOL
    )
    unscheduled = [
        event for event in range(frozen.n_events) if event not in mapping
    ]
    for interval in range(frozen.n_intervals):
        np.testing.assert_allclose(
            live_engine.scores_for_interval(interval, unscheduled),
            fresh.scores_for_interval(interval, unscheduled),
            atol=ATOL,
        )
    scheduled = sorted(mapping)
    for event in scheduled:
        assert live_engine.omega(event) == pytest.approx(
            fresh.omega(event), abs=ATOL
        )
    if scheduled:
        np.testing.assert_allclose(
            live_engine.removal_losses(scheduled),
            fresh.removal_losses(scheduled),
            atol=ATOL,
        )
        # what-if queries: the pure exclusion math must agree with a
        # fresh engine actually mutated into the excluded state
        probe = unscheduled[0] if unscheduled else None
        if probe is not None:
            for event in scheduled[:3]:
                interval = mapping[event]
                fresh.unassign(event)
                truth = fresh.score(probe, interval)
                fresh.assign(event, interval)
                assert live_engine.score_excluding(
                    probe, interval, event
                ) == pytest.approx(truth, abs=ATOL)


def assert_schedule_feasible(scheduler: IncrementalScheduler) -> None:
    checker = FeasibilityChecker(scheduler.instance)
    for event, interval in sorted(scheduler.schedule.as_mapping().items()):
        checker.apply(Assignment(event, interval))


def run_case(
    backend: str, seed: int, maintain: bool, engine: EngineSpec | None = None
) -> int:
    config = ExperimentConfig(
        k=4,
        n_users=30,
        n_events=7,
        n_intervals=4,
        interest_backend=backend,
    )
    trace = TraceGenerator(
        config,
        TraceConfig(n_ops=25, interest_density=0.3),
        root_seed=seed,
    ).generate()
    instance = WorkloadGenerator(root_seed=seed).build(config)
    scheduler = IncrementalScheduler(
        instance, config.k, engine=engine or EngineSpec()
    )
    shadow = instance
    for op in trace:
        op.apply(scheduler, maintain=maintain)
        shadow = shadow_apply(shadow, op)
        assert_instances_equal(scheduler.instance, shadow)
        assert_engine_matches_fresh(scheduler)
        assert_schedule_feasible(scheduler)
    assert scheduler.live.mutations > 0
    return len(trace)


@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("maintain", [True, False], ids=["maintained", "repair-only"])
class TestDifferentialFuzz:
    def test_dense_backend(self, seed, maintain):
        assert run_case("dense", seed, maintain) > 0

    def test_sparse_backend(self, seed, maintain):
        pytest.importorskip("scipy")
        assert run_case("sparse", seed, maintain) > 0

    def test_reference_engine_over_dense_backend(self, seed, maintain):
        """The oracle absorbs live deltas through the base-class hooks
        alone; it must stay exact under the same op sequences."""
        assert run_case("dense", seed, maintain, EngineSpec("reference")) > 0


class TestFreezeCaching:
    """freeze() is cached between mutations and counted when re-taken."""

    def test_freeze_is_cached_until_mutation(self):
        config = ExperimentConfig(k=3, n_users=20, n_events=5, n_intervals=3)
        instance = WorkloadGenerator(root_seed=3).build(config)
        scheduler = IncrementalScheduler(instance, 3)
        # before any mutation the source instance doubles as the snapshot
        assert scheduler.instance is instance
        assert scheduler.live.freezes == 0
        scheduler.add_candidate_event(
            location=9, required_resources=0.5,
            interest_column=np.zeros(instance.n_users),
        )
        first = scheduler.instance
        assert first is not instance
        assert scheduler.live.freezes == 1
        assert scheduler.instance is first  # cached: no second freeze
        assert scheduler.live.freezes == 1
