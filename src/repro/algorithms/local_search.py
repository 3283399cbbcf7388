"""Local-search refinement over SES schedules (extension scope).

Greedy solutions can be improved after the fact: the paper stops at GRD,
but a natural follow-up (and our Abl-5 ablation) is hill climbing over
three neighborhoods:

* **relocate** — move one scheduled event to a different interval;
* **replace** — swap a scheduled event for an unscheduled one in place;
* **exchange** — swap the intervals of two scheduled events.

All moves preserve ``|S|``, so the refined schedule stays a valid answer
to the same SES query.  Moves are evaluated through exact utility deltas
on the affected intervals only, applied first-improvement over a seeded
random ordering, and iterated until a full pass finds nothing (or
``max_rounds`` is hit).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, ScheduleResult, SolverStats
from repro.algorithms.registry import register_solver
from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule
from repro.interactive.locks import LockSet
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch

__all__ = ["LocalSearchRefiner"]


@register_solver(
    summary="relocate/replace/exchange hill climbing over an existing schedule",
    kind="refiner",
    seeded=True,
    anytime=True,
    strict_capable=False,
)
class LocalSearchRefiner:
    """First-improvement hill climber over relocate/replace/exchange moves."""

    name = "LS"

    def __init__(
        self,
        engine: EngineSpec | str | None = None,
        max_rounds: int = 50,
        seed: int | np.random.Generator | None = None,
    ):
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        self._engine_spec = EngineSpec.coerce(engine)
        self._max_rounds = max_rounds
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------
    def refine(
        self,
        instance: SESInstance,
        schedule: Schedule,
        *,
        engine: "ScoreEngine | None" = None,
        locks: LockSet | None = None,
        deadline: Deadline = NO_DEADLINE,
    ) -> ScheduleResult:
        """Improve ``schedule`` in place-semantics-free fashion; returns a result.

        The input schedule is not mutated; the result carries a copy.
        ``engine`` injects a pre-built engine for ``instance`` (reset
        before use) so repeat callers — GRASP's per-restart polish, a
        session refining many schedules — skip re-paying construction;
        results are identical either way.

        ``locks`` freezes cells during the climb: pinned events are never
        relocated, replaced or exchanged, and no move lands on a
        forbidden (interval, event) cell.  The input schedule must
        already honor the locks (:class:`~repro.core.errors.LockError`
        otherwise).

        ``deadline`` is checked at the top of every round, so a climb
        whose deadline passes raises
        :class:`~repro.core.errors.DeadlineExceeded` within one round.
        """
        locks = LockSet.coerce(locks)
        if locks is not None:
            locks.validate_for(instance)
            locks.check_schedule(schedule)
        stats = SolverStats()
        stopwatch = Stopwatch()
        with stopwatch:
            if engine is None:
                engine = self._engine_spec.build(instance)
            else:
                if engine.instance is not instance:
                    raise ValueError(
                        "injected engine was built for a different instance"
                    )
                engine.reset()
            checker = FeasibilityChecker(instance)
            for assignment in schedule:
                checker.apply(assignment)
                engine.assign(assignment.event, assignment.interval)

            for _ in range(self._max_rounds):
                deadline.check()
                improved = self._one_round(
                    instance, engine, checker, stats, locks=locks
                )
                if not improved:
                    break

            utility = engine.total_utility()
        return ScheduleResult(
            solver=self.name,
            schedule=engine.schedule,
            utility=utility,
            runtime_seconds=stopwatch.elapsed,
            requested_k=len(schedule),
            stats=stats,
        )

    def refine_result(
        self, instance: SESInstance, result: ScheduleResult
    ) -> ScheduleResult:
        """Refine another solver's output, relabelling the solver name."""
        refined = self.refine(instance, result.schedule)
        return ScheduleResult(
            solver=f"{result.solver}+{self.name}",
            schedule=refined.schedule,
            utility=refined.utility,
            runtime_seconds=result.runtime_seconds + refined.runtime_seconds,
            requested_k=result.requested_k,
            stats=refined.stats,
        )

    # ------------------------------------------------------------------
    def _one_round(self, instance, engine, checker, stats, *, locks=None) -> bool:
        """Try every move once in random order; True if any was applied."""
        improved = False
        improved |= self._relocate_pass(instance, engine, checker, stats, locks)
        improved |= self._replace_pass(instance, engine, checker, stats, locks)
        improved |= self._exchange_pass(instance, engine, checker, stats, locks)
        return improved

    def _relocate_pass(self, instance, engine, checker, stats, locks=None) -> bool:
        improved = False
        events = list(engine.schedule.scheduled_events())
        self._rng.shuffle(events)
        if locks is not None:
            # filtered after the shuffle so the RNG stream (and therefore
            # the unlocked trajectory) is untouched when locks bind nothing
            pinned = locks.pinned_events
            events = [event for event in events if event not in pinned]
        for event in events:
            source = engine.schedule.interval_of(event)
            # gain of removing = -(utility drop); compute via re-add score
            old_assignment = Assignment(event=event, interval=source)
            engine.unassign(event)
            checker.unapply(old_assignment)
            reinsert_gain = engine.score(event, source)

            best_interval, best_gain = source, reinsert_gain
            intervals = self._rng.permutation(instance.n_intervals)
            for interval in intervals:
                interval = int(interval)
                if interval == source:
                    continue
                if locks is not None and locks.is_forbidden(interval, event):
                    continue
                candidate = Assignment(event=event, interval=interval)
                if not checker.is_valid(candidate):
                    continue
                gain = engine.score(event, interval)
                stats.moves_evaluated += 1
                if gain > best_gain + 1e-12:
                    best_interval, best_gain = interval, gain

            chosen = Assignment(event=event, interval=best_interval)
            checker.apply(chosen)
            engine.assign(event, best_interval)
            if best_interval != source:
                stats.moves_accepted += 1
                improved = True
        return improved

    def _replace_pass(self, instance, engine, checker, stats, locks=None) -> bool:
        improved = False
        scheduled = list(engine.schedule.scheduled_events())
        unscheduled = [
            event
            for event in range(instance.n_events)
            if not engine.schedule.contains_event(event)
        ]
        if not unscheduled:
            return False
        self._rng.shuffle(scheduled)
        if locks is not None:
            pinned = locks.pinned_events
            scheduled = [event for event in scheduled if event not in pinned]
        for event in scheduled:
            interval = engine.schedule.interval_of(event)
            old_assignment = Assignment(event=event, interval=interval)
            engine.unassign(event)
            checker.unapply(old_assignment)
            own_gain = engine.score(event, interval)

            best_event, best_gain = event, own_gain
            for candidate_event in unscheduled:
                if locks is not None and locks.is_forbidden(
                    interval, candidate_event
                ):
                    continue
                candidate = Assignment(event=candidate_event, interval=interval)
                if not checker.is_valid(candidate):
                    continue
                gain = engine.score(candidate_event, interval)
                stats.moves_evaluated += 1
                if gain > best_gain + 1e-12:
                    best_event, best_gain = candidate_event, gain

            chosen = Assignment(event=best_event, interval=interval)
            checker.apply(chosen)
            engine.assign(best_event, interval)
            if best_event != event:
                unscheduled.remove(best_event)
                unscheduled.append(event)
                stats.moves_accepted += 1
                improved = True
        return improved

    def _exchange_pass(self, instance, engine, checker, stats, locks=None) -> bool:
        improved = False
        events = list(engine.schedule.scheduled_events())
        self._rng.shuffle(events)
        if locks is not None:
            pinned = locks.pinned_events
            events = [event for event in events if event not in pinned]
        for position, first in enumerate(events):
            for second in events[position + 1 :]:
                if not engine.schedule.contains_event(
                    first
                ) or not engine.schedule.contains_event(second):
                    continue
                interval_a = engine.schedule.interval_of(first)
                interval_b = engine.schedule.interval_of(second)
                if interval_a == interval_b:
                    continue
                if locks is not None and (
                    locks.is_forbidden(interval_b, first)
                    or locks.is_forbidden(interval_a, second)
                ):
                    continue
                before = engine.interval_utility(interval_a) + engine.interval_utility(
                    interval_b
                )
                assignment_a = Assignment(event=first, interval=interval_a)
                assignment_b = Assignment(event=second, interval=interval_b)
                engine.unassign(first)
                checker.unapply(assignment_a)
                engine.unassign(second)
                checker.unapply(assignment_b)

                swapped_a = Assignment(event=first, interval=interval_b)
                swapped_b = Assignment(event=second, interval=interval_a)
                stats.moves_evaluated += 1
                if checker.is_valid(swapped_a) and self._valid_after(
                    checker, swapped_a, swapped_b
                ):
                    checker.apply(swapped_a)
                    engine.assign(first, interval_b)
                    checker.apply(swapped_b)
                    engine.assign(second, interval_a)
                    after = engine.interval_utility(
                        interval_a
                    ) + engine.interval_utility(interval_b)
                    if after > before + 1e-12:
                        stats.moves_accepted += 1
                        improved = True
                        continue
                    # not better: revert the swap
                    engine.unassign(first)
                    checker.unapply(swapped_a)
                    engine.unassign(second)
                    checker.unapply(swapped_b)
                # restore original placement
                checker.apply(assignment_a)
                engine.assign(first, interval_a)
                checker.apply(assignment_b)
                engine.assign(second, interval_b)
        return improved

    @staticmethod
    def _valid_after(checker, first_assignment, second_assignment) -> bool:
        """Check the second half of a swap assuming the first half applies."""
        checker.apply(first_assignment)
        valid = checker.is_valid(second_assignment)
        checker.unapply(first_assignment)
        return valid
