"""GRD — the paper's greedy algorithm (Algorithm 1, Section III).

GRD materializes the assignment list ``L`` with one Eq. 4 score per
(event, interval) pair, then repeats until ``k`` assignments are placed:
pop the top-scored assignment, keep it if valid, and refresh the scores of
the assignments sharing its interval (scores elsewhere are untouched,
because Eq. 1's denominator only couples co-scheduled events).

Data-structure note.  Algorithm 1 keeps ``L`` as a list and scans it
linearly per pop; that cost model is what the paper's complexity analysis
charges (``O(sum |T| (|E| - i))`` for the pops).  We store ``L`` as a dense
``(|T|, |E|)`` score matrix instead, where *popping* is a flat ``argmax``
and *removal/invalidation* writes ``-inf`` — the same linear-scan work per
pop, executed by numpy rather than the interpreter.  The selection sequence
is exactly Algorithm 1's (ties broken by lowest flat index); only the
constant factor changes.  Matching the paper line by line:

* lines 2–4 (generate assignments)  -> :meth:`Scheduler._base_scores`
  (or a warm :class:`~repro.core.scoreplane.ScorePlane` read);
* line 6 (popTopAssgn)              -> ``argmax`` + ``-inf`` write;
* line 7 (validity check)           -> proactive: invalid cells are already
  ``-inf`` (event column on selection; interval row entries that lose
  location/resource feasibility on refresh), so every pop is valid;
* lines 10–13 (update/evict)        -> :meth:`_refresh_interval`.

The proactive invalidation is sound for the same reason the paper's lazy
eviction is: GRD only ever *adds* events, so an assignment that is
infeasible now stays infeasible forever.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.algorithms.registry import register_solver
from repro.core.engine import ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet

__all__ = ["GreedyScheduler"]


@register_solver(summary="the paper's greedy Algorithm 1 (list-based)")
class GreedyScheduler(Scheduler):
    """Paper-faithful GRD over a dense assignment-score matrix.

    With a warm :class:`~repro.core.scoreplane.ScorePlane` injected via
    ``solve(..., plane=)``, lines 2–4's full sweep collapses to reading
    the cached matrix (re-scoring only dirty rows) — the selection loop
    and therefore the schedule are unchanged bit for bit.
    """

    name = "GRD"

    def _solve(
        self,
        instance: SESInstance,
        k: int,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats,
        *,
        plane: ScorePlane | None = None,
        locks: LockSet | None = None,
        deadline: Deadline = NO_DEADLINE,
    ) -> None:
        scores = self._base_scores(engine, stats, plane, locks)
        if locks is not None:
            # commit the pins first (they count toward k), then refresh
            # each pinned interval's row — its denominators changed, and
            # newly-infeasible cells must leave L before the first pop.
            # Forbidden cells are already -inf in `scores`, so a refresh
            # can never resurrect them (survivors start from finite cells).
            self._apply_pins(locks, engine, checker, stats)
            for interval in sorted({t for t, _ in locks.pins}):
                self._refresh_interval(
                    scores, interval, instance, engine, checker, stats
                )

        while len(engine.schedule) < k:
            deadline.check()
            flat = int(np.argmax(scores))
            interval, event = divmod(flat, instance.n_events)
            if not np.isfinite(scores[interval, event]):
                break  # L is exhausted: no valid assignment remains
            stats.pops += 1

            assignment = Assignment(event=event, interval=interval)
            checker.apply(assignment)
            engine.assign(event, interval)
            stats.iterations += 1

            # the event is consumed: all its assignments leave L
            scores[:, event] = -np.inf

            if len(engine.schedule) < k:
                self._refresh_interval(
                    scores, interval, instance, engine, checker, stats
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _refresh_interval(
        scores: np.ndarray,
        interval: int,
        instance: SESInstance,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats,
    ) -> None:
        """Algorithm 1 lines 10–13 for the selected interval's row.

        Every still-valid assignment at ``interval`` is rescored (its
        denominator changed); assignments that lost feasibility —
        location now occupied or resources no longer sufficient — are
        evicted by writing ``-inf``.
        """
        row = scores[interval]
        survivors = [
            event
            for event in np.flatnonzero(np.isfinite(row))
            if checker.is_valid(Assignment(event=int(event), interval=interval))
        ]
        row[:] = -np.inf
        if survivors:
            fresh = engine.scores_for_interval(interval, survivors)
            stats.score_updates += len(survivors)
            row[survivors] = fresh
