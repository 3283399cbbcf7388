"""TOP — the paper's first baseline (Section IV.A).

TOP "computes the assignment scores for all the events and selects the
events with top-k score values": every (event, interval) pair is scored
once against the *empty* schedule, the pairs are ranked, and the best ``k``
valid ones are committed in rank order.  No score is ever updated, which is
exactly why TOP underperforms — initial scores ignore cannibalization, so
TOP stacks mutually-attractive events into the same popular intervals and
splits the same users between them.

Ties are broken by lowest (interval, event) flat index for determinism.
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

__all__ = ["TopKScheduler"]


@register_solver(summary="the paper's TOP baseline: rank initial scores, no updates")
class TopKScheduler(Scheduler):
    """Rank all assignments by initial score; take the best valid ``k``."""

    name = "TOP"

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
        # TOP is *entirely* initial scores, so a warm plane turns the
        # whole scoring phase into a cache read
        matrix = self._base_scores(engine, stats, plane, locks)
        if locks is not None:
            self._apply_pins(locks, engine, checker, stats)

        # stable flat argsort descending: ties resolve to the lowest
        # (interval, event) flat index, matching the documented tiebreak
        order = np.argsort(-matrix, axis=None, kind="stable")
        for flat in order:
            if len(engine.schedule) >= k:
                break
            deadline.check()
            interval, event = divmod(int(flat), instance.n_events)
            if not np.isfinite(matrix[interval, event]):
                break  # only masked lock cells remain in the ranking
            stats.pops += 1
            assignment = Assignment(event=event, interval=interval)
            if not checker.is_valid(assignment):
                continue
            checker.apply(assignment)
            engine.assign(event, interval)
            stats.iterations += 1
