"""Algorithm 1 with its eager update: the oracle GRD's lazy loop must match.

After every pick, this loop rescores every still-valid assignment of the
picked interval (Algorithm 1, lines 10–13, taken literally) and pops the
flat ``argmax`` of the whole score matrix.  ``GreedyScheduler`` (and
``grd-heap``, which runs the same loop) rescore only the stale cells
that can still win; tests compare their schedules and ``float.hex``
utilities with this one, and their ``score_updates`` with its count.

Not registered: it is a test oracle, not a solver callers can request.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.core.engine import ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet

__all__ = ["EagerGreedyScheduler"]


class EagerGreedyScheduler(Scheduler):
    """GRD that rescores the picked interval's whole row after each pick."""

    name = "GRD-eager"

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

            checker.apply(Assignment(event=event, interval=interval))
            engine.assign(event, interval)
            stats.iterations += 1
            scores[:, event] = -np.inf

            if len(engine.schedule) < k:
                self._refresh_interval(
                    scores, interval, instance, engine, checker, stats
                )

    @staticmethod
    def _refresh_interval(
        scores: np.ndarray,
        interval: int,
        instance: SESInstance,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats,
    ) -> None:
        """Rescore every still-valid cell of ``interval``; evict the rest."""
        row = scores[interval]
        survivors = [
            event
            for event in np.flatnonzero(np.isfinite(row))
            if checker.is_valid(Assignment(event=int(event), interval=interval))
        ]
        row[:] = -np.inf
        if survivors:
            row[survivors] = engine.scores_for_interval(interval, survivors)
            stats.score_updates += len(survivors)
