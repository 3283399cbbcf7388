"""GRD — the paper's greedy algorithm (Algorithm 1, Section III).

GRD materializes the assignment list ``L`` with one Eq. 4 score per
(event, interval) pair, then repeats until ``k`` assignments are placed:
pop the top-scored assignment, keep it if valid, and update the scores of
the assignments sharing its interval (scores elsewhere are untouched,
because Eq. 1's denominator only couples co-scheduled events).

Data-structure note.  Algorithm 1 keeps ``L`` as a list and scans it
linearly per pop; that cost model is what the paper's complexity analysis
charges (``O(sum |T| (|E| - i))`` for the pops).  We store ``L`` as a dense
``(|T|, |E|)`` score matrix instead, with per-row maxima: *popping* is an
``argmax`` over the row maxima and then within the winning row, and
*removal/invalidation* writes ``-inf``.  Ties go to the lowest
``(interval, event)``, the order of Algorithm 1's scan.

Lines 10–13 are lazy.  Committing an event to interval ``t`` can only
lower the Eq. 4 gains of the other assignments at ``t`` (``M / (K + M)``
is concave in the interval's mass; see :mod:`repro.core.scoring`), so an
outdated score there is an upper bound on the current one.  A pick
therefore marks the surviving assignments of its interval *stale*
instead of rescoring them.  When the top of ``L`` is stale, its row's
stale cells that score at least the best current cell anywhere, less a
5% window, are rescored in one batched query, and the scan repeats.  A fresh top
beats every other cell's upper bound, so it is the pick Algorithm 1's
full update would make: the same schedule and the same utility bits,
because a cell's score does not depend on the batch it is computed in.
This is the lazy greedy of Minoux (1978) and CELF (Leskovec et al.,
KDD 2007).  ``SolverStats.score_updates`` counts the cells actually
rescored, ``pops`` the accepted picks.

The upper-bound argument holds in exact arithmetic.  Once the positive
gains are used up, picks are decided by ~1e-16 subtraction residues, and
a rescored residue can come out a rounding step *above* its stale score
(the reference engine does so on the duplicated-column instances of
``tests/algorithms/test_tiebreak_parity.py``).  So the stale scores a
pick leaves behind are raised by a margin of 1e-9 of the largest initial
score: a stale cell within that margin of the top is rescored before the
top is taken, and the picks stay Algorithm 1's while one score's
rounding error stays below the margin.  Matching the paper line by line:

* lines 2–4 (generate assignments)  -> :meth:`Scheduler._base_scores`
  (or a warm :class:`~repro.core.scoreplane.ScorePlane` read);
* line 6 (popTopAssgn)              -> row-maxima ``argmax`` + ``-inf``
  write;
* line 7 (validity check)           -> proactive: invalid cells are already
  ``-inf`` (event column on selection; interval row entries that lose
  location/resource feasibility on eviction), so every pop is valid;
* lines 10–13 (update/evict)        -> :meth:`_evict_interval` at the pick,
  and the batched rescoring of stale cells when one reaches the top.

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

#: A stale score's allowance for rounding, relative to the largest
#: initial score (see the module docstring).
_ROUNDING_MARGIN = 1e-9

#: How far below the best current score a stale cell is still rescored
#: in the stale top's batch, relative to that score.  Such cells tend to
#: surface before the next pick anyway, and one kernel call's fixed cost
#: is worth a few cells' work: at 20,000 users the window cuts a warm
#: k=60 solve's calls from 498 to 160 for 168 more cells.
_BATCH_WINDOW = 0.05


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
        # `scores` holds each cell's latest score, `fresh` the same score
        # while it is current and -inf once a pick made it stale: a cell
        # is stale exactly where fresh < scores
        scores = self._base_scores(engine, stats, plane, locks)
        fresh = scores.copy()
        margin = _ROUNDING_MARGIN * float(scores.max(initial=0.0))
        if locks is not None:
            # commit the pins first (they count toward k); each pinned
            # interval's denominators changed, and newly-infeasible cells
            # must leave L before the first pop.  Forbidden cells are
            # already -inf, so no rescoring can resurrect them.
            self._apply_pins(locks, engine, checker, stats)
            for interval in sorted({t for t, _ in locks.pins}):
                self._evict_interval(scores, fresh, interval, checker, margin)
        row_max = scores.max(axis=1, initial=-np.inf)
        fresh_max = fresh.max(axis=1, initial=-np.inf)

        while len(engine.schedule) < k:
            deadline.check()
            interval = int(np.argmax(row_max))
            if not np.isfinite(row_max[interval]):
                break  # L is exhausted: no valid assignment remains
            row, row_fresh = scores[interval], fresh[interval]
            event = int(np.argmax(row))

            if row_fresh[event] < row[event]:
                # a stale top: rescore, in one batch, the row's stale
                # cells that score within the window of the best current
                # cell; those below it can wait for a later batch
                best = fresh_max.max()
                stale = np.flatnonzero(
                    (row_fresh < row) & (row >= best - _BATCH_WINDOW * abs(best))
                )
                row[stale] = row_fresh[stale] = engine.scores_for_interval(
                    interval, stale
                )
                stats.score_updates += len(stale)
                row_max[interval] = row.max(initial=-np.inf)
                fresh_max[interval] = row_fresh.max(initial=-np.inf)
                continue

            stats.pops += 1
            checker.apply(Assignment(event=event, interval=interval))
            engine.assign(event, interval)
            stats.iterations += 1

            # the event is consumed: all its assignments leave L
            scores[:, event] = fresh[:, event] = -np.inf
            if len(engine.schedule) < k:
                self._evict_interval(scores, fresh, interval, checker, margin)
                np.max(scores, axis=1, out=row_max, initial=-np.inf)
                np.max(fresh, axis=1, out=fresh_max, initial=-np.inf)

    # ------------------------------------------------------------------
    @staticmethod
    def _evict_interval(
        scores: np.ndarray,
        fresh: np.ndarray,
        interval: int,
        checker: FeasibilityChecker,
        margin: float,
    ) -> None:
        """Algorithm 1 lines 10–13 for an interval that just gained events.

        Assignments at ``interval`` that lost feasibility — location now
        occupied or resources no longer sufficient — are evicted by
        writing ``-inf``.  The survivors are marked stale (their
        denominator changed) and keep their scores, raised by the
        rounding ``margin``, as upper bounds.
        """
        row = scores[interval]
        events = np.flatnonzero(np.isfinite(row))
        valid = checker.valid_events(interval, events)
        row[events[valid]] += margin
        row[events[~valid]] = -np.inf
        fresh[interval] = -np.inf
