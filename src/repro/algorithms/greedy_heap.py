"""Lazy-heap GRD — an exact, faster variant of Algorithm 1 (extension).

The list-based GRD pays O(|L|) per pop.  This variant stores candidates in
a binary heap and re-validates lazily:

* each interval carries a **version** counter, bumped whenever an event is
  committed there;
* heap entries remember the version they were scored under;
* on pop, a stale entry (entry version < interval version) is *rescored
  and pushed back* instead of being accepted.

Exactness: committing an event to interval ``t`` can only *decrease*
the Eq. 4 score of pending assignments at ``t`` (diminishing returns —
``f(M) = M / (K + M)`` is concave; see :mod:`repro.core.scoring`), and
leaves other intervals' scores untouched.  Stale heap entries therefore
only ever *overstate* their true score, so the first entry popped with a
current version is the true maximum — the same selection Algorithm 1's
linear scan makes.

Ties are broken by the heap key's ``(interval, event)`` suffix — the
flat-index order GRD's ``argmax`` resolves equal scores to.  A stale
entry tying the current maximum is popped first (its overstated key
sorts at the same score but possibly lower index), rescored, and pushed
back *keyed the same way*, so duplicate marginal gains — structural on
instances with duplicated interest columns — are consumed in exactly
GRD's pick order.  The parity suite pins heap-GRD schedules to list-GRD
schedules bit for bit, duplicates included; the Abl-2 benchmark measures
the update-count reduction.

One caveat survives: once every positive-gain assignment is consumed and
the frontier degrades to ~1e-16 subtraction residues, floating point can
make a "stale" entry *under*state its true score (exact arithmetic only
ever overstates), and the last near-zero picks may land on different
intervals than GRD's — utilities agree to machine precision either way.
"""

from __future__ import annotations

import heapq
import math

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.algorithms.registry import register_solver
from repro.core.engine import ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet

__all__ = ["LazyGreedyScheduler"]


@register_solver(summary="GRD with a lazy max-heap: same schedules, fewer updates")
class LazyGreedyScheduler(Scheduler):
    """GRD with a lazily-revalidated max-heap candidate store."""

    name = "GRD-heap"

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
        # heap rows: (-score, interval, event, version) — the (interval,
        # event) suffix IS GRD's flat-index tie-break, and at most one
        # entry per pair is ever live, so keys are totally ordered
        heap: list[tuple[float, int, int, int]] = []
        interval_version = [0] * instance.n_intervals

        # the initial heap is the base score matrix — warm plane reads
        # skip the full sweep and seed the exact same entries.  Locked
        # cells come back -inf from _base_scores and are kept out of the
        # heap entirely; pinned intervals start at version 1, so entries
        # scored before the pins were committed rescore before acceptance.
        initial = self._base_scores(engine, stats, plane, locks)
        if locks is not None:
            self._apply_pins(locks, engine, checker, stats)
            for pinned_interval, _ in locks.pins:
                interval_version[pinned_interval] += 1
        for interval in range(instance.n_intervals):
            row = initial[interval]
            for event in range(instance.n_events):
                entry = -float(row[event])
                if math.isinf(entry):
                    continue  # a lock masked this cell out of L
                heap.append((entry, interval, event, 0))
        heapq.heapify(heap)

        while len(engine.schedule) < k and heap:
            deadline.check()
            negative_score, interval, event, version = heapq.heappop(heap)
            stats.pops += 1

            assignment = Assignment(event=event, interval=interval)
            if not checker.is_valid(assignment):
                continue  # lazily discard entries that can never apply again

            if version < interval_version[interval]:
                # stale: the interval changed since scoring; rescore and
                # retry.  The batched row query — not the scalar score()
                # — is used so the refreshed value is bit-identical to
                # what GRD's row refresh computes for the same cell, and
                # ties keep resolving in GRD's exact order.
                fresh = float(
                    engine.scores_for_interval(interval, [event])[0]
                )
                stats.score_updates += 1
                heapq.heappush(
                    heap,
                    (-fresh, interval, event, interval_version[interval]),
                )
                continue

            checker.apply(assignment)
            engine.assign(event, interval)
            interval_version[interval] += 1
            stats.iterations += 1
