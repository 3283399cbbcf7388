"""Exact exhaustive solver — ground truth for tiny instances.

Not part of the paper (SES is strongly NP-hard, Theorem 1), but essential
infrastructure for a credible reproduction: it certifies GRD's quality
(Abl-4), anchors the Theorem-1 reduction tests, and catches scoring bugs
that heuristics would silently absorb.

The search walks events in index order; each event is either skipped or
assigned to one of the feasible intervals.  Running utility is maintained
incrementally through the engine: committing ``alpha_e^t`` adds exactly
``score(e, t)`` (Eq. 4 *is* the utility delta), so no leaf re-evaluation is
needed.  Pruning:

* **cardinality** — abandon branches that cannot still reach ``k`` events;
* **optimistic bound** — each remaining event can add at most its best
  empty-interval score (scores only shrink as intervals fill — diminishing
  returns), so a branch whose utility plus the sum of the top remaining
  optimistic scores cannot beat the incumbent is cut.

A node budget guards against accidental use on large instances.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.algorithms.registry import register_solver
from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.errors import SESError
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule

__all__ = ["ExhaustiveScheduler", "SearchBudgetExceeded", "optimal_utility"]


class SearchBudgetExceeded(SESError):
    """The exhaustive search hit its node budget before completing."""


@register_solver(
    summary="exact optimum via pruned DFS (tiny instances only)",
    default_params={"max_nodes": 2_000_000},
)
class ExhaustiveScheduler(Scheduler):
    """Optimal solver via pruned depth-first search (tiny instances only)."""

    name = "EXACT"

    def __init__(
        self,
        engine: EngineSpec | str | None = None,
        strict: bool = False,
        max_nodes: int = 2_000_000,
    ):
        super().__init__(engine, strict=strict)
        if max_nodes <= 0:
            raise ValueError(f"max_nodes must be positive, got {max_nodes}")
        self._max_nodes = max_nodes

    def _solve(
        self,
        instance: SESInstance,
        k: int,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats,
        *,
        plane=None,
        locks=None,
        deadline: Deadline = NO_DEADLINE,
    ) -> None:
        # Optimistic per-event ceiling: the best score over empty intervals.
        # Adding events only shrinks scores (concavity of M/(K+M)), so the
        # empty-schedule score upper-bounds the gain in any schedule.
        # With locks, forbidden cells are -inf in `base` (they can never
        # contribute) and pinned columns drop out of the search entirely:
        # pins are committed up front as fixed branch constraints and the
        # DFS explores only the free events.
        base = self._base_scores(engine, stats, plane, locks)
        optimistic = base.max(axis=0, initial=0.0)

        n = instance.n_events
        if locks is not None:
            self._apply_pins(locks, engine, checker, stats)
            pinned = locks.pinned_events
            free = [event for event in range(n) if event not in pinned]
        else:
            free = list(range(n))
        n_free = len(free)
        placed_at_root = len(engine.schedule)
        utility_at_root = engine.total_utility() if locks is not None else 0.0
        optimistic_free = optimistic[free]

        # suffix_best[i][j] = sum of the j largest optimistic scores among
        # free events i..n_free-1; used for the bound at depth i.
        suffix_best: list[np.ndarray] = [
            np.zeros(k + 1) for _ in range(n_free + 1)
        ]
        for i in range(n_free - 1, -1, -1):
            tail = np.sort(optimistic_free[i:])[::-1]
            sums = np.concatenate(([0.0], np.cumsum(tail[:k])))
            padded = np.full(k + 1, sums[-1])
            padded[: len(sums)] = sums
            suffix_best[i] = padded

        best = _Incumbent()

        def recurse(position: int, placed: int, utility: float) -> None:
            deadline.check()
            stats.nodes_explored += 1
            if stats.nodes_explored > self._max_nodes:
                raise SearchBudgetExceeded(
                    f"exhaustive search exceeded {self._max_nodes} nodes; "
                    f"this solver is intended for tiny instances"
                )
            # Incumbents are compared lexicographically by (size, utility):
            # when a k-schedule exists the size-k leaves dominate all
            # prefixes, so this is exactly max-utility-among-k-schedules;
            # when none exists, the answer degrades to "largest feasible
            # schedule, best utility among those" — mirroring GRD's
            # fill-as-much-as-possible contract.
            if placed > best.size or (
                placed == best.size and utility > best.utility + 1e-12
            ):
                best.size = placed
                best.utility = utility
                best.mapping = engine.schedule.as_mapping()
            if placed == k or position >= n_free:
                return

            # size-aware pruning: a branch can still place at most
            # (n_free - position) more events, capped by the budget.
            reachable_size = min(k, placed + (n_free - position))
            if reachable_size < best.size:
                return
            head_count = min(k - placed, n_free - position)
            optimistic = utility + suffix_best[position][head_count]
            if reachable_size == best.size and optimistic <= best.utility:
                return

            event = free[position]

            # branch 1: skip this event
            recurse(position + 1, placed, utility)

            # branch 2: place it at each feasible interval
            for interval in range(instance.n_intervals):
                if locks is not None and locks.is_forbidden(interval, event):
                    continue  # locked out: never a branch
                assignment = Assignment(event=event, interval=interval)
                if not checker.is_valid(assignment):
                    continue
                gain = engine.score(event, interval)
                stats.score_updates += 1
                checker.apply(assignment)
                engine.assign(event, interval)
                recurse(position + 1, placed + 1, utility + gain)
                engine.unassign(event)
                checker.unapply(assignment)

        recurse(0, placed_at_root, utility_at_root)

        # Materialize the incumbent into the engine-backed schedule.
        engine.reset()
        rebuild_checker = FeasibilityChecker(instance)
        if best.mapping:
            for event, interval in sorted(best.mapping.items()):
                rebuild_checker.apply(Assignment(event=event, interval=interval))
                engine.assign(event, interval)

    # `solve` from the base class recomputes the utility from engine state,
    # so the incumbent's incremental utility is double-checked for free.


class _Incumbent:
    """Mutable best-so-far holder for the DFS closure.

    Ordered lexicographically by (size, utility): see the recursion's
    incumbent comment for why size ranks first.
    """

    __slots__ = ("size", "utility", "mapping")

    def __init__(self) -> None:
        self.size = -1
        self.utility = -np.inf
        self.mapping: dict[int, int] | None = None


def optimal_utility(
    instance: SESInstance, k: int, max_nodes: int = 2_000_000
) -> float:
    """Convenience: the exact optimum ``Omega(S*_k)`` for tiny instances."""
    solver = ExhaustiveScheduler(max_nodes=max_nodes)
    return solver.solve(instance, k).utility
