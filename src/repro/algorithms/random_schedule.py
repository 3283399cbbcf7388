"""RAND — the paper's second baseline: random valid assignments.

RAND "assigns events to intervals, randomly".  We draw a uniform random
permutation of all (event, interval) pairs and commit each pair that is
valid until ``k`` assignments are placed.  Scanning a permutation (rather
than rejection-sampling pairs) guarantees termination and finds a ``k``-
assignment whenever one is reachable greedily, while staying uniform over
pair orderings.

RAND performs *no* scoring at all, which is why it is the cheapest method
in Fig. 1b/1d — its entire cost is feasibility bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.algorithms.registry import register_solver
from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment
from repro.utils.rng import ensure_rng

__all__ = ["RandomScheduler"]


@register_solver(
    summary="the paper's RAND baseline: random valid assignments", seeded=True
)
class RandomScheduler(Scheduler):
    """Commit uniformly random valid assignments until ``k`` are placed."""

    name = "RAND"

    def __init__(
        self,
        engine: EngineSpec | str | None = None,
        strict: bool = False,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__(engine, strict=strict)
        self._rng = ensure_rng(seed)

    def _solve(
        self,
        instance: SESInstance,
        k: int,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats,
        *,
        plane=None,  # RAND never scores, so a warm plane has nothing to offer
        locks=None,
        deadline: Deadline = NO_DEADLINE,
    ) -> None:
        if locks is not None:
            self._apply_pins(locks, engine, checker, stats)
        n_pairs = instance.n_events * instance.n_intervals
        if n_pairs == 0:
            return
        order = self._rng.permutation(n_pairs)
        for flat_index in order:
            if len(engine.schedule) >= k:
                break
            deadline.check()
            event, interval = divmod(int(flat_index), instance.n_intervals)
            stats.pops += 1
            assignment = Assignment(event=event, interval=interval)
            if locks is not None and locks.is_forbidden(interval, event):
                continue  # organizer lock: this cell is never drawable
            if not checker.is_valid(assignment):
                continue
            checker.apply(assignment)
            engine.assign(event, interval)
            stats.iterations += 1
