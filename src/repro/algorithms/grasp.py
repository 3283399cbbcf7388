"""GRASP — greedy randomized adaptive search for SES (extension scope).

GRD commits deterministically to the top-scored assignment; GRASP instead
samples each step uniformly from a *restricted candidate list* (the
assignments whose score is within ``alpha`` of the step's best), builds a
complete randomized-greedy schedule, polishes it with local search, and
keeps the best of several restarts.

``alpha = 0`` degenerates to (tie-randomized) GRD; ``alpha = 1`` is
uniform over all positive-gain assignments.  GRASP is the classic antidote
to greedy's "first pick locks the trajectory" weakness and complements the
beam-search ablation: beam widens the frontier, GRASP diversifies across
restarts.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.algorithms.local_search import LocalSearchRefiner
from repro.algorithms.registry import register_solver
from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet
from repro.utils.rng import ensure_rng

__all__ = ["GraspScheduler"]


@register_solver(
    summary="multi-restart randomized greedy with local-search polishing",
    seeded=True,
    anytime=True,
    default_params={"restarts": 5, "alpha": 0.15},
)
class GraspScheduler(Scheduler):
    """Multi-restart randomized greedy with local-search polishing."""

    name = "GRASP"

    def __init__(
        self,
        engine: EngineSpec | str | None = None,
        strict: bool = False,
        seed: int | np.random.Generator | None = None,
        restarts: int = 5,
        alpha: float = 0.15,
        polish: bool = True,
        polish_rounds: int = 3,
    ):
        super().__init__(engine, strict=strict)
        if restarts <= 0:
            raise ValueError(f"restarts must be positive, got {restarts}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if polish_rounds <= 0:
            raise ValueError(f"polish_rounds must be positive, got {polish_rounds}")
        self._rng = ensure_rng(seed)
        self._restarts = restarts
        self._alpha = alpha
        self._polish = polish
        self._polish_rounds = polish_rounds

    # ------------------------------------------------------------------
    def _solve(
        self,
        instance: SESInstance,
        k: int,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats,
        *,
        plane: "ScorePlane | None" = None,
        locks: LockSet | None = None,
        deadline: Deadline = NO_DEADLINE,
    ) -> None:
        # Every restart's first RCL round scores the same empty-schedule
        # state, so the base matrix is computed once (or read warm from
        # the plane) and shared across restarts; one work engine is
        # likewise reset and reused for every construction and polish.
        base = self._base_scores(engine, stats, plane, locks)
        work_engine = self._engine_spec.build(instance)
        best_utility = -1.0
        best_mapping: dict[int, int] = {}
        for _ in range(self._restarts):
            work_engine.reset()
            mapping, utility = self._one_construction(
                instance, k, stats, base, work_engine, locks, deadline
            )
            if self._polish and mapping:
                mapping, utility = self._polish_mapping(
                    instance, mapping, stats, work_engine, locks
                )
            if utility > best_utility:
                best_utility, best_mapping = utility, mapping
            stats.iterations += 1

        for event, interval in sorted(best_mapping.items()):
            checker.apply(Assignment(event, interval))
            engine.assign(event, interval)

    # ------------------------------------------------------------------
    def _one_construction(
        self,
        instance: SESInstance,
        k: int,
        stats: SolverStats,
        base: np.ndarray,
        engine: ScoreEngine,
        locks: LockSet | None = None,
        deadline: Deadline = NO_DEADLINE,
    ) -> tuple[dict[int, int], float]:
        """One randomized-greedy pass: RCL sampling until k or stuck."""
        checker = FeasibilityChecker(instance)
        utility = 0.0
        # Pins open every construction; the base fast-path only holds
        # while the work schedule is empty, so pinned restarts score
        # their first RCL round through the engine instead.
        first_round = locks is None or not locks.pins
        if locks is not None:
            self._apply_pins(locks, engine, checker)
        while len(engine.schedule) < k:
            deadline.check()
            candidates: list[tuple[float, int, int]] = []
            best_score = 0.0
            for interval in range(instance.n_intervals):
                events = [
                    e
                    for e in range(instance.n_events)
                    if not engine.schedule.contains_event(e)
                    and not (
                        locks is not None and locks.is_forbidden(interval, e)
                    )
                    and checker.is_valid(Assignment(e, interval))
                ]
                if not events:
                    continue
                if first_round:
                    scores = base[interval, events]
                else:
                    scores = engine.scores_for_interval(interval, events)
                    stats.score_updates += len(events)
                for event, score in zip(events, scores):
                    candidates.append((float(score), event, interval))
                    best_score = max(best_score, float(score))
            first_round = False
            if not candidates:
                break
            threshold = (1.0 - self._alpha) * best_score
            restricted = [row for row in candidates if row[0] >= threshold]
            score, event, interval = restricted[
                int(self._rng.integers(len(restricted)))
            ]
            checker.apply(Assignment(event, interval))
            engine.assign(event, interval)
            utility += score
            stats.pops += 1
        return engine.schedule.as_mapping(), engine.total_utility()

    def _polish_mapping(
        self,
        instance: SESInstance,
        mapping: dict[int, int],
        stats: SolverStats,
        engine: ScoreEngine,
        locks: LockSet | None = None,
    ) -> tuple[dict[int, int], float]:
        from repro.core.schedule import Schedule

        schedule = Schedule(
            instance,
            (Assignment(event, interval) for event, interval in mapping.items()),
        )
        refiner = LocalSearchRefiner(
            self._engine_spec,
            max_rounds=self._polish_rounds,
            seed=self._rng,
        )
        refined = refiner.refine(instance, schedule, engine=engine, locks=locks)
        stats.moves_accepted += refined.stats.moves_accepted
        return refined.schedule.as_mapping(), refined.utility
