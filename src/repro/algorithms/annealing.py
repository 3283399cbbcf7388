"""Simulated annealing for SES (extension scope).

A metaheuristic alternative to GRD used in the Abl-5 ablation: start from
any feasible ``k``-schedule (by default RAND's), then repeatedly propose a
random relocate/replace move and accept with the Metropolis rule under a
geometrically cooled temperature.  The best schedule seen is returned, so
the result never degrades below its seed.

Annealing here is *not* a claim from the paper; it demonstrates that the
library's engine/feasibility substrate supports arbitrary search schemes,
and provides a second quality yardstick next to GRD.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.algorithms.random_schedule import RandomScheduler
from repro.algorithms.registry import register_solver
from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule
from repro.interactive.locks import LockSet
from repro.utils.rng import ensure_rng

__all__ = ["AnnealingScheduler"]


@register_solver(
    summary="simulated annealing over relocate/replace moves",
    seeded=True,
    anytime=True,
    default_params={"steps": 2000},
)
class AnnealingScheduler(Scheduler):
    """Metropolis search over relocate/replace moves with geometric cooling."""

    name = "SA"

    def __init__(
        self,
        engine: EngineSpec | str | None = None,
        strict: bool = False,
        seed: int | np.random.Generator | None = None,
        steps: int = 2000,
        initial_temperature: float = 1.0,
        cooling: float = 0.995,
        seed_schedule: Schedule | None = None,
    ):
        super().__init__(engine, strict=strict)
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        if not 0.0 < cooling < 1.0:
            raise ValueError(f"cooling must lie in (0, 1), got {cooling}")
        if initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, got {initial_temperature}"
            )
        self._rng = ensure_rng(seed)
        self._steps = steps
        self._initial_temperature = initial_temperature
        self._cooling = cooling
        self._seed_schedule = seed_schedule

    # ------------------------------------------------------------------
    def _solve(
        self,
        instance: SESInstance,
        k: int,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats,
        *,
        plane=None,  # SA scores only relative moves; the base matrix is moot
        locks: LockSet | None = None,
        deadline: Deadline = NO_DEADLINE,
    ) -> None:
        seed_schedule = self._seed_schedule
        if seed_schedule is None:
            seeder = RandomScheduler(self._engine_spec, seed=self._rng)
            seed_schedule = seeder.solve(
                instance, k, locks=locks, deadline=deadline
            ).schedule
        elif locks is not None:
            # a caller-supplied seed must already honor the locks —
            # the walk preserves them but cannot repair a bad seed
            locks.check_schedule(seed_schedule)
        for assignment in seed_schedule:
            checker.apply(assignment)
            engine.assign(assignment.event, assignment.interval)

        current_utility = engine.total_utility()
        best_mapping = engine.schedule.as_mapping()
        best_utility = current_utility
        temperature = self._initial_temperature

        for _ in range(self._steps):
            deadline.check()
            delta = self._propose_and_maybe_apply(
                instance, engine, checker, temperature, stats, locks
            )
            current_utility += delta
            if current_utility > best_utility + 1e-12:
                best_utility = current_utility
                best_mapping = engine.schedule.as_mapping()
            temperature *= self._cooling

        # rewind to the best schedule observed
        engine.reset()
        rebuild = FeasibilityChecker(instance)
        for event, interval in sorted(best_mapping.items()):
            rebuild.apply(Assignment(event=event, interval=interval))
            engine.assign(event, interval)

    # ------------------------------------------------------------------
    def _propose_and_maybe_apply(
        self,
        instance: SESInstance,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        temperature: float,
        stats: SolverStats,
        locks: LockSet | None = None,
    ) -> float:
        """One Metropolis step; returns the applied utility delta (0 if rejected)."""
        scheduled = list(engine.schedule.scheduled_events())
        if locks is not None:
            # pinned events never move (filtered after the list build so
            # the unlocked path is byte-identical when locks is None)
            pinned = locks.pinned_events
            scheduled = [e for e in scheduled if e not in pinned]
        if not scheduled:
            return 0.0
        event = int(self._rng.choice(scheduled))
        source = engine.schedule.interval_of(event)
        old_assignment = Assignment(event=event, interval=source)

        engine.unassign(event)
        checker.unapply(old_assignment)
        removal_loss = engine.score(event, source)

        if self._rng.random() < 0.5:
            # relocate: same event, random interval
            new_event = event
            new_interval = int(self._rng.integers(instance.n_intervals))
        else:
            # replace: random event (possibly unscheduled), same interval
            new_event = int(self._rng.integers(instance.n_events))
            new_interval = source

        proposal = Assignment(event=new_event, interval=new_interval)
        stats.moves_evaluated += 1
        if (
            locks is not None and locks.is_forbidden(new_interval, new_event)
        ) or not checker.is_valid(proposal):
            # revert (forbidden cells are rejected exactly like invalid ones;
            # a pinned new_event is already scheduled, so validity rejects it)
            checker.apply(old_assignment)
            engine.assign(event, source)
            return 0.0

        gain = engine.score(new_event, new_interval)
        delta = gain - removal_loss
        if delta >= 0 or self._rng.random() < math.exp(delta / temperature):
            checker.apply(proposal)
            engine.assign(new_event, new_interval)
            stats.moves_accepted += 1
            return delta
        checker.apply(old_assignment)
        engine.assign(event, source)
        return 0.0
