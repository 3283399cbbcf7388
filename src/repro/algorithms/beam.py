"""Beam-search SES scheduler — a width-w generalization of GRD (extension).

GRD commits to the single best assignment each round; when two assignments
have near-equal scores, the one it discards may have enabled a better
future (e.g. keeping a scarce location free).  Beam search keeps the ``w``
best *partial schedules* per depth instead:

* depth ``d`` holds up to ``w`` feasible schedules with ``d`` assignments;
* each is expanded with its top ``branch`` marginal assignments;
* children are deduplicated (the same assignment set reached in different
  orders is one schedule) and pruned back to the best ``w`` by utility.

``beam_width=1`` reproduces GRD exactly (property-tested); larger widths
trade time for a monotonically *non-decreasing* best-found utility at
depth k — the Abl-6 benchmark quantifies that trade.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NO_DEADLINE, Deadline, Scheduler, SolverStats
from repro.algorithms.registry import register_solver
from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet

__all__ = ["BeamSearchScheduler"]


@register_solver(
    summary="width-w beam search generalizing GRD",
    anytime=True,
    default_params={"beam_width": 4},
)
class BeamSearchScheduler(Scheduler):
    """Keep the ``beam_width`` best partial schedules per depth."""

    name = "BEAM"

    def __init__(
        self,
        engine: EngineSpec | str | None = None,
        strict: bool = False,
        beam_width: int = 4,
        branch_factor: int | None = None,
    ):
        super().__init__(engine, strict=strict)
        if beam_width <= 0:
            raise ValueError(f"beam_width must be positive, got {beam_width}")
        if branch_factor is not None and branch_factor <= 0:
            raise ValueError(
                f"branch_factor must be positive, got {branch_factor}"
            )
        self._beam_width = beam_width
        # how many children each beam node spawns; default: beam width + 1
        # so ties cannot starve the frontier
        self._branch_factor = branch_factor or beam_width + 1

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
        # The root expansion scores every (event, interval) pair against
        # the empty schedule — exactly the base matrix, read warm from
        # the plane when one is injected.  One work engine serves every
        # deeper expansion (reset + replayed per node).
        base = self._base_scores(engine, stats, plane, locks)
        work_engine = self._engine_spec.build(instance)
        forbidden = locks.forbids if locks is not None else frozenset()

        # Pins seed the frontier: every beam node descends from the pinned
        # partial schedule, so the winner contains the pins by construction.
        root_mapping: dict[int, int] = {}
        root_utility = 0.0
        if locks is not None and locks.pins:
            seed_checker = FeasibilityChecker(instance)
            self._apply_pins(locks, work_engine, seed_checker, stats)
            root_mapping = work_engine.schedule.as_mapping()
            root_utility = work_engine.total_utility()

        # frontier entries: (utility, {event: interval})
        frontier: list[tuple[float, dict[int, int]]] = [
            (root_utility, dict(root_mapping))
        ]
        best_complete: tuple[float, dict[int, int]] = (
            root_utility,
            dict(root_mapping),
        )

        for __ in range(k - len(root_mapping)):
            deadline.check()
            children: dict[frozenset, tuple[float, dict[int, int]]] = {}
            for utility, mapping in frontier:
                expansions = self._expand(
                    instance, mapping, utility, stats, base, work_engine,
                    forbidden=forbidden,
                )
                for child_utility, child_mapping in expansions:
                    key = frozenset(child_mapping.items())
                    known = children.get(key)
                    if known is None or child_utility > known[0]:
                        children[key] = (child_utility, child_mapping)
            if not children:
                break  # nothing can be extended further
            ranked = sorted(
                children.values(), key=lambda entry: -entry[0]
            )[: self._beam_width]
            frontier = ranked
            if ranked[0][0] > best_complete[0] or len(
                ranked[0][1]
            ) > len(best_complete[1]):
                best_complete = ranked[0]

        # materialize the winner into the harness-provided engine/checker
        for event, interval in sorted(best_complete[1].items()):
            checker.apply(Assignment(event, interval))
            engine.assign(event, interval)
        stats.iterations = len(best_complete[1])

    # ------------------------------------------------------------------
    def _expand(
        self,
        instance: SESInstance,
        mapping: dict[int, int],
        utility: float,
        stats: SolverStats,
        base: np.ndarray,
        engine: ScoreEngine,
        *,
        forbidden: frozenset[tuple[int, int]] = frozenset(),
    ) -> list[tuple[float, dict[int, int]]]:
        """Top ``branch_factor`` one-assignment extensions of ``mapping``."""
        engine.reset()
        checker = FeasibilityChecker(instance)
        for event, interval in mapping.items():
            checker.apply(Assignment(event, interval))
            engine.assign(event, interval)

        candidates: list[tuple[float, int, int]] = []
        for interval in range(instance.n_intervals):
            events = [
                e
                for e in range(instance.n_events)
                if e not in mapping
                and (interval, e) not in forbidden
                and checker.is_valid(Assignment(e, interval))
            ]
            if not events:
                continue
            if not mapping:
                scores = base[interval, events]  # the root: base scores
            else:
                scores = engine.scores_for_interval(interval, events)
                stats.score_updates += len(events)
            for event, score in zip(events, scores):
                candidates.append((float(score), event, interval))
        candidates.sort(key=lambda row: (-row[0], row[1], row[2]))

        expansions = []
        for score, event, interval in candidates[: self._branch_factor]:
            child = dict(mapping)
            child[event] = interval
            expansions.append((utility + score, child))
        stats.nodes_explored += len(expansions)
        return expansions
