"""Common scaffolding for SES solvers.

Every solver consumes an :class:`~repro.core.instance.SESInstance` plus the
budget ``k`` and produces a :class:`ScheduleResult`: the feasible schedule,
its exact total utility, wall-clock time and per-solver counters.  Solvers
never raise when fewer than ``k`` valid assignments exist (a tiny instance
can simply run out of feasible slots) unless ``strict=True`` — mirroring the
paper's GRD, which terminates when its assignment list empties.

A solve may carry a :class:`Deadline`: every one-shot solver checks it
once per main-loop step and raises :class:`DeadlineExceeded` when it
has passed.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.errors import (
    DeadlineExceeded,
    InfeasibleAssignmentError,
    LockError,
    ScheduleSizeError,
)
from repro.core.feasibility import FeasibilityChecker, is_schedule_feasible
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet
from repro.utils.validation import check_budget

__all__ = [
    "Deadline",
    "NO_DEADLINE",
    "SolverStats",
    "ScheduleResult",
    "Scheduler",
]


@dataclass(frozen=True, slots=True)
class Deadline:
    """A monotonic-clock expiry that a solve checks once per main-loop step.

    ``expires_at`` is a :func:`time.monotonic` reading: ``-inf`` has
    always passed and ``inf`` never passes (:data:`NO_DEADLINE`).  Every
    one-shot solver calls :meth:`check` at the top of each main-loop
    step — a pick, pop, search node, Metropolis step, beam depth or RCL
    pick — so an expired solve stops within one step.  The check only
    reads the clock, so a solve under a deadline that never passes is
    bit-identical to one without.
    """

    expires_at: float

    def __post_init__(self) -> None:
        if math.isnan(self.expires_at):
            raise ValueError("a deadline cannot expire at NaN")

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline ``seconds`` from now (``inf``: never)."""
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds left: negative once passed, ``inf`` for no deadline."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired():
            raise DeadlineExceeded("the solve's deadline has passed")


#: The deadline of a solve that names none: it never passes.
NO_DEADLINE = Deadline(math.inf)


@dataclass(slots=True)
class SolverStats:
    """Operation counters exposed by every solver (all start at zero).

    ``initial_scores`` counts Eq. 4 evaluations during list construction,
    ``score_updates`` counts re-evaluations after selections, ``pops``
    counts candidate extractions (valid or not), and ``iterations`` counts
    accepted assignments.  The paper's complexity analysis (Section III)
    is phrased in exactly these quantities, so the benchmark suite reports
    them next to wall-clock time.
    """

    initial_scores: int = 0
    score_updates: int = 0
    pops: int = 0
    iterations: int = 0
    nodes_explored: int = 0
    moves_evaluated: int = 0
    moves_accepted: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter by field name — new counters appear automatically."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one solver run."""

    solver: str
    schedule: Schedule
    utility: float
    runtime_seconds: float
    requested_k: int
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def achieved_k(self) -> int:
        """Number of assignments actually placed (``<= requested_k``)."""
        return len(self.schedule)

    @property
    def complete(self) -> bool:
        """Whether the solver placed all ``k`` requested assignments."""
        return self.achieved_k == self.requested_k

    def summary(self) -> str:
        return (
            f"{self.solver}: utility={self.utility:.4f} "
            f"k={self.achieved_k}/{self.requested_k} "
            f"time={self.runtime_seconds * 1e3:.2f}ms"
        )


class Scheduler(ABC):
    """Base class wiring together engine construction, timing and validation.

    Subclasses implement :meth:`_solve`, receiving a fresh engine and
    feasibility checker; the base class measures wall-clock time, computes
    the final utility from the engine state, asserts feasibility (a cheap
    invariant that has caught real bugs) and packages the result.

    Parameters
    ----------
    engine:
        An :class:`~repro.core.engine.EngineSpec` (or bare kind string /
        ``None`` for the sparse default); every solver is
        engine-agnostic, which is what makes the Abl-1 ablation possible.
    strict:
        When True, raise :class:`ScheduleSizeError` if fewer than ``k``
        assignments were placed.
    """

    #: Human-facing solver name; subclasses override.
    name: str = "abstract"

    def __init__(
        self,
        engine: EngineSpec | str | None = None,
        strict: bool = False,
    ):
        self._engine_spec = EngineSpec.coerce(engine)
        self._strict = strict

    @property
    def engine_spec(self) -> EngineSpec:
        return self._engine_spec

    def solve(
        self,
        instance: SESInstance,
        k: int,
        *,
        engine: ScoreEngine | None = None,
        plane: ScorePlane | None = None,
        locks: "LockSet | None" = None,
        deadline: Deadline | None = None,
    ) -> ScheduleResult:
        """Run the solver and return a validated, timed result.

        ``engine`` lets a caller that amortizes engine construction across
        many requests (:class:`repro.api.ScheduleSession`) inject a
        pre-built engine; it must belong to ``instance`` and is reset
        before use, so the result is identical to a one-shot solve.

        ``plane`` additionally injects a warm
        :class:`~repro.core.scoreplane.ScorePlane` of initial (Eq. 4,
        empty-schedule) scores.  The plane supplies the engine (passing a
        second, different engine is an error); solvers whose first move
        is a full score sweep — GRD (also as ``grd-heap``), TOP, beam roots,
        GRASP constructions — read the cached matrix instead of
        re-filling it, and the selection is bit-identical to a cold
        solve (the plane's warm-start contract).

        ``locks`` injects organizer pin/forbid constraints
        (:class:`~repro.interactive.locks.LockSet`).  Pins are committed
        into the result (and count toward ``k``); forbidden cells are
        never selected.  ``None`` or an empty lock set takes the exact
        unlocked code path, so the result is bit-identical to an
        unlocked solve; the base class re-checks the final schedule
        against the locks, so no solver can silently drop a pin or leak
        a forbidden pair.

        ``deadline`` bounds the solve's main loop: the solver raises
        :class:`DeadlineExceeded` at the first step that finds it
        passed.  ``None`` never expires, and a deadline that does not
        pass leaves the result bit-identical.
        """
        k = min(check_budget(k, "k"), instance.n_events)
        locks = LockSet.coerce(locks)
        if locks is not None:
            locks.validate_for(instance)
            if len(locks.pins) > k:
                raise LockError(
                    f"{len(locks.pins)} events are pinned but the budget "
                    f"allows only k={k} assignments"
                )
        if plane is not None:
            if engine is not None and engine is not plane.engine:
                raise ValueError(
                    "pass either engine= or plane= (the plane supplies "
                    "its own engine), not two different engines"
                )
            engine = plane.engine
        if engine is None:
            engine = self._engine_spec.build(instance)
        else:
            if engine.instance is not instance:
                raise ValueError(
                    "injected engine was built for a different instance"
                )
            engine.reset()
        checker = FeasibilityChecker(instance)
        stats = SolverStats()

        started = time.perf_counter()
        self._solve(
            instance, k, engine, checker, stats, plane=plane, locks=locks,
            deadline=NO_DEADLINE if deadline is None else deadline,
        )
        elapsed = time.perf_counter() - started

        schedule = engine.schedule
        if not is_schedule_feasible(instance, schedule):
            raise AssertionError(
                f"solver {self.name} produced an infeasible schedule — "
                f"this is a bug in the solver"
            )
        if locks is not None:
            try:
                locks.check_schedule(schedule)
            except LockError as exc:
                raise AssertionError(
                    f"solver {self.name} violated its locks — this is a "
                    f"bug in the solver: {exc}"
                ) from exc
        if self._strict and len(schedule) < k:
            raise ScheduleSizeError(
                f"{self.name} placed only {len(schedule)} of {k} assignments"
            )
        return ScheduleResult(
            solver=self.name,
            schedule=schedule,
            utility=engine.total_utility(),
            runtime_seconds=elapsed,
            requested_k=k,
            stats=stats,
        )

    @abstractmethod
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
        """Populate ``engine.schedule`` with up to ``k`` valid assignments.

        ``plane``, when given, caches the empty-schedule score matrix
        (see :meth:`_base_scores`); solvers that never sweep initial
        scores simply ignore it.  ``locks``, when given, is a validated,
        non-empty :class:`LockSet` whose pin count fits in ``k`` — the
        solver must commit every pin and never select a forbidden cell
        (the base class re-checks both).  ``deadline.check()`` runs at
        the top of every main-loop step (CONTRIBUTING: the registry's
        deadline conformance test fails a solver that never checks).
        """

    @staticmethod
    def _base_scores(
        engine: ScoreEngine,
        stats: SolverStats,
        plane: ScorePlane | None,
        locks: LockSet | None = None,
    ) -> "np.ndarray":
        """The ``(n_intervals, n_events)`` empty-schedule Eq. 4 matrix.

        Read through ``plane`` — the caller's warm cache, re-scoring only
        rows dirtied since its last use — or, without one, through a
        throwaway :class:`ScorePlane` over ``engine``, whose cold fill
        reads each interest column once for all intervals.  Warm and
        cold cells are bit-identical (the plane's warm-start contract).
        Either way the caller gets a private copy it may mutate, and
        ``stats.initial_scores`` counts the Eq. 4 evaluations actually
        performed — equal to ``|T| * |E|`` cold, typically ~0 warm.

        With ``locks``, forbidden cells and pinned events' columns come
        back as ``-inf`` (pinned events are committed separately via
        :meth:`_apply_pins`, so no sweep may pick them again).
        """
        if plane is None:
            plane = ScorePlane(engine)
        spent = plane.cells_filled + plane.cells_refreshed
        if locks is None:
            matrix = np.array(plane.ensure(), copy=True)
        else:
            matrix = plane.masked_copy(
                sorted(locks.forbids), sorted(locks.pinned_events)
            )
        stats.initial_scores += plane.cells_filled + plane.cells_refreshed - spent
        return matrix

    @staticmethod
    def _apply_pins(
        locks: LockSet,
        engine: ScoreEngine,
        checker: FeasibilityChecker,
        stats: SolverStats | None = None,
    ) -> None:
        """Commit every pinned assignment, in canonical pin order.

        Raises :class:`LockError` (naming the offending pin) when the
        pins are not jointly feasible — two pinned events sharing a
        location in one interval, or pins overrunning theta.  ``stats``
        counts each pin as an accepted assignment; pass ``None`` from
        solvers whose ``iterations`` counter means something else
        (GRASP's restart count).
        """
        for assignment in locks.pinned_assignments():
            try:
                checker.apply(assignment)
            except InfeasibleAssignmentError as exc:
                raise LockError(
                    f"pinned assignment {assignment} cannot be honored: {exc}"
                ) from exc
            engine.assign(assignment.event, assignment.interval)
            if stats is not None:
                stats.iterations += 1
