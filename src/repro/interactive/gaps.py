"""Gap reports: what a draft schedule left on the table, and why.

The hospitalist planning doctrine behind this module: a draft is only
useful to a human if every hole comes annotated with its feasible
fillers.  :func:`build_gap_report` takes a draft schedule and answers,
for every unscheduled event, *which intervals could still host it, at
what estimated marginal gain, and if none — why not* (budget exhausted,
cell forbidden by a lock, slot blocked by a location/theta conflict, or
simply dominated by what is already placed).

Every number is read straight off a warm
:class:`~repro.core.scoreplane.ScorePlane` — the report performs **zero**
extra Eq. 4 evaluations on a warm session (the fast-path counter check in
the test suite enforces it), so an organizer can ask for a fresh report
after every tweak without paying for a score sweep.

The gains are *empty-schedule estimates* (the plane's baseline), exactly
the quantities the greedy solvers rank by on their first move; they are
estimates, not exact deltas against the draft, and the report says so in
its field names.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.feasibility import FeasibilityChecker, explain_infeasibility
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet
from repro.utils.validation import check_budget

__all__ = ["GapCell", "EventGaps", "GapReport", "build_gap_report"]

#: Cell statuses, from "actionable" to "explains itself away".
#:
#: * ``open``      — feasible, and the budget still has room.
#: * ``displace``  — feasible, budget full, but the estimated gain beats
#:                   the weakest placed assignment's estimate.
#: * ``dominated`` — feasible, budget full, gain does not beat the
#:                   weakest placed assignment.
#: * ``blocked``   — infeasible next to the draft (location or theta).
#: * ``forbidden`` — ruled out by an organizer lock.
CELL_STATUSES = ("open", "displace", "dominated", "blocked", "forbidden")

#: Statuses an organizer could act on directly.
FILLABLE_STATUSES = frozenset({"open", "displace"})

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class GapCell:
    """One (interval, event) option for an unscheduled event."""

    interval: int
    gain: float
    status: str
    detail: str = ""

    @property
    def fillable(self) -> bool:
        return self.status in FILLABLE_STATUSES


@dataclass(frozen=True)
class EventGaps:
    """All interval options for one unscheduled event, best first."""

    event: int
    #: Best gain over fillable cells; ``-inf`` when nothing is fillable.
    best_gain: float
    cells: tuple[GapCell, ...]

    def fillable_cells(self) -> tuple[GapCell, ...]:
        return tuple(cell for cell in self.cells if cell.fillable)

    def describe(self) -> str:
        fillable = self.fillable_cells()
        if fillable:
            options = ", ".join(
                f"t{cell.interval} (+{cell.gain:.4f}, {cell.status})"
                for cell in fillable[:3]
            )
            more = f" +{len(fillable) - 3} more" if len(fillable) > 3 else ""
            return f"e{self.event}: {options}{more}"
        reasons = sorted({cell.status for cell in self.cells})
        return f"e{self.event}: no fillable interval ({'/'.join(reasons)})"


@dataclass(frozen=True)
class GapReport:
    """The organizer-facing answer to "what did the draft leave out?"."""

    #: The draft, as sorted ``(event, interval)`` pairs.
    schedule: tuple[tuple[int, int], ...]
    k: int
    #: Whether the draft already uses the whole budget.
    at_budget: bool
    #: ``(event, interval, estimate)`` of the weakest placed assignment
    #: (the displacement target), or ``None`` on an empty draft.
    weakest: tuple[int, int, float] | None
    #: Unscheduled events, sorted by best fillable gain descending.
    gaps: tuple[EventGaps, ...]
    #: Plane cells filled/refreshed while building the report — 0 on a
    #: warm session (the zero-extra-evaluations contract).
    cells_spent: int
    #: Serving-layer version stamp (0 for plain sessions).
    version: int = 0

    def gap_for(self, event: int) -> EventGaps:
        for gap in self.gaps:
            if gap.event == event:
                return gap
        raise KeyError(f"event {event} is not among the report's gaps")

    def describe(self) -> str:
        placed = len(self.schedule)
        head = (
            f"gap report: {placed}/{self.k} placed"
            f"{' (budget full)' if self.at_budget else ''}, "
            f"{len(self.gaps)} unscheduled"
        )
        if self.weakest is not None and self.at_budget:
            event, interval, estimate = self.weakest
            head += f"; weakest placed e{event}@t{interval} (~{estimate:.4f})"
        lines = [head]
        lines.extend("  " + gap.describe() for gap in self.gaps)
        return "\n".join(lines)


def build_gap_report(
    instance: SESInstance,
    schedule: Schedule | Mapping[int, int],
    k: int,
    plane: ScorePlane,
    *,
    locks: LockSet | Mapping[str, object] | None = None,
    limit: int | None = None,
) -> GapReport:
    """Build a :class:`GapReport` for ``schedule`` against ``instance``.

    ``plane`` must be a baseline (empty-schedule) plane over ``instance``
    — exactly what :meth:`repro.api.ScheduleSession.plane_for` caches and
    what serving replicas carry.  On a warm plane the report costs zero
    engine evaluations; a cold plane pays its one-off fill and every
    subsequent report is free.

    ``limit`` keeps only the top-``limit`` gap events (by best fillable
    gain); ``None`` reports every unscheduled event.
    """
    k = check_budget(k, "k")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    lock_set = LockSet.coerce(locks)
    if lock_set is not None:
        lock_set.validate_for(instance)
    mapping = (
        schedule.as_mapping() if isinstance(schedule, Schedule) else dict(schedule)
    )

    checker = FeasibilityChecker(instance)
    for event in sorted(mapping):
        checker.apply(Assignment(event=event, interval=mapping[event]))

    spent_before = plane.cells_filled + plane.cells_refreshed
    matrix = plane.ensure()
    cells_spent = plane.cells_filled + plane.cells_refreshed - spent_before

    weakest: tuple[int, int, float] | None = None
    for event in sorted(mapping):
        estimate = float(matrix[mapping[event], event])
        if weakest is None or estimate < weakest[2]:
            weakest = (event, mapping[event], estimate)
    at_budget = len(mapping) >= k

    gaps: list[EventGaps] = []
    for event in range(instance.n_events):
        if event in mapping:
            continue
        cells: list[GapCell] = []
        for interval in range(instance.n_intervals):
            gain = float(matrix[interval, event])
            assignment = Assignment(event=event, interval=interval)
            if lock_set is not None and lock_set.is_forbidden(interval, event):
                status, detail = "forbidden", "ruled out by an organizer lock"
            elif not checker.is_feasible(assignment):
                status = "blocked"
                detail = explain_infeasibility(instance, checker, assignment)
            elif not at_budget:
                status, detail = "open", "budget has room"
            elif weakest is not None and gain > weakest[2] + _GAIN_EPS:
                status = "displace"
                detail = (
                    f"beats weakest placed e{weakest[0]}@t{weakest[1]} "
                    f"(~{weakest[2]:.4f})"
                )
            else:
                status, detail = "dominated", "budget full; gain does not beat it"
            cells.append(
                GapCell(interval=interval, gain=gain, status=status, detail=detail)
            )
        cells.sort(key=lambda cell: (-cell.gain, cell.interval))
        best_gain = max(
            (cell.gain for cell in cells if cell.fillable), default=-np.inf
        )
        gaps.append(
            EventGaps(event=event, best_gain=float(best_gain), cells=tuple(cells))
        )

    gaps.sort(key=lambda gap: (-gap.best_gain, gap.event))
    if limit is not None:
        gaps = gaps[:limit]
    return GapReport(
        schedule=tuple(sorted((e, t) for e, t in mapping.items())),
        k=k,
        at_budget=at_budget,
        weakest=weakest,
        gaps=tuple(gaps),
        cells_spent=cells_spent,
    )
