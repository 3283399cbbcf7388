"""Feasibility of schedules and assignments (paper Section II).

A schedule ``S`` is feasible iff, inside every interval ``t``:

1. **location constraint** — no two events of ``E_t(S)`` share a location;
2. **resources constraint** — ``sum_{e in E_t(S)} xi_e <= theta``.

A *valid* assignment additionally requires the event to be unscheduled.

:class:`FeasibilityChecker` maintains the per-interval location sets and
resource totals incrementally, so greedy solvers pay O(1) per feasibility
probe instead of re-scanning the schedule.  Two vector probes answer
:meth:`~FeasibilityChecker.is_valid` for many cells at once, with the
same float comparisons: :meth:`~FeasibilityChecker.valid_events` for one
interval and many events (GRD's eviction after a pick) and
:meth:`~FeasibilityChecker.valid_intervals` for one event and every
interval (the incremental scheduler's displacement pass).  Both read the
events' locations and resources from the instance at call time, so they
stay correct over a :class:`~repro.core.live.LiveInstance` that gained or
lost events since the checker was built.  :func:`is_schedule_feasible`
is the stateless one-shot variant used by validators and tests.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import InfeasibleAssignmentError
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule

__all__ = ["FeasibilityChecker", "is_schedule_feasible", "explain_infeasibility"]

# Tolerance for the resources constraint: xi values are real numbers, and a
# chain of float additions must not spuriously reject a schedule that is
# exactly at capacity.
_RESOURCE_EPS = 1e-9


class FeasibilityChecker:
    """Incremental tracker of the location and resources constraints.

    The checker mirrors a schedule: call :meth:`apply` after every accepted
    assignment (and :meth:`unapply` after removals).  Probing with
    :meth:`is_feasible`/:meth:`is_valid` never mutates state.
    """

    def __init__(
        self, instance: SESInstance, schedule: Schedule | None = None
    ) -> None:
        self._instance = instance
        self._locations_used: dict[int, set[int]] = {}
        self._resources_used: dict[int, float] = {}
        self._assigned_events: set[int] = set()
        if schedule is not None:
            for assignment in schedule:
                self.apply(assignment)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def is_feasible(self, assignment: Assignment) -> bool:
        """Would adding ``assignment`` keep both interval constraints?"""
        event = self._instance.events[assignment.event]
        interval = assignment.interval
        used_locations = self._locations_used.get(interval)
        if used_locations and event.location in used_locations:
            return False
        budget = self._resources_used.get(interval, 0.0) + event.required_resources
        return budget <= self._instance.theta + _RESOURCE_EPS

    def is_valid(self, assignment: Assignment) -> bool:
        """Feasible *and* the event is not already scheduled (paper's validity)."""
        if assignment.event in self._assigned_events:
            return False
        return self.is_feasible(assignment)

    def valid_events(self, interval: int, events: Sequence[int]) -> np.ndarray:
        """:meth:`is_valid` for each of ``events`` at ``interval``, as a mask."""
        catalog = self._instance.events
        chosen = [catalog[int(event)] for event in events]
        required = np.array(
            [event.required_resources for event in chosen], dtype=np.float64
        )
        valid = (
            self._resources_used.get(interval, 0.0) + required
            <= self._instance.theta + _RESOURCE_EPS
        )
        used_locations = self._locations_used.get(interval)
        if used_locations:
            valid &= np.array(
                [event.location not in used_locations for event in chosen],
                dtype=bool,
            )
        if self._assigned_events:
            valid &= np.array(
                [int(event) not in self._assigned_events for event in events],
                dtype=bool,
            )
        return valid

    def valid_intervals(self, event: int) -> np.ndarray:
        """:meth:`is_valid` for ``event`` at every interval, as a mask."""
        n_intervals = self._instance.n_intervals
        if event in self._assigned_events:
            return np.zeros(n_intervals, dtype=bool)
        candidate = self._instance.events[event]
        used = np.zeros(n_intervals)
        for interval, resources in self._resources_used.items():
            used[interval] = resources
        valid = (
            used + candidate.required_resources
            <= self._instance.theta + _RESOURCE_EPS
        )
        for interval, locations in self._locations_used.items():
            if candidate.location in locations:
                valid[interval] = False
        return valid

    def is_event_assigned(self, event: int) -> bool:
        return event in self._assigned_events

    def remaining_resources(self, interval: int) -> float:
        """Capacity left at ``interval``."""
        return self._instance.theta - self._resources_used.get(interval, 0.0)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply(self, assignment: Assignment) -> None:
        """Record an accepted assignment; raises if it is not valid."""
        if not self.is_valid(assignment):
            raise InfeasibleAssignmentError(
                f"{assignment} is not valid: "
                + explain_infeasibility(self._instance, self, assignment)
            )
        event = self._instance.events[assignment.event]
        interval = assignment.interval
        self._locations_used.setdefault(interval, set()).add(event.location)
        self._resources_used[interval] = (
            self._resources_used.get(interval, 0.0) + event.required_resources
        )
        self._assigned_events.add(assignment.event)

    def unapply(self, assignment: Assignment) -> None:
        """Undo a previously applied assignment."""
        if assignment.event not in self._assigned_events:
            raise InfeasibleAssignmentError(f"{assignment} was never applied")
        event = self._instance.events[assignment.event]
        interval = assignment.interval
        self._locations_used[interval].discard(event.location)
        self._resources_used[interval] -= event.required_resources
        self._assigned_events.discard(assignment.event)

    # ------------------------------------------------------------------
    # snapshots (checkpoint/recovery)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, list]:
        """JSON-ready snapshot of the tracker's accumulated state.

        The per-interval resource sums are floats accumulated in
        apply/unapply order; rebuilding them from the schedule lands
        within an ulp of the live values, which can flip a feasibility
        probe right at the capacity boundary.  The snapshot preserves
        the exact bits.
        """
        return {
            "resources": [
                [interval, used]
                for interval, used in sorted(self._resources_used.items())
            ],
            "locations": [
                [interval, sorted(locations)]
                for interval, locations in sorted(self._locations_used.items())
            ],
            "events": sorted(self._assigned_events),
        }

    def restore_state(self, state: dict[str, list]) -> None:
        """Adopt a snapshot produced by :meth:`export_state`."""
        self._resources_used = {
            int(interval): float(used) for interval, used in state["resources"]
        }
        self._locations_used = {
            int(interval): set(locations)
            for interval, locations in state["locations"]
        }
        self._assigned_events = set(state["events"])


def is_schedule_feasible(instance: SESInstance, schedule: Schedule) -> bool:
    """One-shot check of the paper's two feasibility constraints."""
    for interval in schedule.used_intervals():
        events = schedule.events_at(interval)
        locations = [instance.events[e].location for e in events]
        if len(locations) != len(set(locations)):
            return False
        load = sum(instance.events[e].required_resources for e in events)
        if load > instance.theta + _RESOURCE_EPS:
            return False
    return True


def explain_infeasibility(
    instance: SESInstance,
    checker: FeasibilityChecker,
    assignment: Assignment,
) -> str:
    """Human-readable reason an assignment is rejected (for error messages)."""
    reasons = []
    if checker.is_event_assigned(assignment.event):
        reasons.append(f"event {assignment.event} is already scheduled")
    event = instance.events[assignment.event]
    used = checker._locations_used.get(assignment.interval, set())
    if event.location in used:
        reasons.append(
            f"location {event.location} is already occupied at interval "
            f"{assignment.interval}"
        )
    remaining = checker.remaining_resources(assignment.interval)
    if event.required_resources > remaining + _RESOURCE_EPS:
        reasons.append(
            f"requires {event.required_resources} resources but only "
            f"{remaining:.6g} remain at interval {assignment.interval}"
        )
    return "; ".join(reasons) if reasons else "assignment is actually valid"
