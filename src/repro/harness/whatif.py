"""What-if analysis: how constraint knobs shape achievable attendance.

Capacity planning questions an organizer actually asks:

* "If I hire more staff per slot (raise theta), what do I gain?"
* "Is renting another stage worth it?"
* "How much attendance does each rival event cost me?"

Each sweep re-solves a *modified copy* of the instance with one knob
turned — the instance itself is immutable, so modifications go through
reconstruction, exactly like the incremental scheduler.  Results come
back as (knob value, utility) curves plus convenience marginals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.algorithms.base import Scheduler
from repro.algorithms.greedy import GreedyScheduler
from repro.core.activity import ActivityModel
from repro.core.entities import CandidateEvent, Organizer
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix

__all__ = ["WhatIfCurve", "sweep_theta", "sweep_locations", "competition_cost"]


@dataclass(frozen=True)
class WhatIfCurve:
    """A (knob value -> utility) curve from a what-if sweep."""

    knob: str
    values: tuple[float, ...]
    utilities: tuple[float, ...]

    def marginal(self) -> tuple[float, ...]:
        """Utility gained per knob step (first differences)."""
        return tuple(
            after - before
            for before, after in zip(self.utilities, self.utilities[1:])
        )

    def best(self) -> tuple[float, float]:
        """(knob value, utility) of the best point."""
        index = max(range(len(self.utilities)), key=self.utilities.__getitem__)
        return self.values[index], self.utilities[index]


def _with_organizer(instance: SESInstance, theta: float) -> SESInstance:
    return SESInstance(
        users=instance.users,
        intervals=instance.intervals,
        events=instance.events,
        competing=instance.competing,
        interest=instance.interest,
        activity=ActivityModel(instance.activity.matrix),
        organizer=Organizer(resources=theta, name=instance.organizer.name),
    )


def _with_locations(instance: SESInstance, n_locations: int) -> SESInstance:
    events = tuple(
        CandidateEvent(
            index=event.index,
            location=event.location % n_locations,
            required_resources=event.required_resources,
            name=event.name,
            tags=event.tags,
        )
        for event in instance.events
    )
    return SESInstance(
        users=instance.users,
        intervals=instance.intervals,
        events=events,
        competing=instance.competing,
        interest=instance.interest,
        activity=ActivityModel(instance.activity.matrix),
        organizer=instance.organizer,
    )


def _without_competing(instance: SESInstance, drop: int) -> SESInstance:
    from repro.core.entities import CompetingEvent

    keep = [c for c in range(instance.n_competing) if c != drop]
    competing = tuple(
        CompetingEvent(
            index=new_index,
            interval=instance.competing[old].interval,
            name=instance.competing[old].name,
            tags=instance.competing[old].tags,
        )
        for new_index, old in enumerate(keep)
    )
    # slice the CSC columns and share the candidate matrix: no dense copy
    interest = InterestMatrix.adopt(
        instance.interest.candidate_sparse,
        instance.interest.competing_sparse[:, keep],
    )
    return SESInstance(
        users=instance.users,
        intervals=instance.intervals,
        events=instance.events,
        competing=competing,
        interest=interest,
        activity=ActivityModel(instance.activity.matrix),
        organizer=instance.organizer,
    )


def sweep_theta(
    instance: SESInstance,
    k: int,
    thetas: Sequence[float],
    solver: Scheduler | None = None,
) -> WhatIfCurve:
    """Utility achievable at each staffing level.

    ``thetas`` must all be at least the largest single ``xi`` in the
    instance (otherwise some event could never be scheduled and instance
    validation rejects the copy).
    """
    if not thetas:
        raise ValueError("thetas must be non-empty")
    solver = solver or GreedyScheduler()
    max_xi = max(
        (event.required_resources for event in instance.events), default=0.0
    )
    utilities = []
    for theta in thetas:
        if theta < max_xi:
            raise ValueError(
                f"theta {theta} is below the largest required_resources "
                f"{max_xi}; that instance would be invalid"
            )
        utilities.append(solver.solve(_with_organizer(instance, theta), k).utility)
    return WhatIfCurve(
        knob="theta", values=tuple(thetas), utilities=tuple(utilities)
    )


def sweep_locations(
    instance: SESInstance,
    k: int,
    location_counts: Sequence[int],
    solver: Scheduler | None = None,
) -> WhatIfCurve:
    """Utility achievable as the venue budget varies.

    Events are folded onto ``n`` locations by ``location % n`` — the same
    construction the Section IV.A builder uses — so smaller counts mean
    strictly more conflicts.
    """
    if not location_counts:
        raise ValueError("location_counts must be non-empty")
    if any(count <= 0 for count in location_counts):
        raise ValueError(f"location counts must be positive: {location_counts}")
    solver = solver or GreedyScheduler()
    utilities = [
        solver.solve(_with_locations(instance, count), k).utility
        for count in location_counts
    ]
    return WhatIfCurve(
        knob="locations",
        values=tuple(float(count) for count in location_counts),
        utilities=tuple(utilities),
    )


def competition_cost(
    instance: SESInstance,
    k: int,
    competing_index: int,
    solver: Scheduler | None = None,
) -> float:
    """Attendance recovered if one competing event vanished.

    Computed as ``utility(without rival) - utility(with rival)``; >= 0 up
    to solver noise, since removing competition only shrinks Luce
    denominators.
    """
    if not 0 <= competing_index < instance.n_competing:
        raise IndexError(
            f"competing_index {competing_index} out of range "
            f"[0, {instance.n_competing})"
        )
    solver = solver or GreedyScheduler()
    with_rival = solver.solve(instance, k).utility
    without_rival = solver.solve(
        _without_competing(instance, competing_index), k
    ).utility
    return without_rival - with_rival
