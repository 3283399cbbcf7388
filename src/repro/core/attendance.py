"""Attendance probabilities — Eq. 1 and Eq. 2 of the paper.

Following Luce's choice axiom, a user splits their interval-``t`` activity
probability ``sigma[u, t]`` across *everything* happening at ``t``: the
competing events ``C_t`` and the organizer's own co-scheduled events
``E_t(S)``::

    rho(u, e, t | S) = sigma[u, t] * mu[u, e]
                       / ( sum_{c in C_t} mu[u, c] + sum_{p in E_t(S)} mu[u, p] )

with the convention ``0 / 0 = 0`` (a user with zero interest in everything
at ``t`` attends nothing).  The expected attendance of a scheduled event is
the sum of ``rho`` over users (Eq. 2).

These functions are the **reference semantics**: direct, loop-based
transliterations of the equations.  They are deliberately unoptimized — the
sparse engine in :mod:`repro.core.engine` is cross-checked against them
in the test suite.
"""

from __future__ import annotations

from repro.core.errors import UnknownEntityError
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule

__all__ = [
    "luce_denominator",
    "attendance_probability",
    "expected_attendance",
]


def luce_denominator(
    instance: SESInstance,
    schedule: Schedule,
    user: int,
    interval: int,
) -> float:
    """The shared denominator of Eq. 1 for ``user`` at ``interval``.

    Sums the user's interest over the competing events pinned to the
    interval and over every event the schedule places there.
    """
    total = 0.0
    for rival in instance.competing_by_interval[interval]:
        total += instance.interest.mu_competing(user, rival)
    for event in schedule.events_at(interval):
        total += instance.interest.mu_event(user, event)
    return total


def attendance_probability(
    instance: SESInstance,
    schedule: Schedule,
    user: int,
    event: int,
) -> float:
    """``rho(u, e, t_e(S) | S)`` — Eq. 1 — for a *scheduled* event.

    Raises :class:`UnknownEntityError` when ``event`` is not in ``E(S)``:
    the paper only defines ``rho`` for events the schedule actually places.
    """
    interval = schedule.interval_of(event)
    if interval is None:
        raise UnknownEntityError(
            f"event {event} is not scheduled; rho is defined only for "
            f"scheduled events (use scoring.assignment_score for hypotheticals)"
        )
    denominator = luce_denominator(instance, schedule, user, interval)
    if denominator == 0.0:
        return 0.0
    sigma = instance.activity.sigma(user, interval)
    mu = instance.interest.mu_event(user, event)
    return sigma * mu / denominator


def expected_attendance(
    instance: SESInstance,
    schedule: Schedule,
    event: int,
) -> float:
    """``omega(e, t_e(S) | S)`` — Eq. 2: expected head-count of ``event``."""
    return sum(
        attendance_probability(instance, schedule, user, event)
        for user in range(instance.n_users)
    )
