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

These functions are the **reference semantics**: direct transliterations
of the equations, cross-checked against the sparse engine in
:mod:`repro.core.engine` by the test suite.  A query gathers the interest
columns it needs once, as dense vectors — :func:`luce_denominators` builds
an interval's denominator for every user — and then loops over users in
Python, so its sums run in the same order, term for term, as the
per-element equations.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import UnknownEntityError
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule

__all__ = [
    "luce_denominators",
    "luce_denominator",
    "attendance_probability",
    "expected_attendance",
    "interval_attendance",
]


def luce_denominators(
    instance: SESInstance,
    schedule: Schedule,
    interval: int,
) -> np.ndarray:
    """The shared denominator of Eq. 1 at ``interval``, one entry per user.

    Starts at ``0.0`` and adds the interest columns of the competing
    events pinned to the interval, in ``competing_by_interval`` order,
    then those of the events the schedule places there, in ``events_at``
    order: per user, the additions of a scalar loop in the same order.
    """
    total = np.zeros(instance.n_users)
    for rival in instance.competing_by_interval[interval]:
        total += instance.interest.competing_column(rival)
    for event in schedule.events_at(interval):
        total += instance.interest.event_column(event)
    return total


def luce_denominator(
    instance: SESInstance,
    schedule: Schedule,
    user: int,
    interval: int,
) -> float:
    """The shared denominator of Eq. 1 for ``user`` at ``interval``."""
    return float(luce_denominators(instance, schedule, interval)[user])


def _probability(sigma: float, mu: float, denominator: float) -> float:
    """Eq. 1 for one user, with the ``0 / 0 = 0`` convention."""
    if denominator == 0.0:
        return 0.0
    return sigma * mu / denominator


def _scheduled_interval(schedule: Schedule, event: int) -> int:
    interval = schedule.interval_of(event)
    if interval is None:
        raise UnknownEntityError(
            f"event {event} is not scheduled; rho is defined only for "
            f"scheduled events (use scoring.assignment_score for hypotheticals)"
        )
    return interval


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
    interval = _scheduled_interval(schedule, event)
    return _probability(
        instance.activity.sigma(user, interval),
        instance.interest.mu_event(user, event),
        luce_denominator(instance, schedule, user, interval),
    )


def interval_attendance(
    instance: SESInstance,
    event: int,
    interval: int,
    denominators: np.ndarray,
) -> float:
    """Eq. 2 for ``event`` at ``interval``, given that interval's
    :func:`luce_denominators`.

    The per-user terms are summed in user order in Python, exactly as
    summing :func:`attendance_probability` over users would.
    """
    sigma = instance.activity.interval_column(interval).tolist()
    mu = instance.interest.event_column(event).tolist()
    return sum(
        _probability(s, m, d)
        for s, m, d in zip(sigma, mu, denominators.tolist())
    )


def expected_attendance(
    instance: SESInstance,
    schedule: Schedule,
    event: int,
) -> float:
    """``omega(e, t_e(S) | S)`` — Eq. 2: expected head-count of ``event``."""
    interval = _scheduled_interval(schedule, event)
    return interval_attendance(
        instance, event, interval, luce_denominators(instance, schedule, interval)
    )
