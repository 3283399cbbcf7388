"""The total utility ``Omega(S)`` — Eq. 3 — and its interval decomposition.

``Omega(S)`` sums the expected attendance of every scheduled event.  Because
Eq. 1's denominator couples only events *sharing an interval*, the utility
decomposes by interval::

    Omega(S) = sum_t  sum_{u}  sigma[u, t] * M_t[u] / (K_t[u] + M_t[u])

where ``M_t[u] = sum_{e in E_t(S)} mu[u, e]`` is the scheduled interest mass
and ``K_t[u]`` the competing mass.  The identity follows by summing Eq. 1
over ``e in E_t(S)`` under the common denominator.  Both solvers and the
exhaustive baseline exploit this decomposition heavily.

:func:`total_utility` is the loop-based reference; :func:`total_utility_fast`
is the numpy evaluation of the decomposed form.  The test suite pins them to
each other.
"""

from __future__ import annotations

import numpy as np

from repro.core.attendance import interval_attendance, luce_denominators
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule

__all__ = [
    "total_utility",
    "total_utility_fast",
    "interval_utility_fast",
    "utility_upper_bound",
]


def total_utility(instance: SESInstance, schedule: Schedule) -> float:
    """``Omega(S)`` by direct application of Eq. 2 + Eq. 3 (reference).

    Each used interval's denominators are built once; the events' expected
    attendances are summed in ``scheduled_events`` order.
    """
    denominators = {
        interval: luce_denominators(instance, schedule, interval)
        for interval in schedule.used_intervals()
    }
    omegas = []
    for event in schedule.scheduled_events():
        interval = schedule.interval_of(event)
        omegas.append(
            interval_attendance(instance, event, interval, denominators[interval])
        )
    return sum(omegas)


def interval_utility_fast(
    instance: SESInstance,
    schedule: Schedule,
    interval: int,
) -> float:
    """Summed expected attendance of the events at one interval (vectorized)."""
    events = schedule.events_at(interval)
    if not events:
        return 0.0
    scheduled_mass = np.zeros(instance.n_users)
    for event in events:
        scheduled_mass += instance.interest.event_column(event)
    denominator = instance.competing_mass[interval] + scheduled_mass
    sigma = instance.activity.interval_column(interval)
    ratio = np.divide(
        scheduled_mass,
        denominator,
        out=np.zeros_like(scheduled_mass),
        where=denominator > 0.0,
    )
    return float(sigma @ ratio)


def total_utility_fast(instance: SESInstance, schedule: Schedule) -> float:
    """``Omega(S)`` via the per-interval decomposition (numpy)."""
    return sum(
        interval_utility_fast(instance, schedule, interval)
        for interval in schedule.used_intervals()
    )


def utility_upper_bound(instance: SESInstance) -> float:
    """A cheap bound: ``Omega(S) <= sum_{u,t} sigma[u, t]`` for any ``S``.

    Each user contributes at most ``sigma[u, t]`` per interval because the
    scheduled events' probabilities share one denominator.  Useful as a
    sanity ceiling in tests and as a pruning bound in exact search.
    """
    return float(instance.activity.matrix.sum())
