"""Assignment scores — Eq. 4 — the marginal-gain oracle driving GRD.

The *score* of an assignment ``alpha_r^t`` against a schedule ``S`` (with
``r`` unscheduled) is the change in total utility from adding it::

    score(alpha_r^t | S) = sum_{e in E_t(S) + {r}} omega'(e, t)
                         - sum_{e in E_t(S)}       omega(e, t)

where ``omega'`` is the expected attendance *after* ``r`` joins the interval
(the denominator of Eq. 1 grows by ``mu[u, r]`` for every sibling event).
Only interval ``t`` is affected, so the score equals the global utility
delta ``Omega(S + alpha_r^t) - Omega(S)``.

Two provable facts shape the solvers (both are property-tested):

* **non-negativity** — per user the gain is ``f(M + m_r) - f(M)`` with
  ``f(M) = M / (K + M)`` increasing, so scores are never negative;
* **diminishing returns** — ``f`` is concave, so adding other events to the
  same interval can only *lower* the score of a pending assignment.  This
  monotone staleness is what makes GRD's lazy rescoring exact.

:func:`assignment_score` is the loop-based reference implementation: it
gathers the interval's columns once and loops over users in Python (see
:mod:`repro.core.attendance`).  The batched equivalent lives in
:class:`repro.core.engine.SparseEngine`.
"""

from __future__ import annotations

import numpy as np

from repro.core.attendance import luce_denominators
from repro.core.errors import DuplicateEventError
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule

__all__ = ["assignment_score"]


def assignment_score(
    instance: SESInstance,
    schedule: Schedule,
    assignment: Assignment,
) -> float:
    """Eq. 4 — utility gain of adding ``assignment`` to ``schedule``.

    Raises :class:`DuplicateEventError` if the event is already scheduled
    (the paper defines the score only for ``r`` not in ``E(S)``).
    """
    event, interval = assignment.event, assignment.interval
    if schedule.contains_event(event):
        raise DuplicateEventError(
            f"event {event} is already scheduled; Eq. 4 requires r not in E(S)"
        )
    old_denominators = luce_denominators(instance, schedule, interval)
    sibling_masses = np.zeros(instance.n_users)
    for sibling in schedule.events_at(interval):
        sibling_masses += instance.interest.event_column(sibling)
    columns = zip(
        old_denominators.tolist(),
        instance.interest.event_column(event).tolist(),
        sibling_masses.tolist(),
        instance.activity.interval_column(interval).tolist(),
    )

    score = 0.0
    for old_denominator, mu, sibling_mass, sigma in columns:
        new_denominator = old_denominator + mu
        if new_denominator == 0.0:
            continue
        # attendance of the siblings after r joins, minus before
        after = sigma * (sibling_mass + mu) / new_denominator
        before = 0.0
        if old_denominator > 0.0:
            before = sigma * sibling_mass / old_denominator
        score += after - before
    return score
