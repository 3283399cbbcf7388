"""Hypothesis strategies for SES instances and schedules.

Strategy design: rather than generating raw matrices element-by-element
(slow to shrink, slow to run), we generate *structure* — sizes, seeds,
densities — and materialize instances through the same deterministic
factory the unit tests use.  Shrinking then walks toward smaller sizes,
which is what actually simplifies counterexamples here.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.schedule import Assignment, Schedule

from tests.conftest import make_random_instance


@st.composite
def ses_instances(
    draw,
    max_users: int = 12,
    max_events: int = 6,
    max_intervals: int = 4,
    inputs: tuple[str, ...] = ("array",),
) -> SESInstance:
    """A random, always-valid SES instance of bounded size.

    ``inputs`` lists the forms ``mu`` may be handed to ``InterestMatrix``
    in (see ``tests.conftest.INTEREST_INPUTS``).  The all-zero interest
    edge case (density 0) is part of the draw.
    """
    n_users = draw(st.integers(1, max_users))
    n_events = draw(st.integers(1, max_events))
    n_intervals = draw(st.integers(1, max_intervals))
    n_competing = draw(st.integers(0, 5))
    n_locations = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    theta = draw(st.sampled_from([4.0, 8.0, 100.0]))
    seed = draw(st.integers(0, 2**20))
    form = draw(st.sampled_from(inputs))
    return make_random_instance(
        n_users=n_users,
        n_events=n_events,
        n_intervals=n_intervals,
        n_competing=n_competing,
        n_locations=n_locations,
        theta=theta,
        xi_range=(0.5, min(3.0, theta)),
        interest_density=density,
        seed=seed,
        interest_input=form,
    )


@st.composite
def instances_with_schedules(
    draw,
    inputs: tuple[str, ...] = ("array",),
) -> tuple[SESInstance, Schedule]:
    """An instance plus a feasible schedule over it (possibly empty)."""
    instance = draw(ses_instances(inputs=inputs))
    seed = draw(st.integers(0, 2**20))
    target = draw(st.integers(0, instance.n_events))

    rng = np.random.default_rng(seed)
    checker = FeasibilityChecker(instance)
    schedule = Schedule(instance)
    order = rng.permutation(instance.n_events * instance.n_intervals)
    for flat in order:
        if len(schedule) >= target:
            break
        event, interval = divmod(int(flat), instance.n_intervals)
        assignment = Assignment(event=event, interval=interval)
        if checker.is_valid(assignment):
            checker.apply(assignment)
            schedule.add(assignment)
    return instance, schedule
