"""Deadline conformance: every one-shot solver checks its deadline.

Enforced for every one-shot solver the registry lists, on dense and
sparse interest storage, the way the lock differential suite enforces
"empty locks = unlocked":

* a deadline that has always passed (``-inf``) makes
  ``solve(..., deadline=)`` raise :class:`DeadlineExceeded` — a solver
  whose main loop never checks its deadline fails here;
* a deadline that never passes (``inf``) returns the schedule, the
  utility bits and the work counters of a solve without one.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms.base import NO_DEADLINE, Deadline
from repro.algorithms.registry import solver_registry
from repro.core.errors import DeadlineExceeded, SESError

from tests.conftest import make_random_instance

ONE_SHOT = solver_registry.one_shot_names()
BACKENDS = ("dense", "sparse")
K = 3


def solve(name: str, backend: str, deadline: Deadline | None = None):
    instance = make_random_instance(seed=777, interest_backend=backend)
    seeded = solver_registry.get(name).seeded
    solver = solver_registry.create(name, seed=11 if seeded else None)
    return solver.solve(instance, K, deadline=deadline)


def test_every_one_shot_solver_is_covered():
    assert set(ONE_SHOT) >= {
        "beam", "exact", "grasp", "grd", "grd-heap", "rand", "sa", "top",
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ONE_SHOT)
class TestDeadlineConformance:
    def test_passed_deadline_raises(self, name, backend):
        with pytest.raises(DeadlineExceeded):
            solve(name, backend, Deadline(-math.inf))

    def test_distant_deadline_changes_nothing(self, name, backend):
        free = solve(name, backend)
        bounded = solve(name, backend, Deadline(math.inf))
        assert bounded.schedule == free.schedule
        assert bounded.utility.hex() == free.utility.hex()
        assert bounded.stats == free.stats


class TestDeadline:
    def test_after_counts_from_now(self):
        deadline = Deadline.after(60.0)
        assert 0.0 < deadline.remaining() <= 60.0
        assert not deadline.expired()
        deadline.check()

    def test_zero_budget_has_passed(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="deadline"):
            deadline.check()

    def test_no_deadline_never_passes(self):
        assert NO_DEADLINE == Deadline.after(math.inf)
        assert NO_DEADLINE.remaining() == math.inf
        assert not NO_DEADLINE.expired()

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Deadline(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            Deadline.after(math.nan)

    def test_exceeded_is_a_library_error(self):
        assert issubclass(DeadlineExceeded, SESError)
