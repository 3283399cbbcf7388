"""Deadline conformance: every one-shot solver checks its deadline.

Enforced for every one-shot solver the registry lists, with ``mu``
handed in as arrays and as a messy COO, the way the lock differential
suite enforces
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

from tests.conftest import INTEREST_INPUTS, make_random_instance

ONE_SHOT = solver_registry.one_shot_names()
K = 3


def solve(name: str, form: str, deadline: Deadline | None = None):
    instance = make_random_instance(seed=777, interest_input=form)
    seeded = solver_registry.get(name).seeded
    solver = solver_registry.create(name, seed=11 if seeded else None)
    return solver.solve(instance, K, deadline=deadline)


def test_every_one_shot_solver_is_covered():
    assert set(ONE_SHOT) >= {
        "beam", "exact", "grasp", "grd", "grd-heap", "rand", "sa", "top",
    }


@pytest.mark.parametrize("form", INTEREST_INPUTS)
@pytest.mark.parametrize("name", ONE_SHOT)
class TestDeadlineConformance:
    def test_passed_deadline_raises(self, name, form):
        with pytest.raises(DeadlineExceeded):
            solve(name, form, Deadline(-math.inf))

    def test_distant_deadline_changes_nothing(self, name, form):
        free = solve(name, form)
        bounded = solve(name, form, Deadline(math.inf))
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


class TestGraspPolishDeadline:
    """GRASP's local-search polish checks the request's deadline once
    per round, so a deadline that passes during a restart stops the
    polish instead of letting all ``polish_rounds`` rounds run."""

    def test_deadline_passing_after_construction_stops_the_polish(
        self, monkeypatch
    ):
        from repro.algorithms.grasp import GraspScheduler
        from repro.algorithms.local_search import LocalSearchRefiner

        class PassesAfterConstruction:
            """A deadline double that passes once a construction is done."""

            passed = False

            def check(self):
                if self.passed:
                    raise DeadlineExceeded("the solve's deadline has passed")

        deadline = PassesAfterConstruction()
        construct = GraspScheduler._one_construction

        def construct_then_pass(self, *args, **kwargs):
            built = construct(self, *args, **kwargs)
            deadline.passed = True
            return built

        rounds = []

        def always_improving(self, *args, **kwargs):
            rounds.append(1)
            return True

        monkeypatch.setattr(GraspScheduler, "_one_construction", construct_then_pass)
        monkeypatch.setattr(LocalSearchRefiner, "_one_round", always_improving)
        instance = make_random_instance(seed=777)
        solver = GraspScheduler(seed=11, restarts=2, polish_rounds=5)
        with pytest.raises(DeadlineExceeded):
            solver.solve(instance, K, deadline=deadline)
        assert rounds == []

    def test_polish_rounds_run_without_a_deadline(self, monkeypatch):
        """The same solve with no deadline runs every polish round: the
        counter above would see them."""
        from repro.algorithms.grasp import GraspScheduler
        from repro.algorithms.local_search import LocalSearchRefiner

        rounds = []

        def always_improving(self, *args, **kwargs):
            rounds.append(1)
            return True

        monkeypatch.setattr(LocalSearchRefiner, "_one_round", always_improving)
        instance = make_random_instance(seed=777)
        GraspScheduler(seed=11, restarts=2, polish_rounds=5).solve(instance, K)
        assert len(rounds) == 2 * 5
