"""What-if sweeps never read planes cached for the unmodified instance.

``ScheduleSession.plane_for`` caches warm :class:`ScorePlane` matrices
keyed to the *session's* instance; ``what_if_theta`` /
``what_if_locations`` solve *modified copies* of that instance.  If a
what-if solve ever warm-started from the session's cached plane, its
scores would belong to the wrong theta / location layout and the curve
would silently lie.  These regression tests lock in the isolation,
whatever form ``mu`` was handed in: sweeps computed through a warm, heavily-cached
session are bit-identical to sweeps computed cold on a fresh solver,
and running them leaves the session's cached planes untouched.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import solver_registry
from repro.api import ScheduleSession, SolveRequest
from repro.harness import whatif

from tests.conftest import INTEREST_INPUTS, make_random_instance

K = 3
THETAS = (8.0, 10.0, 14.0)
LOCATION_COUNTS = (1, 2, 3)


def build_case(form: str):
    instance = make_random_instance(seed=606, interest_input=form)
    return instance, "sparse"


def warm_session(instance, engine):
    """A session whose plane cache is hot and whose engines are reused."""
    session = ScheduleSession(instance, default_engine=engine)
    session.solve(SolveRequest(k=K, solver="grd"))
    session.solve(SolveRequest(k=K + 1, solver="top"))
    assert session.plane_for(None).cells_filled > 0
    return session


class TestWhatIfIsolation:
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_theta_sweep_matches_cold_computation(self, form):
        instance, engine = build_case(form)
        session = warm_session(instance, engine)
        warm = session.what_if_theta(K, THETAS)
        cold = whatif.sweep_theta(
            instance, K, THETAS, solver=solver_registry.create("grd", engine=engine)
        )
        assert warm.utilities == cold.utilities

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_location_sweep_matches_cold_computation(self, form):
        instance, engine = build_case(form)
        session = warm_session(instance, engine)
        warm = session.what_if_locations(K, LOCATION_COUNTS)
        cold = whatif.sweep_locations(
            instance,
            K,
            LOCATION_COUNTS,
            solver=solver_registry.create("grd", engine=engine),
        )
        assert warm.utilities == cold.utilities

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_sweeps_leave_cached_planes_untouched(self, form):
        """The dual hazard: a what-if must neither read the session plane
        nor write modified-instance scores back into it."""
        instance, engine = build_case(form)
        session = warm_session(instance, engine)
        plane = session.plane_for(None)
        before = (plane.cells_filled, plane.cells_refreshed)
        matrix_before = plane.ensure().copy()

        session.what_if_theta(K, THETAS)
        session.what_if_locations(K, LOCATION_COUNTS)
        session.competition_cost(K, 0)

        assert (plane.cells_filled, plane.cells_refreshed) == before
        assert (plane.ensure() == matrix_before).all()

    def test_interleaved_whatifs_do_not_perturb_later_solves(self):
        """Solve, sweep, solve again: the second solve must be bit-identical
        to the first (same request, same cached plane)."""
        instance, engine = build_case("array")
        session = ScheduleSession(instance, default_engine=engine)
        request = SolveRequest(k=K, solver="grd")
        first = session.solve(request)
        session.what_if_theta(K, THETAS)
        session.what_if_locations(K, LOCATION_COUNTS)
        second = session.solve(request)
        assert second.schedule == first.schedule
        assert second.utility == first.utility
