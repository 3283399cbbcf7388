"""What-if sweeps never read planes cached for the unmodified instance.

``ScheduleSession.plane_for`` caches warm :class:`ScorePlane` matrices
keyed to the *session's* instance, and a ``ServingSession``'s pool keeps
warm primaries; ``what_if_theta`` / ``what_if_locations`` solve
*modified copies* of that instance.  If a what-if solve ever
warm-started from a session's cached plane, its scores would belong to
the wrong theta / location layout and the curve would silently lie.
These regression tests lock in the isolation on both session kinds,
whatever form ``mu`` was handed in: sweeps computed through a warm,
heavily-cached session are bit-identical to sweeps computed cold on a
fresh solver, and running them leaves the session's cached planes
untouched.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import solver_registry
from repro.api import ScheduleSession, SolveRequest
from repro.harness import whatif
from repro.serve import ServingSession

from tests.conftest import INTEREST_INPUTS, make_random_instance

K = 3
THETAS = (8.0, 10.0, 14.0)
LOCATION_COUNTS = (1, 2, 3)


def build_case(form: str):
    instance = make_random_instance(seed=606, interest_input=form)
    return instance, "sparse"


def warm_session(kind, instance, engine):
    """A session whose plane cache is hot and whose engines are reused."""
    session = kind(instance, default_engine=engine)
    session.solve(SolveRequest(k=K, solver="grd"))
    session.solve(SolveRequest(k=K + 1, solver="top"))
    assert cached_planes(session)[0] > 0
    return session


def cached_planes(session):
    """Cells filled and refreshed by the session's warm planes, then
    their contents: a plain session's plane matrix, or a serving
    session's per-spec primary and pool counters."""
    if isinstance(session, ServingSession):
        (primary,) = session.pool.primary_stats().values()
        return (primary["cells_filled"], primary["cells_refreshed"],
                primary, session.pool_stats())
    plane = session.plane_for(None)
    return (plane.cells_filled, plane.cells_refreshed,
            plane.ensure().tolist())


@pytest.mark.parametrize("kind", [ScheduleSession, ServingSession])
class TestWhatIfIsolation:
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_theta_sweep_matches_cold_computation(self, form, kind):
        instance, engine = build_case(form)
        session = warm_session(kind, instance, engine)
        warm = session.what_if_theta(K, THETAS)
        cold = whatif.sweep_theta(
            instance, K, THETAS, solver=solver_registry.create("grd", engine=engine)
        )
        assert warm.utilities == cold.utilities

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_location_sweep_matches_cold_computation(self, form, kind):
        instance, engine = build_case(form)
        session = warm_session(kind, instance, engine)
        warm = session.what_if_locations(K, LOCATION_COUNTS)
        cold = whatif.sweep_locations(
            instance,
            K,
            LOCATION_COUNTS,
            solver=solver_registry.create("grd", engine=engine),
        )
        assert warm.utilities == cold.utilities

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_sweeps_leave_cached_planes_untouched(self, form, kind):
        """The dual hazard: a what-if must neither read the session plane
        nor write modified-instance scores back into it."""
        instance, engine = build_case(form)
        session = warm_session(kind, instance, engine)
        before = cached_planes(session)

        session.what_if_theta(K, THETAS)
        session.what_if_locations(K, LOCATION_COUNTS)
        session.competition_cost(K, 0)

        assert cached_planes(session) == before

    def test_interleaved_whatifs_do_not_perturb_later_solves(self, kind):
        """Solve, sweep, solve again: the second solve must be bit-identical
        to the first (same request, same cached plane)."""
        instance, engine = build_case("array")
        session = kind(instance, default_engine=engine)
        request = SolveRequest(k=K, solver="grd")
        first = session.solve(request)
        session.what_if_theta(K, THETAS)
        session.what_if_locations(K, LOCATION_COUNTS)
        second = session.solve(request)
        assert second.schedule == first.schedule
        assert second.utility == first.utility
