"""One session facade: both session kinds share every organizer method.

``ScheduleSession`` and ``ServingSession`` inherit their solve helpers,
gap reports, named versions, what-ifs, reports and stream replays from
one base class.  These tests keep the two from drifting apart again:
the methods are the same objects, each session takes the other's
responses, and both count requests by one rule.
"""

from __future__ import annotations

import inspect

import pytest

from repro.api import ScheduleSession, SolveRequest, solve_once
from repro.interactive import LockSet, VersionStore
from repro.serve import ServingSession

from tests.conftest import make_random_instance

KINDS = [ScheduleSession, ServingSession]

#: Every method and property both kinds must share, under one name.
SHARED = (
    "_request",
    "_spec",
    "solver_for",
    "registry",
    "default_engine",
    "requests_served",
    "solve_many",
    "gap_report",
    "save_version",
    "schedule_version",
    "versions",
    "diff_versions",
    "report",
    "what_if_theta",
    "what_if_locations",
    "competition_cost",
    "stream",
)


@pytest.fixture
def instance():
    return make_random_instance(seed=321)


def stream_trace(instance):
    from repro.workloads.config import ExperimentConfig
    from repro.workloads.traces import TraceConfig, TraceGenerator

    config = ExperimentConfig(
        k=3,
        n_users=instance.n_users,
        n_events=instance.n_events,
        n_intervals=instance.n_intervals,
    )
    return TraceGenerator(config, TraceConfig(n_ops=6), root_seed=5).generate()


class TestOneImplementation:
    @pytest.mark.parametrize("name", SHARED)
    def test_shared_method_is_one_object(self, name):
        assert getattr(ScheduleSession, name) is getattr(ServingSession, name)

    @pytest.mark.parametrize("name", ["engine_for", "plane_for", "instance"])
    def test_serving_session_reads_no_generation_zero_state(self, name):
        # on a serving session these would read generation 0
        assert not hasattr(ServingSession, name)

    def test_plain_session_has_one_version_getter(self):
        assert not hasattr(ScheduleSession, "version")
        assert "deadline_ms" not in inspect.signature(ScheduleSession.solve).parameters
        assert "max_wait_s" not in inspect.signature(ScheduleSession.solve).parameters

    @pytest.mark.parametrize("kind", KINDS)
    def test_positional_argument_must_be_a_request(self, instance, kind):
        with pytest.raises(TypeError, match="SolveRequest"):
            kind(instance).solve("grd")


def responses(instance):
    """The same locked request answered by each session kind and by
    ``solve_once``."""
    request = SolveRequest(k=2, locks=LockSet().forbid(0, 0))
    return {
        "plain": ScheduleSession(instance).solve(request),
        "serving": ServingSession(instance).solve(request),
        "once": solve_once(instance, request),
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", ["plain", "serving", "once"])
class TestResponsesCrossSessions:
    def test_gap_report_equals_the_bare_schedule_report(
        self, instance, kind, source
    ):
        response = responses(instance)[source]
        report = kind(instance).gap_report(response)
        bare = kind(instance).gap_report(
            response.schedule,
            response.result.requested_k,
            locks=response.request.locks,
            engine=response.engine,
        )
        assert report == bare
        assert report.k == 2 and report.version == 0

    def test_save_version_snapshots_the_response(self, instance, kind, source):
        response = responses(instance)[source]
        saved = kind(instance).save_version("draft", response)
        expected = VersionStore().save(
            "draft",
            response.schedule,
            response.utility,
            k=2,
            solver=response.result.solver,
            stamp=0,
        )
        assert saved == expected


@pytest.mark.parametrize("kind", KINDS)
def test_every_read_counts_once_and_saves_count_nothing(instance, kind):
    session = kind(instance)
    theta = instance.organizer.resources
    reads = [
        lambda: session.solve(k=2),
        lambda: session.gap_report({0: 0}, k=2),
        lambda: session.report(session.solve_many([SolveRequest(k=2)])[0].schedule),
        lambda: session.what_if_theta(2, [theta]),
        lambda: session.what_if_locations(2, [1]),
        lambda: session.competition_cost(2, 0),
        lambda: session.stream(stream_trace(instance)),
    ]
    served = []
    for read in reads:
        read()
        served.append(session.requests_served)
    # the report line also runs one solve through solve_many
    assert served == [1, 2, 4, 5, 6, 7, 8]

    session.save_version("a", session.solve(k=2))
    session.save_version("b", session.solve(k=3))
    assert session.requests_served == 10
    session.schedule_version("a")
    session.versions()
    session.diff_versions("a", "b")
    assert session.requests_served == 10
