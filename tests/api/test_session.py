"""ScheduleSession: request/response contract, engine caching, parity.

The load-bearing property is *session-reuse parity*: N requests served
through one session (sharing a cached, reset-between-requests engine)
must be bit-identical to N independent one-shot solves.  If reset() ever
leaked state between requests, serving would silently corrupt results —
so the parity tests cover deterministic and seeded solvers, multiple
engine specs and interleaved ks.
"""

import pytest

import repro.core.engine as engine_module
from repro.api import (
    EngineSpec,
    ScheduleSession,
    SolveRequest,
    SolveResponse,
    solve_once,
    solver_registry,
)
from repro.core.engine import ReferenceEngine, SparseEngine

from tests.conftest import make_random_instance


@pytest.fixture
def instance():
    return make_random_instance(seed=400)


class TestRequest:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SolveRequest(k=-1)

    def test_engine_string_coerced_to_spec(self):
        request = SolveRequest(k=2, engine="sparse")
        assert request.engine == EngineSpec("sparse")

    def test_params_snapshot_at_construction(self):
        knobs = {"steps": 100}
        request = SolveRequest(k=2, solver="sa", seed=1, params=knobs)
        knobs["steps"] = 999
        assert request.params["steps"] == 100

    def test_replace(self):
        request = SolveRequest(k=2)
        assert request.replace(k=5).k == 5
        assert request.k == 2


class TestSessionServing:
    def test_three_requests_parity_with_one_engine_build(self, instance):
        """The acceptance criterion: 3 different (solver, k) requests over
        one session match 3 independent one-shot solves bit-for-bit while
        the engine spec is constructed exactly once."""
        session = ScheduleSession(instance)
        requests = [
            SolveRequest(k=2, solver="grd"),
            SolveRequest(k=3, solver="top"),
            SolveRequest(k=4, solver="grd-heap"),
        ]
        responses = session.solve_many(requests)

        for request, response in zip(requests, responses):
            one_shot = solver_registry.create(request.solver).solve(
                instance, request.k
            )
            assert response.utility == one_shot.utility
            assert response.schedule == one_shot.schedule

        assert session.engines_built == 1
        assert session.requests_served == 3
        assert [r.reused_engine for r in responses] == [False, True, True]

    def test_engine_constructions_counted_at_the_source(self, instance, monkeypatch):
        """Belt and braces: count actual engine-class constructions, not
        just the session's own bookkeeping."""
        built = []
        original = EngineSpec.build

        def counting_build(self, inst):
            built.append(self)
            return original(self, inst)

        monkeypatch.setattr(engine_module.EngineSpec, "build", counting_build)
        session = ScheduleSession(instance)
        for k in (2, 3, 4):
            session.solve(k=k, solver="grd")
        assert built == [EngineSpec()]

    def test_seeded_solver_parity(self, instance):
        session = ScheduleSession(instance)
        served = session.solve(k=3, solver="rand", seed=11)
        one_shot = solver_registry.create("rand", seed=11).solve(instance, 3)
        assert served.schedule == one_shot.schedule
        assert served.utility == one_shot.utility

    def test_sa_parity_through_session(self, instance):
        request = SolveRequest(k=3, solver="sa", seed=5, params={"steps": 60})
        served = ScheduleSession(instance).solve(request)
        one_shot = solver_registry.create("sa", seed=5, steps=60).solve(instance, 3)
        assert served.utility == one_shot.utility
        assert served.schedule == one_shot.schedule

    def test_distinct_specs_get_distinct_engines(self, instance):
        session = ScheduleSession(instance)
        session.solve(k=2, engine="sparse")
        session.solve(k=2, engine="reference")
        session.solve(k=2, engine="sparse")
        assert session.engines_built == 2

    def test_repeated_identical_requests_are_identical(self, instance):
        session = ScheduleSession(instance)
        first = session.solve(k=3, solver="grd")
        second = session.solve(k=3, solver="grd")
        assert first.utility == second.utility
        assert first.schedule == second.schedule

    def test_default_engine_used_and_overridable(self, instance):
        session = ScheduleSession(instance, default_engine="reference")
        assert isinstance(session.engine_for(), ReferenceEngine)
        assert isinstance(session.engine_for(EngineSpec()), SparseEngine)

    def test_request_and_kwargs_are_exclusive(self, instance):
        session = ScheduleSession(instance)
        with pytest.raises(TypeError, match="not both"):
            session.solve(SolveRequest(k=2), k=3)

    def test_unknown_solver_rejected(self, instance):
        with pytest.raises(ValueError, match="unknown solver"):
            ScheduleSession(instance).solve(k=2, solver="quantum")

    def test_non_one_shot_solver_rejected_clearly(self, instance):
        session = ScheduleSession(instance)
        with pytest.raises(ValueError, match="refiner"):
            session.solve(k=2, solver="ls")
        with pytest.raises(ValueError, match="online"):
            session.solve(k=2, solver="incremental")

    def test_backend_only_spec_variants_are_isolated(self, instance):
        """Two specs differing only in backend must not share an engine
        (or the warm plane wrapping it): the cache key is the full spec,
        so no spec can ever observe another spec's plane state."""
        session = ScheduleSession(instance, default_engine=EngineSpec("sparse"))
        first = session.solve(k=2)
        variant_spec = EngineSpec(kind="sparse", backend="sparse")
        second = session.solve(k=2, engine=variant_spec)
        assert session.engines_built == 2
        assert not second.reused_engine
        assert session.engine_for() is not session.engine_for(variant_spec)
        assert session.plane_for() is not session.plane_for(variant_spec)
        # isolation never costs parity: both serve identical results
        assert first.utility == second.utility
        assert first.schedule == second.schedule
        # and same-spec requests still hit the cache
        third = session.solve(k=2, engine=variant_spec)
        assert session.engines_built == 2
        assert third.reused_engine

    def test_response_carries_request_and_spec(self, instance):
        request = SolveRequest(k=2, label="baseline")
        response = ScheduleSession(instance).solve(request)
        assert isinstance(response, SolveResponse)
        assert response.request is request
        assert response.engine == EngineSpec()
        assert response.label == "baseline"
        assert "[baseline]" in response.summary()

    def test_solve_once_matches_session(self, instance):
        assert (
            solve_once(instance, k=3).utility
            == ScheduleSession(instance).solve(k=3).utility
        )


class TestSessionScorePlane:
    """The session's per-spec warm ScorePlane: filled once, reused, exact."""

    def test_plane_cached_per_spec_kind(self, instance):
        session = ScheduleSession(instance)
        plane = session.plane_for()
        assert session.plane_for() is plane
        assert session.plane_for(EngineSpec(kind="reference")) is not plane
        # the plane wraps the session's cached engine, not a private one
        assert plane.engine is session.engine_for()

    def test_initial_sweep_paid_once_across_requests(self, instance):
        """GRD, TOP and heap-GRD all warm-start from the same plane: the
        full |T| x |E| initial sweep happens exactly once per spec."""
        session = ScheduleSession(instance)
        first = session.solve(k=3, solver="grd")
        cells = instance.n_intervals * instance.n_events
        assert first.result.stats.initial_scores == cells
        for solver in ("grd", "top", "grd-heap", "beam"):
            warm = session.solve(k=3, solver=solver)
            assert warm.result.stats.initial_scores == 0
        plane = session.plane_for()
        assert plane.fills == 1
        assert plane.cells_filled == cells
        assert plane.cells_refreshed == 0  # immutable instance: never dirty

    def test_warm_requests_stay_bit_identical(self, instance):
        """Parity must survive many interleaved warm solves."""
        session = ScheduleSession(instance)
        for k in (2, 4, 3, 5, 2):
            for solver in ("grd", "grd-heap", "top"):
                served = session.solve(k=k, solver=solver)
                one_shot = solver_registry.create(solver).solve(instance, k)
                assert served.schedule == one_shot.schedule
                assert served.utility == one_shot.utility


class TestSessionAnalysis:
    def test_report(self, instance):
        session = ScheduleSession(instance)
        response = session.solve(k=3)
        text = session.report(response.schedule).format()
        assert "attend" in text

    def test_what_if_theta(self, instance):
        session = ScheduleSession(instance)
        theta = instance.organizer.resources
        curve = session.what_if_theta(2, [theta, theta + 5.0])
        assert len(curve.utilities) == 2
        assert curve.utilities[1] >= curve.utilities[0] - 1e-9

    def test_competition_cost_non_negative(self, instance):
        cost = ScheduleSession(instance).competition_cost(2, 0)
        assert cost >= -1e-9

    def test_from_config_aligns_backend(self):
        from repro.workloads.config import ExperimentConfig

        session = ScheduleSession.from_config(
            ExperimentConfig(k=4, n_users=40),
            root_seed=3,
            default_engine=EngineSpec(kind="sparse"),
        )
        assert session.instance.interest.backend == "sparse"
        response = session.solve(k=4)
        assert response.result.achieved_k <= 4

    def test_from_file_round_trip(self, instance, tmp_path):
        from repro.data.serialization import save_instance

        path = tmp_path / "instance.json"
        save_instance(instance, path)
        session = ScheduleSession.from_file(path)
        served = session.solve(k=3)
        direct = solve_once(instance, k=3)
        assert served.utility == pytest.approx(direct.utility, abs=1e-12)


class TestSessionStreaming:
    """session.stream(): the facade entry into the streaming subsystem."""

    def _trace(self, instance, n_ops=8, seed=5):
        from repro.workloads.config import ExperimentConfig
        from repro.workloads.traces import TraceConfig, TraceGenerator

        config = ExperimentConfig(
            k=3,
            n_users=instance.n_users,
            n_events=instance.n_events,
            n_intervals=instance.n_intervals,
        )
        return TraceGenerator(
            config, TraceConfig(n_ops=n_ops), root_seed=seed
        ).generate()

    def test_stream_matches_direct_driver(self, instance):
        from repro.stream import StreamDriver

        trace = self._trace(instance)
        session = ScheduleSession(instance)
        served = session.stream(trace, policy="incremental")
        direct = StreamDriver(instance, policy="incremental").run(trace)
        assert served.op_log == direct.op_log
        assert served.utilities == direct.utilities
        assert served.final_schedule == direct.final_schedule

    def test_stream_leaves_session_state_untouched(self, instance):
        trace = self._trace(instance)
        session = ScheduleSession(instance)
        before = session.solve(k=3)
        session.stream(trace)  # replays mutate only rebuilt copies
        assert session.instance is instance
        after = session.solve(k=3)
        assert after.utility == before.utility
        assert after.schedule.as_mapping() == before.schedule.as_mapping()

    def test_stream_counts_as_served_request(self, instance):
        session = ScheduleSession(instance)
        session.stream(self._trace(instance))
        assert session.requests_served == 1

    def test_stream_forwards_policy_params(self, instance):
        trace = self._trace(instance)
        session = ScheduleSession(instance)
        result = session.stream(
            trace, policy="periodic-rebuild", rebuild_every=4
        )
        assert "every=4" in result.policy

    def test_stream_uses_session_default_engine(self, instance):
        trace = self._trace(instance)
        session = ScheduleSession(instance, default_engine="sparse")
        result = session.stream(trace)
        assert result.engine == EngineSpec(kind="sparse")
