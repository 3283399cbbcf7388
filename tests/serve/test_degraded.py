"""Degraded serving + serving-session durability.

Covers the two degraded-response paths (deadline exhaustion, stalled
writer) and the serve half of the crash-recovery contract: journaled
mutations, checkpoint cadence, kill-point recovery bit-identical to an
uninterrupted session.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest

from repro.algorithms import (
    GreedyScheduler,
    Scheduler,
    SearchBudgetExceeded,
    SolverRegistry,
)
from repro.core.errors import RecoveryError, ScheduleSizeError
from repro.resilience import Durability, FaultPlan
from repro.serve import PlanePool, ServingSession

from tests.conftest import make_random_instance
from tests.resilience.conftest import mutate_serving


def _session(**kwargs) -> ServingSession:
    return ServingSession(make_random_instance(seed=42), **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Live counts of pool leases taken and returned and of solves run."""
    counts = {"acquire": 0, "release": 0, "solve": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(PlanePool, "acquire")
    count(PlanePool, "release")
    count(Scheduler, "solve")
    return counts


class _LateScheduler(Scheduler):
    """Never checks its deadline and returns an empty schedule only once
    the deadline has passed: a result that always arrives late."""

    name = "LATE"

    def _solve(self, instance, k, engine, checker, stats, *, plane=None,
               locks=None, deadline=None):
        while not deadline.expired():
            time.sleep(0.001)


class TestDeadlineServing:
    def test_zero_deadline_deterministically_degrades(self):
        response = _session().solve(k=4, deadline_ms=0)
        assert response.degraded
        assert response.result is not None
        assert len(response.schedule) > 0
        assert "[degraded]" in response.summary()

    def test_ample_deadline_is_not_degraded(self):
        response = _session().solve(k=4, deadline_ms=30_000)
        assert not response.degraded
        assert response.staleness == 0

    def test_degraded_baseline_matches_grd(self):
        session = _session()
        degraded = session.solve(k=4, deadline_ms=0)
        grd = session.solve(k=4, solver="grd")
        assert degraded.utility == grd.utility

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            _session().solve(k=4, deadline_ms=-1)


class TestDeadlineBounds:
    """``deadline_ms`` and ``max_wait_s`` fail at the boundary, before any
    lease: NaN and negative values raise a ValueError naming the
    parameter, and ``inf`` is no bound."""

    @pytest.mark.parametrize("name", ["deadline_ms", "max_wait_s"])
    @pytest.mark.parametrize("bad", [math.nan, -1.0, -0.5])
    def test_nan_and_negative_rejected_before_any_lease(
        self, counted, name, bad
    ):
        with pytest.raises(ValueError, match=name):
            _session().solve(k=4, **{name: bad})
        assert counted == {"acquire": 0, "release": 0, "solve": 0}

    @pytest.mark.parametrize("name", ["deadline_ms", "max_wait_s"])
    def test_inf_is_no_bound(self, name):
        session = _session()
        response = session.solve(k=4, **{name: math.inf})
        assert not response.degraded
        assert response.utility == session.solve(k=4).utility


class TestDeadlineCost:
    """A deadline request is one lease in the caller's thread: the GRD
    floor, then at most one requested solve cut short by the deadline."""

    def test_expired_requests_leave_nothing_running(self, counted):
        session = _session()
        floor = session.solve(k=4).utility
        counted.update(acquire=0, release=0)
        threads = threading.active_count()
        for _ in range(5):
            response = session.solve(
                k=4, solver="sa", seed=1, params={"steps": 10**6},
                deadline_ms=50,
            )
            assert response.degraded
            assert response.utility == floor
        assert threading.active_count() == threads
        assert counted["acquire"] == counted["release"] == 5

    def test_grd_with_far_deadline_is_one_lease_one_solve(self, counted):
        response = _session().solve(k=4, deadline_ms=60_000)
        assert not response.degraded
        assert counted == {"acquire": 1, "release": 1, "solve": 1}
        assert response.utility == _session().solve(k=4).utility

    def test_other_solver_answers_when_in_time(self, counted):
        response = _session().solve(k=4, solver="top", deadline_ms=60_000)
        assert not response.degraded
        assert response.result.solver == "TOP"
        # the floor and the requested solve share one lease
        assert counted == {"acquire": 1, "release": 1, "solve": 2}
        assert response.utility == _session().solve(k=4, solver="top").utility

    @pytest.mark.parametrize(
        "solver, message", [("ls", "one-shot"), ("nope", "unknown solver")]
    )
    def test_non_one_shot_solver_fails_before_any_lease(
        self, counted, solver, message
    ):
        with pytest.raises(ValueError, match=message):
            _session().solve(k=4, solver=solver, deadline_ms=60_000)
        assert counted == {"acquire": 0, "release": 0, "solve": 0}


class TestDeadlineOutcomes:
    def test_late_result_never_replaces_the_floor(self):
        registry = SolverRegistry()
        registry.register(GreedyScheduler, name="grd")
        registry.register(_LateScheduler, name="late")
        session = ServingSession(
            make_random_instance(seed=42), registry=registry
        )
        response = session.solve(k=4, solver="late", deadline_ms=20)
        assert response.degraded
        assert response.result.solver == "GRD"
        assert response.utility == session.solve(k=4).utility

    def test_search_budget_error_reaches_the_caller(self):
        with pytest.raises(SearchBudgetExceeded):
            _session().solve(
                k=4, solver="exact", params={"max_nodes": 1},
                deadline_ms=60_000,
            )

    @pytest.mark.parametrize("solver", ["grd", "top"])
    def test_strict_size_error_reaches_the_caller(self, solver):
        # each event needs at least 2.5 of an interval's 4.5 resources,
        # so 4 intervals cannot hold 6 events
        session = ServingSession(
            make_random_instance(seed=42, theta=4.5, xi_range=(2.5, 4.0))
        )
        with pytest.raises(ScheduleSizeError):
            session.solve(
                k=6, solver=solver, strict=True, deadline_ms=60_000
            )


class TestStalledWriterDegradedReads:
    def test_stalled_writer_serves_stale_generation(self):
        session = _session(keep_stale_replica=True)
        session.solve(k=4)  # warms the pool and the last-good stash
        session.add_competing(
            interval=0,
            interest_column=np.full(
                session.version_instance().n_users, 0.5
            ),
        )
        release = threading.Event()
        entered = threading.Event()

        def slow_write():
            def mutate(live):
                entered.set()
                release.wait(timeout=5.0)
                return live.replace_event_interest(
                    0,
                    np.full(session.version_instance().n_users, 0.25),
                )

            session.pool.write(mutate)

        writer = threading.Thread(target=slow_write, daemon=True)
        writer.start()
        assert entered.wait(timeout=5.0)
        try:
            response = session.solve(k=4, max_wait_s=0.05)
        finally:
            release.set()
            writer.join(timeout=5.0)
        assert response.degraded
        assert response.staleness >= 1
        assert "staleness" in response.summary()
        assert session.pool_stats().degraded >= 1

    def test_writer_stall_injection_counts(self):
        plan = FaultPlan(seed=3, writer_stall=1.0, stall_seconds=1e-4)
        session = _session(fault_plan=plan)
        session.add_competing(
            interval=0,
            interest_column=np.full(
                session.version_instance().n_users, 0.5
            ),
        )
        assert session.pool_stats().writer_stalls == 1
        assert session.pool.fault_stats() == {"pool.write:writer_stall": 1}

    def test_unstalled_reads_are_never_stamped(self):
        session = _session(keep_stale_replica=True)
        for _ in range(3):
            response = session.solve(k=4, max_wait_s=1.0)
            assert not response.degraded
            assert response.staleness == 0


class TestDurableSession:
    def test_every_mutation_is_journaled(self, tmp_path):
        session = _session(durability=Durability(tmp_path / "ses"))
        mutate_serving(session, 8)
        assert session.journal_offset == 8
        session.close()

    def test_non_durable_session_has_no_offset(self):
        assert _session().journal_offset is None

    def test_recover_matches_uninterrupted(self, tmp_path):
        reference = _session()
        mutate_serving(reference, 6)

        durability = Durability(tmp_path / "ses", checkpoint_every=4)
        crashed = _session(durability=durability)
        mutate_serving(crashed, 6)
        expected = crashed.solve(k=4)
        crashed._writer.abandon()  # the crash simulator

        recovered = ServingSession.recover(durability)
        assert recovered.version == reference.version == 6
        response = recovered.solve(k=4)
        assert response.utility == expected.utility
        assert response.schedule.as_mapping() == expected.schedule.as_mapping()
        assert response.version == expected.version
        recovered.close()

    @pytest.mark.parametrize("kill_at", range(9))
    def test_kill_points_recover_and_converge(self, tmp_path, kill_at):
        durability = Durability(tmp_path / "ses", checkpoint_every=3)
        crashed = _session(durability=durability)
        mutate_serving(crashed, kill_at)
        crashed._writer.abandon()

        recovered = ServingSession.recover(durability)
        assert recovered.version == kill_at
        # the recovered session keeps journaling into the surviving WAL
        mutate_serving(recovered, 9 - kill_at, seed=100 + kill_at)
        assert recovered.journal_offset == 9
        recovered.close()

    def test_recovered_session_keeps_journaling(self, tmp_path):
        durability = Durability(tmp_path / "ses")
        session = _session(durability=durability)
        mutate_serving(session, 3)
        session._writer.abandon()

        recovered = ServingSession.recover(durability)
        mutate_serving(recovered, 2, seed=50)
        assert recovered.journal_offset == 5
        recovered.close()
        again = ServingSession.recover(durability)
        assert again.version == 5
        again.close()

    def test_close_then_recover(self, tmp_path):
        durability = Durability(tmp_path / "ses")
        session = _session(durability=durability)
        mutate_serving(session, 5)
        before = session.solve(k=4)
        session.close()
        recovered = ServingSession.recover(durability)
        assert recovered.solve(k=4).utility == before.utility
        recovered.close()

    def test_recover_rejects_stream_journal(self, tmp_path):
        from repro.stream import StreamDriver

        from tests.resilience.conftest import (
            ENGINE,
            golden_instance,
            golden_trace,
        )

        durability = Durability(tmp_path / "ses")
        StreamDriver(
            golden_instance("dense_b"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        ).run(golden_trace("dense_b"), stop_after=2)
        with pytest.raises(RecoveryError, match="serv"):
            ServingSession.recover(durability)

    def test_removed_kind_fails_with_recovery_error(self, tmp_path):
        from tests.resilience.conftest import restamp_engine

        durability = Durability(tmp_path / "ses", checkpoint_every=2)
        crashed = _session(durability=durability)
        mutate_serving(crashed, 3)
        crashed._writer.abandon()
        restamp_engine(durability, kind="vectorized")
        with pytest.raises(RecoveryError, match="engine kind 'vectorized'") as info:
            ServingSession.recover(durability)
        assert str(durability.journal_path) in str(info.value)

    def test_unknown_journal_kind_rejected_on_replay(self):
        from repro.resilience.serve import replay_mutation

        with pytest.raises(RecoveryError, match="unknown"):
            replay_mutation(_session(), {"kind": "set_theta"})
