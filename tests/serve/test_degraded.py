"""Degraded serving + serving-session durability.

Covers the two degraded-response paths (deadline exhaustion, stalled
writer) and the serve half of the crash-recovery contract: journaled
mutations, checkpoint cadence, kill-point recovery bit-identical to an
uninterrupted session.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.errors import RecoveryError
from repro.resilience import Durability, FaultPlan
from repro.serve import ServingSession

from tests.conftest import make_random_instance
from tests.resilience.conftest import mutate_serving


def _session(**kwargs) -> ServingSession:
    return ServingSession(make_random_instance(seed=42), **kwargs)


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

    def test_close_then_recover(self, tmp_path):
        durability = Durability(tmp_path / "ses")
        session = _session(durability=durability)
        mutate_serving(session, 5)
        before = session.solve(k=4)
        session.close()
        recovered = ServingSession.recover(durability)
        assert recovered.solve(k=4).utility == before.utility

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
        restamp_engine(durability, "vectorized")
        with pytest.raises(RecoveryError, match="engine kind 'vectorized'") as info:
            ServingSession.recover(durability)
        assert str(durability.journal_path) in str(info.value)

    def test_unknown_journal_kind_rejected_on_replay(self):
        from repro.resilience.serve import replay_mutation

        with pytest.raises(RecoveryError, match="unknown"):
            replay_mutation(_session(), {"kind": "set_theta"})
