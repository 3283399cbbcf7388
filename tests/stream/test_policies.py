"""Tests of the maintenance policies (construction, lifecycle, semantics)."""

import pytest

from repro.core.feasibility import is_schedule_feasible
from repro.stream import make_policy
from repro.stream.policies import (
    HybridPolicy,
    IncrementalPolicy,
    PeriodicRebuildPolicy,
    POLICY_NAMES,
)
from repro.stream.trace import ArriveCandidate, CancelEvent
from repro.workloads.config import ExperimentConfig
from repro.workloads.traces import TraceConfig, TraceGenerator

from tests.conftest import make_random_instance


def small_trace(n_ops=12, seed=3, **config_kwargs):
    config = ExperimentConfig(k=4, n_users=12, n_events=6, n_intervals=4, **config_kwargs)
    return TraceGenerator(config, TraceConfig(n_ops=n_ops), root_seed=seed).generate()


class TestFactory:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown maintenance policy"):
            make_policy("eager")

    def test_params_forwarded(self):
        policy = make_policy("periodic-rebuild", rebuild_every=4)
        assert "every=4" in policy.describe()


class TestLifecycle:
    def test_policy_is_single_use(self):
        instance = make_random_instance(seed=500, n_events=6, n_intervals=4)
        policy = IncrementalPolicy()
        policy.bind(instance, 3)
        with pytest.raises(RuntimeError, match="single-use"):
            policy.bind(instance, 3)

    def test_unbound_policy_has_no_scheduler(self):
        with pytest.raises(RuntimeError, match="not bound"):
            IncrementalPolicy().scheduler


class TestPeriodicRebuild:
    def test_rejects_non_batch_solver(self):
        with pytest.raises(ValueError, match="batch solver"):
            PeriodicRebuildPolicy(solver="ls")

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            PeriodicRebuildPolicy(solver="nope")

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            PeriodicRebuildPolicy(rebuild_every=0)

    def test_repair_only_between_rebuilds(self):
        """With a long rebuild period, ops apply structurally but nothing
        is re-optimized: a cancellation leaves the freed slot empty."""
        instance = make_random_instance(seed=501, n_events=6, n_intervals=4)
        policy = PeriodicRebuildPolicy(rebuild_every=100)
        policy.bind(instance, 4)
        victim = next(iter(policy.schedule.scheduled_events()))
        policy.apply(CancelEvent(time=0.0, event=victim))
        assert len(policy.schedule) == 3  # no greedy refill happened
        assert is_schedule_feasible(policy.scheduler.instance, policy.schedule)
        assert policy.rebuilds == 0

    def test_finish_flushes_pending_ops(self):
        instance = make_random_instance(seed=502, n_events=6, n_intervals=4)
        policy = PeriodicRebuildPolicy(rebuild_every=100)
        policy.bind(instance, 4)
        policy.apply(CancelEvent(time=0.0, event=0))
        policy.finish()
        assert policy.rebuilds == 1
        assert len(policy.schedule) == 4  # re-solve refilled the slot

    def test_rebuild_cadence(self):
        instance = make_random_instance(seed=503, n_events=8, n_intervals=4)
        policy = PeriodicRebuildPolicy(rebuild_every=2)
        policy.bind(instance, 3)
        for index in range(4):
            policy.apply(
                ArriveCandidate(
                    time=float(index),
                    location=50 + index,
                    required_resources=1.0,
                    interest=((0, 0.5),),
                )
            )
        assert policy.rebuilds == 2
        policy.finish()
        assert policy.rebuilds == 2  # nothing pending: no extra solve


class TestHybrid:
    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError, match="positive"):
            HybridPolicy(drift_threshold=0.0)

    def test_default_threshold_set_at_bind(self):
        instance = make_random_instance(seed=504)
        policy = HybridPolicy()
        assert policy.drift_threshold is None
        policy.bind(instance, 3)
        assert policy.drift_threshold is not None and policy.drift_threshold > 0

    def test_pressure_accumulates_and_triggers_rebuild(self):
        instance = make_random_instance(seed=505, n_events=6, n_intervals=4)
        policy = HybridPolicy(drift_threshold=0.6)
        policy.bind(instance, 3)
        policy.apply(
            ArriveCandidate(
                time=0.0,
                location=77,
                required_resources=1.0,
                interest=((0, 0.5), (1, 0.4)),
            )
        )
        assert policy.rebuilds == 1  # 0.9 mass >= 0.6 threshold
        assert policy.pressure == 0.0  # reset after the rebuild

    def test_below_threshold_no_rebuild(self):
        instance = make_random_instance(seed=506, n_events=6, n_intervals=4)
        policy = HybridPolicy(drift_threshold=10.0)
        policy.bind(instance, 3)
        policy.apply(
            ArriveCandidate(
                time=0.0,
                location=77,
                required_resources=1.0,
                interest=((0, 0.5),),
            )
        )
        assert policy.rebuilds == 0
        assert policy.pressure == pytest.approx(0.5)

    def test_flush_subtracts_rather_than_zeroing(self, monkeypatch):
        """Pressure contributed while a rebuild runs survives the flush.

        The reset used to be ``_pressure = 0.0``, silently discarding
        mass added between the threshold check and the reset (reentrant
        apply via instrumentation/subclass hooks); the fix subtracts
        exactly the flushed amount.  On the plain non-reentrant path the
        two are identical — the golden-trace suite pins that.
        """
        instance = make_random_instance(seed=508, n_events=6, n_intervals=4)
        policy = HybridPolicy(drift_threshold=0.6)
        policy.bind(instance, 3)
        plain_rebuild = policy.scheduler.rebuild

        def rebuild_with_concurrent_drift() -> None:
            plain_rebuild()
            policy._pressure += 0.25  # mass landing mid-flush

        monkeypatch.setattr(
            policy.scheduler, "rebuild", rebuild_with_concurrent_drift
        )
        policy.apply(
            ArriveCandidate(
                time=0.0,
                location=77,
                required_resources=1.0,
                interest=((0, 0.5), (1, 0.4)),
            )
        )
        assert policy.rebuilds == 1
        assert policy.pressure == pytest.approx(0.25)


class TestTrajectories:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_schedules_stay_feasible_throughout(self, name):
        instance = make_random_instance(seed=507, n_events=6, n_intervals=4)
        policy = make_policy(name)
        policy.bind(instance, 4)
        for op in small_trace():
            policy.apply(op)
            assert is_schedule_feasible(
                policy.scheduler.instance, policy.schedule
            )
        policy.finish()
        assert is_schedule_feasible(policy.scheduler.instance, policy.schedule)
