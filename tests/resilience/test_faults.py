"""FaultPlan/FaultInjector/RetryPolicy determinism and executor wiring."""

from __future__ import annotations

import pytest

from repro.core.errors import InjectedFault
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.faults import EXECUTOR_FAULT_KINDS
from repro.shard.executor import ShardExecutor


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=-1)
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(seed=0, worker_crash=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(seed=0, worker_crash=0.6, io_error=0.6)
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultPlan(seed=0, stall_seconds=-1.0)

    def test_draw_sequence_is_seed_deterministic(self):
        plan = FaultPlan(seed=5, worker_crash=0.3, worker_stall=0.3, io_error=0.3)
        first = [plan.injector().draw_executor("site-a") for _ in range(1)]
        a, b = plan.injector(), plan.injector()
        seq_a = [a.draw_executor("site-a") for _ in range(50)]
        seq_b = [b.draw_executor("site-a") for _ in range(50)]
        assert seq_a == seq_b
        assert any(kind in EXECUTOR_FAULT_KINDS for kind in seq_a)
        assert a.counts() == b.counts()
        assert first[0] == seq_a[0]

    def test_sites_draw_independent_streams(self):
        plan = FaultPlan(seed=5, worker_crash=0.5)
        injector = plan.injector()
        seq_a = [injector.draw_executor("site-a") for _ in range(30)]
        seq_b = [injector.draw_executor("site-b") for _ in range(30)]
        assert seq_a != seq_b  # site key perturbs the stream

    def test_zero_probability_plans_never_fire(self):
        injector = FaultPlan(seed=1).injector()
        assert all(
            injector.draw_executor("x") is None for _ in range(20)
        )
        assert not injector.draw_writer("y")
        assert injector.counts() == {}

    def test_writer_draws(self):
        injector = FaultPlan(seed=2, writer_stall=1.0).injector()
        assert injector.draw_writer("pool.write")
        assert injector.counts() == {"pool.write:writer_stall": 1}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError, match="fallback_after"):
            RetryPolicy(fallback_after=0)

    def test_delay_grows_and_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.001, backoff_factor=2.0, jitter=0.5)
        delays = [policy.delay(attempt, key=3) for attempt in range(4)]
        assert delays == [policy.delay(a, key=3) for a in range(4)]
        # jitter is bounded: each delay stays within +-50% of its base
        for attempt, delay in enumerate(delays):
            base = 0.001 * 2.0**attempt
            assert 0.5 * base <= delay <= 1.5 * base

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.002, backoff_factor=2.0, jitter=0.0)
        assert policy.delay(2) == pytest.approx(0.008)


class TestInjectedFault:
    def test_carries_site_and_kind(self):
        fault = InjectedFault("shard.map:thread", "io_error")
        assert fault.site == "shard.map:thread"
        assert fault.kind == "io_error"
        assert "io_error" in str(fault)


FAST_RETRY = RetryPolicy(backoff_base=1e-5, fallback_after=2, max_retries=3)


class TestExecutorInjection:
    def _thunks(self, n=10):
        return [lambda i=i: i * i for i in range(n)]

    def _expected(self, n=10):
        return [i * i for i in range(n)]

    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="serial"), pytest.param(4, id="thread")]
    )
    def test_faulted_map_converges_to_clean(self, workers):
        plan = FaultPlan(
            seed=7, worker_crash=0.3, io_error=0.2, worker_stall=0.2,
            stall_seconds=1e-4,
        )
        executor = ShardExecutor(
            workers=workers, fault_plan=plan, retry=FAST_RETRY
        )
        assert executor.map(self._thunks()) == self._expected()
        stats = executor.stats()
        assert sum(stats["faults"].values()) > 0

    def test_fault_counters_are_deterministic(self):
        def build():
            return ShardExecutor(
                workers=4,
                fault_plan=FaultPlan(seed=7, worker_crash=0.4, io_error=0.2),
                retry=FAST_RETRY,
            )

        a, b = build(), build()
        assert a.map(self._thunks()) == b.map(self._thunks())
        assert a.stats() == b.stats()

    def test_certain_crash_converges_via_serial_fallback(self):
        executor = ShardExecutor(
            workers=4,
            fault_plan=FaultPlan(seed=1, worker_crash=1.0),
            retry=FAST_RETRY,
        )
        assert executor.map(self._thunks()) == self._expected()
        stats = executor.stats()
        assert stats["fallbacks"] == 10
        assert stats["retries"] > 0

    def test_no_plan_means_zero_overhead_counters(self):
        executor = ShardExecutor(workers=2)
        assert executor.map(self._thunks(4)) == self._expected(4)
        assert executor.stats() == {"faults": {}, "retries": 0, "fallbacks": 0}

    def test_real_exceptions_are_not_retried(self):
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("real bug")

        executor = ShardExecutor(
            workers=2,
            fault_plan=FaultPlan(seed=9),  # armed but never fires
            retry=FAST_RETRY,
        )
        with pytest.raises(RuntimeError, match="real bug"):
            executor.map([boom])
        assert len(calls) == 1


class TestWorkerClamp:
    def test_oversubscription_clamps_with_warning(self, monkeypatch):
        monkeypatch.setattr("repro.shard.executor._available_cpus", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            executor = ShardExecutor(workers=16)
        assert executor.workers == 2

    def test_single_cpu_collapses_to_serial(self, monkeypatch):
        monkeypatch.setattr("repro.shard.executor._available_cpus", lambda: 1)
        with pytest.warns(RuntimeWarning):
            executor = ShardExecutor(workers=4)
        assert executor.kind == "serial"

    def test_within_budget_is_silent(self, recwarn):
        executor = ShardExecutor(workers=4)
        assert executor.workers == 4
        assert not [w for w in recwarn if w.category is RuntimeWarning]

