"""Dispatch per-shard work inline or on a shared thread pool.

The kind follows from ``workers`` alone:

- ``workers=1`` (the default) -- ``"serial"``: thunks run inline.  The
  reference against which the thread kind is differential-tested.
- ``workers > 1`` -- ``"thread"``: a shared ``ThreadPoolExecutor``; numpy
  kernels release the GIL so per-block fills overlap on real cores.
  Pools are shared process-wide per worker count, so engines rebuilt on
  every pool generation (``PlanePool`` templates) do not leak threads.

Requested ``workers`` are clamped to the machine's CPU count (with a
:class:`RuntimeWarning`): oversubscribed shard fills only add contention.

Fault injection (:class:`~repro.resilience.faults.FaultPlan`) hooks in
here: each dispatched thunk draws once against the plan — *serially,
before fan-out*, so the fault sequence is independent of thread
scheduling — and injected crashes/IO errors are retried under the
armed :class:`~repro.resilience.faults.RetryPolicy` with deterministic
seeded backoff.  A thunk that keeps failing past ``fallback_after``
attempts runs on the serial fallback path with injection disabled, which
is why a fault-injected map always converges to the fault-free result
(the resilience benchmark's bitwise gate).  Real exceptions are never
retried — retries exist for injected faults and the flaky
infrastructure they model, not for deterministic bugs.

Merging never happens here: executors preserve submission order and hand
the per-block partials back to the caller, which folds them in global
block order (the P-independence contract lives in the caller).
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.errors import InjectedFault

if TYPE_CHECKING:
    from repro.resilience.faults import FaultInjector, FaultPlan, RetryPolicy

Thunk = Callable[[], Any]

_POOL_LOCK = threading.Lock()
_THREAD_POOLS: dict[int, ThreadPoolExecutor] = {}


def _available_cpus() -> int:
    """CPU budget ``workers`` clamps to (monkeypatchable in tests)."""
    return os.cpu_count() or 1


def _shared_thread_pool(workers: int) -> ThreadPoolExecutor:
    with _POOL_LOCK:
        pool = _THREAD_POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="ses-shard"
            )
            _THREAD_POOLS[workers] = pool
        return pool


def _call(thunk: Thunk) -> Any:
    return thunk()


class ShardExecutor:
    """Order-preserving map over shard thunks.

    Parameters
    ----------
    workers:
        Parallelism; clamped to :func:`os.cpu_count` with a warning.
        ``workers=1`` (or ``None``) runs thunks inline; more dispatch on
        the shared thread pool of that size.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; arms
        deterministic fault injection on every dispatched thunk.
    retry:
        :class:`~repro.resilience.faults.RetryPolicy` governing injected
        faults (defaults to ``RetryPolicy()`` when a plan is armed).
    """

    __slots__ = (
        "_workers", "_injector", "_retry",
        "_retries", "_fallbacks", "_stats_lock",
    )

    def __init__(
        self,
        workers: int | None = None,
        *,
        fault_plan: "FaultPlan | None" = None,
        retry: "RetryPolicy | None" = None,
    ):
        workers = 1 if workers is None else int(workers)
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        available = _available_cpus()
        if workers > available:
            warnings.warn(
                f"requested {workers} shard workers but only {available} "
                f"CPU(s) are available; clamping to {available}",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = available
        self._workers = workers
        self._injector: "FaultInjector | None" = None
        self._retry: "RetryPolicy | None" = None
        if fault_plan is not None or retry is not None:
            from repro.resilience.faults import RetryPolicy as _RetryPolicy

            if fault_plan is not None:
                self._injector = fault_plan.injector()
            self._retry = retry if retry is not None else _RetryPolicy()
        self._retries = 0
        self._fallbacks = 0
        self._stats_lock = threading.Lock()

    @property
    def kind(self) -> str:
        """``"serial"`` for one worker, else ``"thread"``."""
        return "serial" if self._workers == 1 else "thread"

    @property
    def workers(self) -> int:
        return self._workers

    def stats(self) -> dict[str, Any]:
        """Fault/retry/fallback counters (all zero without a plan)."""
        with self._stats_lock:
            return {
                "faults": (
                    {} if self._injector is None else self._injector.counts()
                ),
                "retries": self._retries,
                "fallbacks": self._fallbacks,
            }

    def map(self, thunks: Sequence[Thunk]) -> list[Any]:
        """Run ``thunks`` and return their results in submission order."""
        if self._injector is not None:
            return self._map_faulted(list(thunks))
        return self._dispatch(thunks)

    def _dispatch(self, thunks: Sequence[Thunk]) -> list[Any]:
        if self._workers == 1 or len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        pool = _shared_thread_pool(self._workers)
        return list(pool.map(_call, thunks))

    # -- fault-injected dispatch -----------------------------------------
    def _map_faulted(self, thunks: list[Thunk]) -> list[Any]:
        """Dispatch with per-thunk fault draws, retries, serial fallback."""
        assert self._injector is not None and self._retry is not None
        injector, retry = self._injector, self._retry
        site = f"shard.map:{self.kind}"
        stall = injector.plan.stall_seconds
        results: list[Any] = [None] * len(thunks)
        pending = list(range(len(thunks)))
        failures = [0] * len(thunks)
        attempt = 0
        while pending:
            exhausted = attempt > retry.max_retries
            fallback = [
                index for index in pending
                if exhausted or failures[index] >= retry.fallback_after
            ]
            if fallback:
                # the fallback path runs inline with injection disabled:
                # fault sites cover the parallel dispatch only, which is
                # what guarantees convergence to the fault-free result
                for index in fallback:
                    results[index] = thunks[index]()
                with self._stats_lock:
                    self._fallbacks += len(fallback)
                pending = [i for i in pending if i not in set(fallback)]
            if not pending:
                break
            if attempt > 0:
                # one deterministic backoff per retry round, keyed by the
                # round's first pending thunk
                time.sleep(retry.delay(attempt - 1, key=pending[0]))
                with self._stats_lock:
                    self._retries += len(pending)
            # draw all faults serially BEFORE fanning out, so the fault
            # sequence never depends on worker scheduling
            draws = {index: injector.draw_executor(site) for index in pending}
            outcomes = self._dispatch(
                [self._guarded(thunks[i], draws[i], site, stall) for i in pending]
            )
            still_pending = []
            for index, (ok, value) in zip(pending, outcomes):
                if ok:
                    results[index] = value
                else:
                    failures[index] += 1
                    still_pending.append(index)
            pending = still_pending
            attempt += 1
        return results

    @staticmethod
    def _guarded(
        thunk: Thunk, fault: str | None, site: str, stall: float
    ) -> Thunk:
        """Wrap one thunk with its pre-drawn fault; returns (ok, value)."""
        def run() -> tuple[bool, Any]:
            if fault == "worker_stall":
                time.sleep(stall)
            elif fault is not None:
                return False, InjectedFault(site, fault)
            return True, thunk()

        return run

    def __repr__(self) -> str:
        return f"ShardExecutor(kind={self.kind!r}, workers={self._workers})"
