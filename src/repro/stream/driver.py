"""The stream driver: replay a change trace against a maintenance policy.

:class:`StreamDriver` is the streaming subsystem's serving loop — the
online analogue of :class:`repro.api.ScheduleSession`.  It binds a
:class:`~repro.stream.policies.MaintenancePolicy` to an instance, feeds
the trace op by op, and records what a production operator would watch:

* **per-op latency** — wall-clock cost of absorbing each change;
* **utility trajectory** — expected attendance after every op;
* **regret vs. an oracle** — the gap to a fresh batch re-solve on the
  same live state, sampled every ``oracle_every`` ops (the oracle run is
  itself a full solve, so it is opt-in and never counted into latency).
  Oracle solves run *warm* through the scheduler's
  :meth:`~repro.algorithms.incremental.IncrementalScheduler.base_plane`:
  each sample re-scores only rows dirtied since the last base-plane
  consumer instead of paying a cold O(|T| * |E|) fill plus an
  O(instance) snapshot freeze per sample.

Replay is deterministic: the same trace and policy produce an identical
op log, utility trajectory and final schedule on every run (the
streaming test suite asserts it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.algorithms.registry import solver_registry
from repro.core.engine import EngineSpec
from repro.core.instance import SESInstance
from repro.interactive.locks import LockSet

from repro.stream.policies import MaintenancePolicy, make_policy
from repro.stream.trace import Trace
from repro.utils.validation import check_budget

if TYPE_CHECKING:
    from repro.resilience.config import Durability
    from repro.resilience.stream import DurableStream

__all__ = ["OpRecord", "StreamResult", "StreamDriver", "replay_ops"]


@dataclass(frozen=True)
class OpRecord:
    """What the driver observed while absorbing one change op."""

    index: int
    label: str
    latency_seconds: float
    utility: float
    schedule_size: int
    #: ``oracle_utility - utility`` when an oracle re-solve was sampled
    #: at this op, else ``None``.
    regret: float | None = None


@dataclass(frozen=True)
class StreamResult:
    """The outcome of replaying one trace under one policy."""

    policy: str
    engine: EngineSpec
    records: tuple[OpRecord, ...]
    final_utility: float
    final_schedule: dict[int, int]
    final_k: int
    rebuilds: int
    finish_seconds: float
    total_seconds: float
    #: O(instance) snapshot materializations the replay paid for
    #: (:attr:`repro.core.live.LiveInstance.freezes`): 0 on the pure
    #: incremental fast path — and, now that batch re-solves and oracle
    #: samples run warm over the live view, 0 on every built-in policy.
    freezes: int = 0
    #: :meth:`repro.core.scoreplane.ScorePlane.stats` of the scheduler's
    #: base plane (``None`` when no batch consumer materialized one).
    #: ``cells_filled`` is the one-off cold fill; ``cells_refreshed``
    #: counts every warm re-score across all rebuilds/oracle samples —
    #: the benchmark's proof that a warm re-solve does strictly less
    #: scoring work than a cold fill.
    base_plane_stats: dict[str, int] | None = None

    # -- trajectory accessors -------------------------------------------
    @property
    def op_log(self) -> tuple[str, ...]:
        """The applied op labels, in order (the determinism fingerprint)."""
        return tuple(record.label for record in self.records)

    @property
    def utilities(self) -> tuple[float, ...]:
        """Utility after each op (the trajectory)."""
        return tuple(record.utility for record in self.records)

    @property
    def latencies(self) -> tuple[float, ...]:
        return tuple(record.latency_seconds for record in self.records)

    @property
    def regrets(self) -> tuple[float, ...]:
        """The sampled oracle regrets, in sampling order."""
        return tuple(
            record.regret for record in self.records if record.regret is not None
        )

    # -- latency statistics ---------------------------------------------
    def mean_latency(self) -> float:
        if not self.records:
            return 0.0
        return sum(self.latencies) / len(self.records)

    def max_latency(self) -> float:
        return max(self.latencies, default=0.0)

    def percentile_latency(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (nearest-rank)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if not self.records:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def summary(self) -> str:
        regrets = self.regrets
        regret = (
            f" max-regret={max(regrets):.4f}" if regrets else ""
        )
        return (
            f"{self.policy}: {len(self.records)} ops, "
            f"final-utility={self.final_utility:.4f} k={self.final_k} "
            f"mean-op={self.mean_latency() * 1e3:.2f}ms "
            f"p95-op={self.percentile_latency(0.95) * 1e3:.2f}ms "
            f"rebuilds={self.rebuilds}{regret}"
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (benchmark output, experiment logs)."""
        return {
            "policy": self.policy,
            "engine": self.engine.kind,
            "shards": self.engine.shards,
            "workers": self.engine.workers,
            "ops": len(self.records),
            "op_log": list(self.op_log),
            "utilities": list(self.utilities),
            "latencies_ms": [lat * 1e3 for lat in self.latencies],
            "regrets": list(self.regrets),
            "final_utility": self.final_utility,
            "final_schedule": {
                str(event): interval
                for event, interval in sorted(self.final_schedule.items())
            },
            "final_k": self.final_k,
            "rebuilds": self.rebuilds,
            "freezes": self.freezes,
            "base_plane": self.base_plane_stats,
            "total_seconds": self.total_seconds,
        }


class StreamDriver:
    """Replays change traces against one instance under one policy.

    Parameters
    ----------
    instance:
        The starting instance (the trace's ``n_users`` must match).
    k:
        Initial schedule budget; ``None`` takes the trace's ``initial_k``
        at :meth:`run` time.
    policy:
        A policy name (``"incremental"``, ``"periodic-rebuild"``,
        ``"hybrid"``) or a ready, *unbound* policy object.
    engine:
        :class:`EngineSpec` (or kind string) for every engine the policy
        builds; pick the sparse spec for Meetup-scale replays.
    oracle_every:
        Sample regret against a fresh batch re-solve every this many ops
        (``None`` disables — the default, as each sample costs a solve).
    oracle_solver:
        Registry name of the batch solver used as the oracle.  Defaults
        to ``"grd-heap"``, the name GRD's lazy pick loop is also served
        under: the oracle only consumes the re-solve's *utility* (the
        schedule is discarded), and journals record the name.
    locks:
        Organizer pin/forbid constraints threaded into the policy's
        maintained scheduler at bind time; every repair, rebuild and
        oracle sample honors them across the whole replay.
    durability:
        A :class:`repro.resilience.Durability` config makes the replay
        crash-safe: every applied op is journaled (op + observation
        record) and the live state is checkpointed on the configured
        cadence.  :func:`repro.resilience.recover` rebuilds such a
        session from its directory after a crash.  Requires a policy
        *name* (recovery reconstructs the policy from the journal).
    """

    def __init__(
        self,
        instance: SESInstance,
        k: int | None = None,
        policy: MaintenancePolicy | str = "incremental",
        engine: EngineSpec | str | None = None,
        *,
        oracle_every: int | None = None,
        oracle_solver: str = "grd-heap",
        locks: LockSet | None = None,
        durability: "Durability | None" = None,
        **policy_params: Any,
    ) -> None:
        if isinstance(policy, str):
            self._policy_name: str | None = policy
            self._policy_params = dict(policy_params)
            policy = make_policy(policy, **policy_params)
        else:
            if policy_params:
                raise TypeError(
                    "policy parameters are only accepted together with a "
                    "policy name, not a ready policy object"
                )
            self._policy_name = None
            self._policy_params = {}
        if durability is not None and self._policy_name is None:
            raise TypeError(
                "durable replays need a policy name, not a ready policy "
                "object — recovery reconstructs the policy from the journal"
            )
        if oracle_every is not None and oracle_every <= 0:
            raise ValueError(
                f"oracle_every must be positive, got {oracle_every}"
            )
        solver_registry.get(oracle_solver)  # fail fast on unknown names
        self._instance = instance
        self._k = None if k is None else check_budget(k, "k")
        self._policy = policy
        self._engine = EngineSpec.coerce(engine)
        self._oracle_every = oracle_every
        self._oracle_solver = oracle_solver
        self._locks = LockSet.coerce(locks)
        self._durability = durability

    @property
    def policy(self) -> MaintenancePolicy:
        return self._policy

    def run(self, trace: Trace, *, stop_after: int | None = None) -> StreamResult:
        """Replay ``trace`` and return the full observation record.

        A driver constructed from a policy *name* can replay repeatedly
        (each run gets a fresh policy); one wrapping a ready policy
        object is single-use, since policies are.

        ``stop_after`` is the kill-point hook for durable replays: apply
        that many ops, then abandon the run as a process crash would —
        no ``finish()``, no final checkpoint, no journal fsync.  The
        partial result reflects the state at the kill point; recover the
        durability directory to resume.
        """
        self._validate_shape(trace)
        if stop_after is not None and stop_after < 0:
            raise ValueError(f"stop_after must be >= 0, got {stop_after}")
        if self._policy.bound:
            if self._policy_name is None:
                raise RuntimeError(
                    "this StreamDriver wraps an already-used policy object "
                    "(policies are single-use); construct the driver with a "
                    "policy name to replay more than once"
                )
            self._policy = make_policy(self._policy_name, **self._policy_params)
        k = self._k if self._k is not None else trace.initial_k
        started = time.perf_counter()
        self._policy.bind(self._instance, k, engine=self._engine, locks=self._locks)

        durable = None
        if self._durability is not None:
            from repro.resilience.stream import DurableStream

            assert self._policy_name is not None  # enforced in __init__
            durable = DurableStream.begin(
                self._durability,
                instance=self._instance,
                policy=self._policy,
                policy_name=self._policy_name,
                policy_params=self._policy_params,
                trace=trace,
                k=k,
                oracle_every=self._oracle_every,
                oracle_solver=self._oracle_solver,
            )
        return replay_ops(
            self._policy,
            trace,
            [],
            started=started,
            stop_after=stop_after,
            oracle_every=self._oracle_every,
            oracle_solver=self._oracle_solver,
            durable=durable,
        )

    def _validate_shape(self, trace: Trace) -> None:
        """Reject traces whose recorded shape mismatches the instance."""
        instance = self._instance
        checks = (
            ("users", trace.n_users, instance.n_users),
            ("candidate events", trace.n_events, instance.n_events),
            ("intervals", trace.n_intervals, instance.n_intervals),
        )
        for what, expected, actual in checks:
            if expected is not None and expected != actual:
                raise ValueError(
                    f"trace was generated for {expected} {what} but the "
                    f"instance has {actual}"
                )


def replay_ops(
    policy: MaintenancePolicy,
    trace: Trace,
    records: list[OpRecord],
    *,
    started: float,
    stop_after: int | None,
    oracle_every: int | None,
    oracle_solver: str,
    durable: "DurableStream | None" = None,
) -> StreamResult:
    """Apply ``trace`` from op ``len(records)`` on to a bound ``policy``.

    The one op loop of a stream replay, from op 0 (:meth:`StreamDriver.run`)
    or from a recovered offset with ``records`` holding the journaled
    prefix (:meth:`repro.resilience.RecoveredStream.resume`).  Stopping
    at ``stop_after`` with ops left ends the replay as a process crash
    would: no ``finish()``, the journal abandoned.
    """
    stop = len(trace) if stop_after is None else min(stop_after, len(trace))
    for index in range(len(records), stop):
        op = trace.ops[index]
        op_started = time.perf_counter()
        policy.apply(op)
        latency = time.perf_counter() - op_started
        regret: float | None = None
        if oracle_every is not None and (index + 1) % oracle_every == 0:
            regret = _oracle_regret(policy, oracle_solver)
        record = OpRecord(
            index=index,
            label=op.label(),
            latency_seconds=latency,
            utility=policy.utility(),
            schedule_size=len(policy.schedule),
            regret=regret,
        )
        records.append(record)
        if durable is not None:
            durable.record(op, record)

    finish_seconds = 0.0
    if len(records) < len(trace):
        if durable is not None:
            durable.writer.abandon()
    else:
        finish_started = time.perf_counter()
        policy.finish()
        finish_seconds = time.perf_counter() - finish_started
        if durable is not None:
            durable.writer.close()

    live = policy.scheduler
    base_plane = live.materialized_base_plane
    return StreamResult(
        policy=policy.describe(),
        engine=live.engine_spec,
        records=tuple(records),
        final_utility=policy.utility(),
        final_schedule=live.schedule.as_mapping(),
        final_k=live.k,
        rebuilds=policy.rebuilds,
        finish_seconds=finish_seconds,
        total_seconds=time.perf_counter() - started,
        freezes=live.live.freezes,
        base_plane_stats=None if base_plane is None else base_plane.stats(),
    )


def _oracle_regret(policy: MaintenancePolicy, solver_name: str) -> float:
    """Utility gap to a warm batch re-solve on the current live state."""
    live = policy.scheduler
    oracle = solver_registry.create(
        solver_name, engine=live.engine_spec
    ).solve(live.live, live.k, plane=live.base_plane(), locks=live.locks)
    return oracle.utility - policy.utility()
