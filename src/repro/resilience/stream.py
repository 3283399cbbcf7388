"""Durable stream replays: what a stream journals, checkpoints and restores.

:class:`~repro.stream.driver.StreamDriver` constructed with a
``durability=`` config hands every applied change op, plus the
observation record the driver took, to a :class:`DurableStream`, which
journals it through the session's
:class:`~repro.resilience.journal.DurableWriter` (the commit protocol
serving sessions share).  A checkpoint snapshots the scheduler state:
schedule, locks, policy state and the accumulated float state, bitwise.

:func:`recover` runs the shared recovery routine
(:func:`repro.resilience.base.recover_session`) with the stream's
restore step: bind the policy on the instance at the checkpoint's
offset straight onto the checkpointed state, and replay the journal tail
*through the normal delta path* — ``policy.apply(op)`` exactly as the
original run called it — verifying every utility against the journaled
one with exact float equality.  The recovered session is bit-identical
to an uninterrupted one in every semantic observable (utility
trajectory, schedules, plane contents); wall-clock observables
(latencies, freeze counters, plane fill stats) are measured on the
resumed process and naturally differ, and the kill-point test suite
pins down exactly this split.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from pathlib import Path
from typing import Any

from repro.core.engine import ENGINE_KINDS, EngineSpec
from repro.core.errors import RecoveryError
from repro.core.instance import SESInstance
from repro.interactive.locks import LockSet
from repro.resilience.base import (
    Restore,
    Snapshot,
    begin_session,
    recover_session,
)
from repro.resilience.config import Durability
from repro.resilience.journal import DurableWriter, JournalScan
from repro.stream.driver import OpRecord, StreamResult, replay_ops
from repro.stream.policies import MaintenancePolicy, make_policy
from repro.stream.trace import ChangeOp, Trace

__all__ = ["DurableStream", "RecoveredStream", "recover"]


def engine_spec_to_dict(spec: EngineSpec) -> dict[str, Any]:
    """JSON-ready form of an :class:`EngineSpec` (checkpoint/journal use)."""
    return dataclasses.asdict(spec)


def engine_spec_from_dict(payload: dict[str, Any], journal: Path) -> EngineSpec:
    """Decode the :class:`EngineSpec` a durable session recorded.

    Directories outlive the engines that wrote them: a spec this build
    cannot construct (e.g. a since-removed kind, or the ``backend`` field
    specs recorded while ``mu`` had two storages) fails as a
    :class:`RecoveryError` naming ``journal`` and the recorded kind.
    """
    if not isinstance(payload, dict):
        raise RecoveryError(
            f"journal {journal} records engine spec {payload!r}, "
            f"not a JSON object"
        )
    try:
        return EngineSpec(**payload)
    except (TypeError, ValueError) as error:
        raise RecoveryError(
            f"journal {journal} records engine kind "
            f"{payload.get('kind')!r}, which this build cannot rebuild "
            f"(engine kinds: {', '.join(ENGINE_KINDS)}): {error}"
        ) from error


def _checkpoint_body(
    policy: MaintenancePolicy,
    policy_name: str,
    policy_params: dict[str, Any],
    offset: int,
) -> dict[str, Any]:
    """Snapshot the scheduler state recovery re-binds at ``offset``.

    The instance is not in it: recovery derives it from the base
    instance and the journal prefix.
    """
    scheduler = policy.scheduler
    return {
        "kind": "stream",
        "offset": offset,
        "schedule": {
            str(event): int(interval)
            for event, interval in sorted(scheduler.schedule.as_mapping().items())
        },
        "k": scheduler.k,
        "locks": None if scheduler.locks is None else scheduler.locks.to_dict(),
        "engine": engine_spec_to_dict(scheduler.engine_spec),
        # accumulated float state, bit-exact (engine mass as arrays, which
        # the store writes in binary): adopting the schedule alone rebuilds
        # engine mass / capacity sums in sorted order, an ulp away from the
        # live accumulation history
        "float_state": scheduler.export_float_state(),
        "policy": {
            "name": policy_name,
            "params": dict(policy_params),
            "state": policy.state_dict(),
        },
    }


def _op_payload(record: OpRecord, op: ChangeOp) -> dict[str, Any]:
    """One journal record: the op plus the driver's observation of it."""
    return {
        "index": record.index,
        "label": record.label,
        "latency": record.latency_seconds,
        "utility": record.utility,
        "schedule_size": record.schedule_size,
        "regret": record.regret,
        "op": op.to_dict(),
    }


def _record_from_payload(payload: dict[str, Any]) -> OpRecord:
    return OpRecord(
        index=int(payload["index"]),
        label=str(payload["label"]),
        latency_seconds=float(payload["latency"]),
        utility=float(payload["utility"]),
        schedule_size=int(payload["schedule_size"]),
        regret=payload.get("regret"),
    )


class DurableStream:
    """The journal side of one durable stream replay.

    Created by the driver right after :meth:`MaintenancePolicy.bind`
    (:meth:`begin`), or by :meth:`RecoveredStream.resume` over the
    recovered session's writer.  The driver's op loop hands it every
    applied op (:meth:`record`), then seals the replay with
    ``writer.close()`` or, at a ``stop_after`` kill point, leaves the
    directory as a process crash would with ``writer.abandon()``.
    """

    def __init__(self, writer: DurableWriter) -> None:
        self.writer = writer

    @classmethod
    def begin(
        cls,
        config: Durability,
        *,
        instance: SESInstance,
        policy: MaintenancePolicy,
        policy_name: str,
        policy_params: dict[str, Any],
        trace: Trace,
        k: int,
        oracle_every: int | None = None,
        oracle_solver: str = "grd-heap",
    ) -> "DurableStream":
        """Open a fresh durability directory for a policy bound on ``instance``.

        Writes the base instance, the journal header stamping it, and
        the offset-0 checkpoint (the bound initial state) through
        :func:`~repro.resilience.base.begin_session`.  Refuses a
        directory that already holds a journal — recover from it instead
        of silently appending.
        """
        if not policy.bound:
            raise RecoveryError(
                "DurableStream.begin needs a bound policy (bind first)"
            )
        metadata = {
            "kind": "stream",
            "k": k,
            "n_users": trace.n_users,
            "initial_k": trace.initial_k,
            "n_events": trace.n_events,
            "n_intervals": trace.n_intervals,
            "trace_seed": trace.seed,
            "trace_label": trace.label,
            "policy": {"name": policy_name, "params": dict(policy_params)},
            "engine": engine_spec_to_dict(policy.scheduler.engine_spec),
            "oracle_every": oracle_every,
            "oracle_solver": oracle_solver,
        }
        snapshot = functools.partial(
            _checkpoint_body, policy, policy_name, dict(policy_params)
        )
        return cls(begin_session(config, instance, metadata, snapshot))

    def record(self, op: ChangeOp, record: OpRecord) -> None:
        """Journal one applied op; checkpoint when the cadence comes due."""
        self.writer.append(_op_payload(record, op))


def _restore_checkpoint(
    checkpoint_offset: int,
    body: dict[str, Any],
    instance: SESInstance,
    scan: JournalScan,
    engine: EngineSpec,
) -> tuple[MaintenancePolicy, Snapshot]:
    """Restore one checkpoint over ``instance`` (the instance at its
    offset) and replay the journal tail, verified: the recovery
    routine's :data:`~repro.resilience.base.Restore` step.

    Past offset 0 the policy binds straight onto the checkpoint's
    schedule and runs no solve; at the offset-0 floor it binds fresh.
    Raises :class:`RecoveryError` on any exact-equality mismatch — the
    restored utility against the journal record the checkpoint claims to
    sit on, and the replayed utility against the journaled one at every
    tail op (checkpoints and journals round-trip floats losslessly, so
    exact comparison is sound).  The caller falls back to an older
    checkpoint on failure.
    """
    locks = (
        None if body["locks"] is None else LockSet.from_dict(body["locks"])
    )
    policy_info = body["policy"]
    policy = make_policy(policy_info["name"], **policy_info["params"])
    k = int(body["k"])
    schedule = {
        int(event): int(interval)
        for event, interval in body["schedule"].items()
    }
    if checkpoint_offset == 0:
        # the recovery floor: a fresh bind re-runs the original initial
        # solve on the base instance, so the live float state is
        # bit-identical by construction — adopting would re-accumulate it
        # in sorted order instead
        policy.bind(instance, k, engine=engine, locks=locks)
        if dict(policy.scheduler.schedule.as_mapping()) != schedule:
            raise RecoveryError(
                "offset-0 checkpoint schedule does not match a fresh "
                "bind on the base instance"
            )
        policy.load_state(policy_info["state"])
    else:
        # bind straight onto the checkpoint's schedule: an initial greedy
        # fill here would only be thrown away
        policy.bind(instance, k, engine=engine, locks=locks, schedule=schedule)
        float_state = body.get("float_state")
        if float_state is not None:
            policy.scheduler.restore_float_state(float_state)
        policy.load_state(policy_info["state"])
        restored = policy.utility()
        journaled = scan.records[checkpoint_offset - 1]["utility"]
        if restored != journaled:
            raise RecoveryError(
                f"checkpoint at offset {checkpoint_offset} restores "
                f"utility {restored!r} but the journal recorded "
                f"{journaled!r} at that offset (accumulation-order drift)"
            )
    # replay the journal tail through the normal delta path
    for payload in scan.records[checkpoint_offset:]:
        op = ChangeOp.from_dict(payload["op"])
        policy.apply(op)
        replayed = policy.utility()
        if replayed != payload["utility"]:
            raise RecoveryError(
                f"replay diverged at op {payload['index']}: journal "
                f"recorded utility {payload['utility']!r} but replay "
                f"produced {replayed!r}"
            )
    return policy, functools.partial(
        _checkpoint_body, policy, policy_info["name"], policy_info["params"]
    )


def recover(source: Durability | str) -> "RecoveredStream":
    """Rebuild a durable stream session from its directory.

    Runs :func:`~repro.resilience.base.recover_session` with the stream
    restore step: bind the policy on the checkpoint's instance straight
    onto its schedule (no initial solve), restore its bitwise float
    state, and replay the journal tail through ``policy.apply``,
    checking every utility against the journaled one with exact float
    equality.  At the offset-0 floor a fresh bind re-runs the original
    initial solve, so it is bit-exact by construction.  An engine this
    build cannot rebuild fails recovery.
    """
    config = source if isinstance(source, Durability) else Durability(source)

    def restorer(scan: JournalScan) -> Restore:
        engine = engine_spec_from_dict(scan.metadata["engine"], config.journal_path)
        return functools.partial(_restore_checkpoint, scan=scan, engine=engine)

    policy, checkpoint_offset, writer, scan = recover_session(
        config, "stream", restorer
    )
    return RecoveredStream(
        writer=writer,
        policy=policy,
        metadata=scan.metadata,
        prefix=list(scan.records),
        checkpoint_offset=checkpoint_offset,
    )


@dataclasses.dataclass(frozen=True)
class RecoveredStream:
    """A durable stream session restored to its last journaled op.

    ``offset`` ops of the original trace are already absorbed; call
    :meth:`resume` with the *same* trace to run the remainder and get a
    :class:`StreamResult` covering the full replay (journaled prefix +
    resumed tail).
    """

    writer: DurableWriter
    policy: MaintenancePolicy
    #: The journal header.
    metadata: dict[str, Any]
    #: The journal records recovery found: the ops already absorbed.
    prefix: list[dict[str, Any]]
    #: Offset of the checkpoint recovery restarted from.
    checkpoint_offset: int

    @property
    def offset(self) -> int:
        """Journal records already absorbed (where :meth:`resume` starts)."""
        return len(self.prefix)

    def utility(self) -> float:
        return self.policy.utility()

    def _validate_trace(self, trace: Trace) -> None:
        checks = (
            ("n_users", trace.n_users),
            ("initial_k", trace.initial_k),
            ("n_events", trace.n_events),
            ("n_intervals", trace.n_intervals),
        )
        for name, value in checks:
            recorded = self.metadata.get(name)
            if recorded is not None and value is not None and recorded != value:
                raise RecoveryError(
                    f"trace {name}={value} does not match the journaled "
                    f"session ({name}={recorded})"
                )
        if len(trace) < self.offset:
            raise RecoveryError(
                f"trace has {len(trace)} ops but the journal already "
                f"holds {self.offset}"
            )
        for payload in self.prefix:
            index = int(payload["index"])
            if trace.ops[index].to_dict() != payload["op"]:
                raise RecoveryError(
                    f"trace op {index} does not match the journaled op; "
                    f"resume needs the exact original trace"
                )

    def resume(self, trace: Trace, *, stop_after: int | None = None) -> StreamResult:
        """Run the un-absorbed remainder of ``trace`` to completion.

        The remainder runs through the driver's own op loop
        (:func:`~repro.stream.driver.replay_ops`), so journaling, oracle
        sampling and the checkpoint cadence continue exactly as in the
        original run, and a resumed session is itself durable (it can be
        killed and recovered again — the kill-point suite does).  The
        returned result covers the *whole* replay: per-op records of the
        journaled prefix are reconstructed from the journal (their
        latencies are the original run's measurements), the tail's are
        measured live.
        """
        if self.writer.closed:
            raise RecoveryError("this RecoveredStream was already resumed")
        self._validate_trace(trace)
        started = time.perf_counter()
        return replay_ops(
            self.policy,
            trace,
            [_record_from_payload(payload) for payload in self.prefix],
            started=started,
            stop_after=stop_after,
            oracle_every=self.metadata.get("oracle_every"),
            oracle_solver=self.metadata.get("oracle_solver") or "grd-heap",
            durable=DurableStream(self.writer),
        )
