"""Durable stream replays: journal + checkpoint wiring and recovery.

:class:`~repro.stream.driver.StreamDriver` constructed with a
``durability=`` config routes every applied change op through a
:class:`DurableStream`: the bound base instance is written once
(:mod:`repro.resilience.base`), the op (plus the observation record the
driver took) is appended to the write-ahead journal *after* it committed
to the live scheduler, and an instance-free
:mod:`checkpoint <repro.resilience.checkpoint>` of the scheduler state is
published every ``checkpoint_every`` records (the journal is fsynced
first, so a checkpoint never claims ops the journal could lose).

:func:`recover` is the other half of the contract: newest valid
checkpoint + journal-tail replay *through the normal delta path* —
``policy.apply(op)`` exactly as the original run called it.  The
instance at a checkpoint's offset is derived from the base by applying
the journal prefix structurally.  Checkpoints carry the accumulated
float state (engine mass, capacity sums) bitwise, restores are verified
against the journaled utilities with exact float equality, and any
checkpoint that fails falls back to the next older one — down to the
offset-0 floor, where a fresh bind plus full-journal replay is
bit-exact by construction.  Together this makes the recovered
session bit-identical to an uninterrupted one in every semantic
observable (utility trajectory, schedules, plane contents).
Wall-clock observables (latencies, freeze counters, plane fill stats)
are measured on the resumed process and naturally differ; the kill-point
test suite pins down exactly this split.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.algorithms.registry import solver_registry
from repro.core.engine import ENGINE_KINDS, EngineSpec
from repro.core.errors import CheckpointError, RecoveryError
from repro.core.instance import SESInstance
from repro.core.live import LiveInstance, arrival_event, rival_event
from repro.interactive.locks import LockSet
from repro.resilience.base import create_journal, derive_instance, load_base
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.config import Durability
from repro.resilience.journal import DeltaJournal
from repro.stream.driver import OpRecord, StreamResult
from repro.stream.policies import MaintenancePolicy, make_policy
from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    ChangeOp,
    DriftInterest,
    Trace,
    column_from_entries,
)

__all__ = ["DurableStream", "RecoveredStream", "recover"]


def engine_spec_to_dict(spec: EngineSpec) -> dict[str, Any]:
    """JSON-ready form of an :class:`EngineSpec` (checkpoint/journal use)."""
    return {
        "kind": spec.kind,
        "backend": spec.backend,
        "shards": spec.shards,
        "workers": spec.workers,
        "block_users": spec.block_users,
    }


def engine_spec_from_dict(payload: dict[str, Any], journal: Path) -> EngineSpec:
    """Decode the :class:`EngineSpec` a durable session recorded.

    Directories outlive the engines that wrote them: a spec this build
    cannot construct (e.g. a since-removed kind) fails as a
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
    offset: int,
    policy_name: str,
    policy_params: dict[str, Any],
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
        # accumulated float state, bit-exact: adopting the schedule alone
        # rebuilds engine mass / capacity sums in sorted order, an ulp
        # away from the live accumulation history
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


def _apply_structure(live: LiveInstance, payload: dict[str, Any]) -> None:
    """Make one journaled op's structural change to ``live``.

    The same :class:`LiveInstance` mutators and entity constructors the
    live scheduler uses, without its scheduling.  A budget raise changes
    no structure (checkpoints carry ``k``).
    """
    op = ChangeOp.from_dict(payload["op"])
    if isinstance(op, ArriveCandidate):
        live.add_event(
            arrival_event(live, op.location, op.required_resources, op.name),
            column_from_entries(op.interest, live.n_users),
        )
    elif isinstance(op, CancelEvent):
        live.remove_event(op.event)
    elif isinstance(op, AnnounceRival):
        live.add_competing(
            rival_event(live, op.interval, op.name),
            column_from_entries(op.interest, live.n_users),
        )
    elif isinstance(op, DriftInterest):
        live.replace_event_interest(
            op.event, column_from_entries(op.interest, live.n_users)
        )


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
    """The journal+checkpoint side-car of one durable stream replay.

    Created by the driver right after :meth:`MaintenancePolicy.bind`;
    owns the op-commit ordering contract (apply -> journal -> ack) and
    the checkpoint cadence.  ``stop_after`` kill points call
    :meth:`crash` instead of :meth:`finish`, leaving the directory in
    exactly the state a process crash would.
    """

    def __init__(
        self,
        config: Durability,
        journal: DeltaJournal,
        store: CheckpointStore,
        policy: MaintenancePolicy,
        policy_name: str,
        policy_params: dict[str, Any],
    ) -> None:
        self._config = config
        self._journal = journal
        self._store = store
        self._policy = policy
        self._policy_name = policy_name
        self._policy_params = dict(policy_params)

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
        the offset-0 checkpoint (the bound initial state), so recovery
        always has a floor to stand on.  Refuses a directory that
        already holds a journal — recover from it instead of silently
        appending.
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
        journal = create_journal(config, instance, metadata)
        store = CheckpointStore(config.checkpoint_directory)
        durable = cls(config, journal, store, policy, policy_name, policy_params)
        durable._checkpoint()
        return durable

    @property
    def offset(self) -> int:
        return self._journal.offset

    def _checkpoint(self) -> None:
        # journal first: a published checkpoint must never claim records
        # the journal could still lose to a crash
        self._journal.sync()
        self._store.write(
            self._journal.offset,
            _checkpoint_body(
                self._policy,
                self._journal.offset,
                self._policy_name,
                self._policy_params,
            ),
        )

    def record(self, op: ChangeOp, record: OpRecord) -> None:
        """Journal one applied op; checkpoint when the cadence comes due."""
        offset = self._journal.append(_op_payload(record, op))
        if offset % self._config.checkpoint_every == 0:
            self._checkpoint()

    def finish(self) -> None:
        """Seal a completed replay: final checkpoint, then close."""
        self._checkpoint()
        self._journal.close()

    def crash(self) -> None:
        """Simulate a process crash (no final checkpoint, no fsync)."""
        self._journal.abandon()


def _restore_checkpoint(
    checkpoint_offset: int,
    body: dict[str, Any],
    instance: SESInstance,
    scan: Any,
    engine: EngineSpec,
) -> MaintenancePolicy:
    """Restore one checkpoint over ``instance`` (the instance at its
    offset) and replay the journal tail, verified.

    Raises :class:`RecoveryError` on any exact-equality mismatch — the
    restored utility against the journal record the checkpoint claims to
    sit on, and the replayed utility against the journaled one at every
    tail op (JSON round-trips floats losslessly, so exact comparison is
    sound).  The caller falls back to an older checkpoint on failure.
    """
    locks = (
        None if body["locks"] is None else LockSet.from_dict(body["locks"])
    )
    policy_info = body["policy"]
    policy = make_policy(policy_info["name"], **policy_info["params"])
    policy.bind(instance, int(body["k"]), engine=engine, locks=locks)
    schedule = {
        int(event): int(interval)
        for event, interval in body["schedule"].items()
    }
    if checkpoint_offset == 0:
        # the recovery floor: bind just re-ran the original initial solve
        # on the base instance, so the live float state is
        # bit-identical by construction — adopting would re-accumulate it
        # in sorted order instead
        if dict(policy.scheduler.schedule.as_mapping()) != schedule:
            raise RecoveryError(
                "offset-0 checkpoint schedule does not match a fresh "
                "bind on the base instance"
            )
        policy.load_state(policy_info["state"])
    else:
        policy.scheduler.adopt(schedule)
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
    return policy


def recover(source: Durability | str) -> "RecoveredStream":
    """Rebuild a durable stream session from its directory.

    Loads and verifies the base instance once, then tries checkpoints
    newest-first among those whose offset the surviving journal can
    cover: derives the instance at the checkpoint's offset by applying
    the journal prefix to the base structurally, re-binds the policy on
    it, adopts the checkpointed schedule plus the bit-exact float
    state snapshot, restores policy state, and replays the journal tail
    through the normal ``policy.apply`` path — verifying the restored
    and replayed utilities against the journaled ones at every step
    (exact float equality).  A checkpoint that is damaged or fails
    verification is skipped for the next older one; the offset-0
    checkpoint (written at ``begin``) is the guaranteed floor, where a
    fresh bind plus full-journal replay reproduces the original run's
    float state bit-for-bit by construction.  A missing or damaged base
    instance, or a journal prefix that does not apply to it, fails
    recovery outright with a :class:`RecoveryError`.
    """
    config = source if isinstance(source, Durability) else Durability(source)
    journal, scan = DeltaJournal.open(
        config.journal_path, fsync=config.fsync, fsync_every=config.fsync_every
    )
    try:
        metadata = scan.metadata
        if metadata.get("kind") != "stream":
            raise RecoveryError(
                f"journal {config.journal_path} holds a "
                f"{metadata.get('kind')!r} session, not a stream replay"
            )
        engine = engine_spec_from_dict(metadata["engine"], config.journal_path)
        base = load_base(config, metadata)
        store = CheckpointStore(config.checkpoint_directory)
        candidates = [
            offset
            for offset in reversed(store.offsets())
            if offset <= scan.offset
        ]
        policy: MaintenancePolicy | None = None
        checkpoint_offset = -1
        failures: list[str] = []
        for candidate in candidates:
            try:
                body = store.load(candidate)
            except CheckpointError as error:
                failures.append(str(error))
                continue
            if body.get("kind") != "stream":
                failures.append(
                    f"checkpoint at offset {candidate} is not a stream "
                    f"checkpoint"
                )
                continue
            instance = derive_instance(
                base, scan.records[:candidate], _apply_structure,
                config.journal_path,
            )
            try:
                policy = _restore_checkpoint(
                    candidate, body, instance, scan, engine
                )
                checkpoint_offset = candidate
                break
            except RecoveryError as error:
                failures.append(str(error))
                continue
        if policy is None:
            detail = f" ({'; '.join(failures[-3:])})" if failures else ""
            raise RecoveryError(
                f"no checkpoint at or below journal offset {scan.offset} "
                f"in {config.checkpoint_directory} could be "
                f"restored{detail}"
            )
    except BaseException:
        journal.abandon()
        raise
    return RecoveredStream(
        config=config,
        journal=journal,
        store=store,
        policy=policy,
        metadata=metadata,
        prefix=list(scan.records),
        checkpoint_offset=checkpoint_offset,
    )


class RecoveredStream:
    """A durable stream session restored to its last journaled op.

    ``offset`` ops of the original trace are already absorbed; call
    :meth:`resume` with the *same* trace to run the remainder and get a
    :class:`StreamResult` covering the full replay (journaled prefix +
    resumed tail).
    """

    def __init__(
        self,
        *,
        config: Durability,
        journal: DeltaJournal,
        store: CheckpointStore,
        policy: MaintenancePolicy,
        metadata: dict[str, Any],
        prefix: list[dict[str, Any]],
        checkpoint_offset: int,
    ) -> None:
        self._config = config
        self._journal = journal
        self._store = store
        self._policy = policy
        self._metadata = metadata
        self._prefix = prefix
        self._checkpoint_offset = checkpoint_offset

    @property
    def offset(self) -> int:
        """Journal records already absorbed (where :meth:`resume` starts)."""
        return len(self._prefix)

    @property
    def checkpoint_offset(self) -> int:
        """Offset of the checkpoint recovery restarted from."""
        return self._checkpoint_offset

    @property
    def policy(self) -> MaintenancePolicy:
        return self._policy

    @property
    def metadata(self) -> dict[str, Any]:
        return dict(self._metadata)

    def utility(self) -> float:
        return self._policy.utility()

    def _validate_trace(self, trace: Trace) -> None:
        checks = (
            ("n_users", trace.n_users),
            ("initial_k", trace.initial_k),
            ("n_events", trace.n_events),
            ("n_intervals", trace.n_intervals),
        )
        for name, value in checks:
            recorded = self._metadata.get(name)
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
        for payload in self._prefix:
            index = int(payload["index"])
            if trace.ops[index].to_dict() != payload["op"]:
                raise RecoveryError(
                    f"trace op {index} does not match the journaled op; "
                    f"resume needs the exact original trace"
                )

    def _oracle_regret(self, solver_name: str) -> float:
        live = self._policy.scheduler
        oracle = solver_registry.create(
            solver_name, engine=live.engine_spec
        ).solve(live.live, live.k, plane=live.base_plane(), locks=live.locks)
        return oracle.utility - self._policy.utility()

    def resume(self, trace: Trace, *, stop_after: int | None = None) -> StreamResult:
        """Run the un-absorbed remainder of ``trace`` to completion.

        Journaling and checkpoint cadence continue exactly as in the
        original run, so a resumed session is itself durable (and can be
        killed and recovered again — the kill-point suite does).  The
        returned result covers the *whole* replay: per-op records of the
        journaled prefix are reconstructed from the journal (their
        latencies are the original run's measurements), the tail's are
        measured live.
        """
        if self._journal.closed:
            raise RecoveryError("this RecoveredStream was already resumed")
        self._validate_trace(trace)
        policy = self._policy
        oracle_every = self._metadata.get("oracle_every")
        oracle_solver = self._metadata.get("oracle_solver") or "grd-heap"
        durable = DurableStream(
            self._config,
            self._journal,
            self._store,
            policy,
            self._metadata["policy"]["name"],
            self._metadata["policy"]["params"],
        )
        started = time.perf_counter()
        records = [_record_from_payload(payload) for payload in self._prefix]
        interrupted = False
        for index in range(self.offset, len(trace)):
            if stop_after is not None and index >= stop_after:
                interrupted = True
                break
            op = trace.ops[index]
            op_started = time.perf_counter()
            policy.apply(op)
            latency = time.perf_counter() - op_started
            regret: float | None = None
            if oracle_every is not None and (index + 1) % oracle_every == 0:
                regret = self._oracle_regret(oracle_solver)
            record = OpRecord(
                index=index,
                label=op.label(),
                latency_seconds=latency,
                utility=policy.utility(),
                schedule_size=len(policy.schedule),
                regret=regret,
            )
            records.append(record)
            durable.record(op, record)

        if interrupted:
            durable.crash()
            finish_seconds = 0.0
        else:
            finish_started = time.perf_counter()
            policy.finish()
            finish_seconds = time.perf_counter() - finish_started
            durable.finish()

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
            base_plane_stats=(
                None if base_plane is None else base_plane.stats()
            ),
        )
