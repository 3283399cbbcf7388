"""Crash safety and fault tolerance for durable SES sessions.

Both durable session kinds — a :class:`~repro.stream.StreamDriver`
replay and a :class:`~repro.serve.ServingSession` — share one core:

* :class:`DeltaJournal` — an append-only, CRC-framed write-ahead log
  (format ``ses-wal/1``) with torn-tail repair on re-open and a
  configurable fsync policy.
* :class:`CheckpointStore` — atomic, instance-free snapshots
  (``ses-ckpt/3``: canonical JSON with numpy arrays, such as a
  stream's engine float state, stored as binary; other formats are
  refused by name); the base instance is written once as
  ``instance.npz``.
* :class:`DurableWriter` — the one commit path: apply -> journal ->
  ack, a journal sync before every checkpoint, a checkpoint every
  ``checkpoint_every`` records.
* One record vocabulary: both kinds journal each change as the stream's
  change op (:class:`~repro.stream.trace.ChangeOp`, interest as sparse
  entries) under ``"op"``; a stream record adds the driver's
  observation of it.
* :func:`repro.resilience.base.recover_session` — the one recovery
  routine: the newest checkpoint the journal covers that restores
  cleanly, over the instance derived from the base and the journal
  prefix (each op's :meth:`~repro.stream.trace.ChangeOp.apply_structure`),
  then journal-tail replay through the session's normal path;
  older checkpoints are the fallback, and a recovery that finds none
  names why each was skipped.  :func:`recover` (streams) and
  ``ServingSession.recover`` run it, and a recovered session is
  bit-identical to an uninterrupted one (the kill-point suites prove
  it at every op index).
* :class:`FaultPlan` / :class:`RetryPolicy` — deterministic seeded
  fault injection for executors and pool writers, with bounded
  seeded-jitter retries and a serial fallback that makes fault-injected
  runs converge to the fault-free result.

:class:`Durability` is the single config object both session kinds
take to turn all of this on.
"""

from repro.core.errors import (
    CheckpointError,
    InjectedFault,
    JournalError,
    RecoveryError,
)
from repro.resilience.checkpoint import CHECKPOINT_FORMAT, CheckpointStore
from repro.resilience.config import Durability
from repro.resilience.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.resilience.journal import (
    FSYNC_POLICIES,
    JOURNAL_FORMAT,
    DeltaJournal,
    DurableWriter,
    JournalScan,
)
from repro.resilience.stream import DurableStream, RecoveredStream, recover

__all__ = [
    "Durability",
    "DeltaJournal",
    "DurableWriter",
    "JournalScan",
    "JOURNAL_FORMAT",
    "FSYNC_POLICIES",
    "CheckpointStore",
    "CHECKPOINT_FORMAT",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "InjectedFault",
    "DurableStream",
    "RecoveredStream",
    "recover",
    "JournalError",
    "CheckpointError",
    "RecoveryError",
]
