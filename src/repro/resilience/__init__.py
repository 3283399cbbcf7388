"""Crash safety and fault tolerance for durable SES sessions.

Four pillars:

* :class:`DeltaJournal` — an append-only, CRC-framed write-ahead log
  (format ``ses-wal/1``) of every applied change op, with torn-tail
  repair on re-open and configurable fsync policy.
* :class:`CheckpointStore` — periodic atomic, instance-free snapshots
  (``ses-ckpt/2``) of live session state, published via temp sibling +
  ``os.replace``; the base instance is written once as ``instance.npz``
  (:mod:`repro.resilience.base`).
* :func:`recover` — newest valid checkpoint over the instance derived
  from the base and the journal prefix, then journal-tail replay
  through the normal delta path; a recovered stream session is
  bit-identical to an uninterrupted one (the kill-point suite proves it
  at every op index).  Serving sessions recover through
  :meth:`repro.serve.session.ServingSession.recover`.
* :class:`FaultPlan` / :class:`RetryPolicy` — deterministic seeded
  fault injection for executors and pool writers, with bounded
  seeded-jitter retries and a serial fallback that makes fault-injected
  runs converge to the fault-free result.

:class:`Durability` is the single config object the driver and serving
session take to turn all of this on.
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
    JournalScan,
)
from repro.resilience.stream import DurableStream, RecoveredStream, recover

__all__ = [
    "Durability",
    "DeltaJournal",
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
