"""Exception hierarchy for the SES library.

All library-specific failures derive from :class:`SESError` so callers can
catch one base class at an API boundary.
"""

from __future__ import annotations

__all__ = [
    "SESError",
    "InfeasibleAssignmentError",
    "DuplicateEventError",
    "UnknownEntityError",
    "InstanceValidationError",
    "ScheduleSizeError",
    "DeadlineExceeded",
    "TraceError",
    "LockError",
    "SerializationError",
    "JournalError",
    "CheckpointError",
    "RecoveryError",
    "InjectedFault",
]


class SESError(Exception):
    """Base class for every error raised by the repro library."""


class InstanceValidationError(SESError, ValueError):
    """A problem instance violates a structural requirement.

    Raised at :class:`~repro.core.instance.SESInstance` construction time,
    e.g. for interest values outside [0, 1] or mismatched array shapes,
    and by the mutators for such an interest column.  Also a
    :class:`ValueError`, so callers catching the builtin keep working.
    """


class InfeasibleAssignmentError(SESError):
    """An assignment violates the location or resources constraint."""


class DuplicateEventError(SESError):
    """An event was assigned twice within one schedule.

    The paper's definition of a schedule forbids two assignments referring
    to the same event.
    """


class UnknownEntityError(SESError):
    """An index referenced a user/event/interval that does not exist."""


class ScheduleSizeError(SESError):
    """A solver could not produce a feasible schedule of the requested size."""


class DeadlineExceeded(SESError):
    """A solve's :class:`~repro.algorithms.base.Deadline` expired mid-run.

    Raised by a one-shot solver at the first main-loop step that finds
    its deadline passed; the partial schedule is discarded.
    :class:`~repro.serve.ServingSession` answers such a request with its
    GRD floor, stamped ``degraded``.
    """


class LockError(SESError):
    """An organizer lock set is malformed or cannot be honored.

    Raised by :class:`~repro.interactive.locks.LockSet` validation (an
    index out of range, an event pinned to two intervals, a pin that is
    also forbidden) and by solvers when the pinned assignments are not
    jointly feasible, when ``k`` is smaller than the number of pins, or
    when a caller-supplied schedule violates the locks it claims to honor.
    """


class TraceError(SESError, ValueError):
    """A streaming change trace is not replayable.

    Raised by :class:`~repro.stream.trace.Trace` validation when an op
    references an event index that is not live at its replay position
    (a cancel/drift of an unknown id), duplicates a still-live named
    arrival, or shrinks the budget.  The message names the offending op
    index so broken traces are debuggable without replaying them.  Bad
    interest entries of an op raise it too.  Also a :class:`ValueError`,
    so callers catching the builtin keep working.
    """


class SerializationError(SESError):
    """A persisted instance/schedule artifact is unreadable or incomplete.

    Raised by the loaders in :mod:`repro.data.serialization` when a
    sharded-instance directory is missing its manifest, records a format
    version or block storage this build does not read, or references
    block files that are missing, unreadable or corrupt — the message
    names the directory or file instead of a raw
    :class:`FileNotFoundError` or ``BadZipFile`` surfacing deep inside a
    block loop.
    """


class JournalError(SESError):
    """A :class:`~repro.resilience.journal.DeltaJournal` is corrupt.

    Torn *tails* (a crash mid-append) are not errors — they are truncated
    silently on open.  This is raised for damage recovery must not paper
    over: a bad header, an unsupported format tag, or a record that fails
    its CRC *before* later valid records (mid-file corruption).
    """


class CheckpointError(SESError):
    """A checkpoint file could not be written or decoded."""


class RecoveryError(SESError):
    """Crash recovery could not resume a durable session.

    Raised when no valid checkpoint survives, when the journal tail does
    not replay cleanly onto the checkpointed state, or when a resumed
    trace diverges from the ops the journal already recorded.
    """


class InjectedFault(SESError):
    """A deterministic fault injected by a :class:`~repro.resilience.faults.FaultPlan`.

    Carries the injection ``site`` and fault ``kind`` so retry loops and
    tests can distinguish synthetic failures from real ones.
    """

    def __init__(self, site: str, kind: str) -> None:
        super().__init__(f"injected {kind} fault at {site}")
        self.site = site
        self.kind = kind
