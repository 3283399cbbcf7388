"""``repro.stream`` — the streaming workload subsystem.

The paper solves SES once; a deployed organizer faces a *stream*: new
candidate events surface, acts cancel, rival venues announce shows,
audience taste drifts, budgets grow.  This package makes that scenario a
first-class workload:

* :mod:`repro.stream.trace` — frozen, timestamped change ops
  (:class:`ArriveCandidate`, :class:`CancelEvent`, :class:`AnnounceRival`,
  :class:`DriftInterest`, :class:`RaiseBudget`) bundled into replayable
  :class:`Trace` objects with deterministic JSONL serialization;
* :mod:`repro.stream.policies` — pluggable maintenance policies
  (``incremental``, ``periodic-rebuild``, ``hybrid``) deciding how much
  re-optimization each change is worth;
* :mod:`repro.stream.driver` — :class:`StreamDriver`, the replay loop
  recording per-op latency, the utility trajectory and oracle regret.

Traces are generated from experiment configs by
:class:`repro.workloads.traces.TraceGenerator` and replayed here.  The
serving facade exposes the loop as
:meth:`repro.api.ScheduleSession.stream`, and the CLI as
``ses-repro stream``, which replays one trace under several policies
side by side.
"""

from repro.stream.driver import OpRecord, StreamDriver, StreamResult
from repro.stream.policies import (
    HybridPolicy,
    IncrementalPolicy,
    MaintenancePolicy,
    PeriodicRebuildPolicy,
    POLICY_NAMES,
    make_policy,
)
from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    ChangeOp,
    DriftInterest,
    RaiseBudget,
    Trace,
    TraceError,
    entries_from_column,
)

__all__ = [
    "AnnounceRival",
    "ArriveCandidate",
    "CancelEvent",
    "ChangeOp",
    "DriftInterest",
    "HybridPolicy",
    "IncrementalPolicy",
    "MaintenancePolicy",
    "OpRecord",
    "POLICY_NAMES",
    "PeriodicRebuildPolicy",
    "RaiseBudget",
    "StreamDriver",
    "StreamResult",
    "Trace",
    "TraceError",
    "entries_from_column",
    "make_policy",
]
