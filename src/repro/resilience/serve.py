"""Journal codec for serving-session mutations (``ses-wal/1``, kind "serve").

A durable :class:`~repro.serve.session.ServingSession` journals every
committed mutation — the four single-writer operations — as one record
each, *after* the pool write commits and *before* the caller is
acknowledged.  Interest columns are journaled as full dense lists
(``LiveInstance`` mutators take dense columns; JSON round-trips floats
losslessly), so replaying a record through the normal mutator is exactly
a replay of the acknowledged call.

:func:`replay_mutation` is recovery's half: dispatch one journal record
back through the session's public mutator, which routes it through
:meth:`~repro.serve.pool.PlanePool.write` just like the original call —
generation counters and plane contents line up bit-for-bit with an
uninterrupted session.  :func:`apply_structure` decodes the same record
but makes only its structural change, to a bare
:class:`~repro.core.live.LiveInstance`: recovery derives the instance at
a checkpoint's offset that way, from the base instance and the journal
prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.errors import RecoveryError

if TYPE_CHECKING:
    from repro.core.live import LiveInstance
    from repro.serve.session import ServingSession

__all__ = [
    "SERVE_MUTATION_KINDS",
    "apply_structure",
    "column_payload",
    "replay_mutation",
]

#: Journal record kinds a serving session emits, one per mutator.
SERVE_MUTATION_KINDS = (
    "add_event",
    "cancel_event",
    "update_event_interest",
    "add_competing",
)


def column_payload(column: Any) -> list[float]:
    """Canonical journal encoding of one interest column."""
    return [float(v) for v in np.asarray(column, dtype=float)]


def _arguments(payload: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """A record's kind and the keyword arguments of its mutator."""
    kind = payload.get("kind")
    if kind == "add_event":
        arguments = {
            "location": int(payload["location"]),
            "required_resources": float(payload["required_resources"]),
            "interest_column": np.asarray(payload["interest"], dtype=float),
            "name": str(payload["name"]),
            "tags": frozenset(payload["tags"]),
        }
    elif kind == "cancel_event":
        arguments = {"event": int(payload["event"])}
    elif kind == "update_event_interest":
        arguments = {
            "event": int(payload["event"]),
            "interest_column": np.asarray(payload["interest"], dtype=float),
        }
    elif kind == "add_competing":
        arguments = {
            "interval": int(payload["interval"]),
            "interest_column": np.asarray(payload["interest"], dtype=float),
            "name": str(payload["name"]),
        }
    else:
        raise RecoveryError(
            f"unknown serve journal record kind {kind!r}; "
            f"choose from {SERVE_MUTATION_KINDS}"
        )
    return kind, arguments


def replay_mutation(session: "ServingSession", payload: dict[str, Any]) -> None:
    """Re-apply one journaled mutation through the session's mutators."""
    kind, arguments = _arguments(payload)
    getattr(session, kind)(**arguments)


def apply_structure(live: "LiveInstance", payload: dict[str, Any]) -> None:
    """Make one journaled mutation's structural change to ``live`` alone."""
    from repro.serve.session import STRUCTURAL_MUTATIONS

    kind, arguments = _arguments(payload)
    STRUCTURAL_MUTATIONS[kind](live, **arguments)
