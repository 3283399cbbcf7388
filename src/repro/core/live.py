"""Mutable in-place instance state for O(delta) streaming change ops.

:class:`~repro.core.instance.SESInstance` is deliberately immutable, which
is the right contract for batch solvers — but the streaming subsystem pays
for it dearly: reconstructing an instance per change op costs O(instance)
in validation, interest-matrix copies, competing-mass recomputation and
engine re-assembly.  :class:`LiveInstance` is the mutable counterpart for
the online hot path:

* it mirrors the read surface every engine, schedule and feasibility
  checker consumes (``events``, ``interest``, ``activity``,
  ``competing_by_interval``, ``competing_mass``, ``theta``, the ``n_*``
  counts), so all of them can be *built over a live instance directly* and
  simply observe mutations;
* its four structural mutators — :meth:`add_event`, :meth:`remove_event`,
  :meth:`replace_event_interest`, :meth:`add_competing` — apply a change
  in O(delta) (one column touched, entity lists patched in place) and
  return a :class:`LiveDelta` describing exactly what changed;
* engines ingest that delta through
  :meth:`~repro.core.engine.ScoreEngine.apply_delta`, updating any state
  they cache (per-interval mass vectors, competing entry caches) in
  place instead of being rebuilt;
* :meth:`freeze` materializes an equivalent immutable
  :class:`SESInstance` — field-for-field identical to what rebuilding from
  scratch would produce — for batch re-solves, oracle queries and
  serialization.  The snapshot is cached until the next mutation, and the
  number of materializations is counted (:attr:`freezes`) so benchmarks
  and tests can assert the O(delta) fast path is actually taken.

Interest storage lives in :class:`LiveInterest`: one ``(rows, values)``
entry pair per column, taken from the source
:class:`~repro.core.interest.InterestMatrix`'s CSC storage, so append /
replace / remove cost O(nnz of the touched column).  The accessor
protocol engines consume (:meth:`~LiveInterest.event_column_entries`,
:meth:`~LiveInterest.competing_mass_entries`, ...) answers directly from
live storage.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np
from scipy import sparse as _sp

from repro.core.activity import ActivityModel
from repro.core.entities import (
    CandidateEvent,
    CompetingEvent,
    Organizer,
    TimeInterval,
    User,
)
from repro.core.errors import InstanceValidationError, UnknownEntityError
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix, accumulate_entries, slice_entries

__all__ = [
    "LiveDelta",
    "EventAdded",
    "EventRemoved",
    "EventInterestReplaced",
    "CompetingAdded",
    "LiveInterest",
    "LiveInstance",
    "arrival_event",
    "rival_event",
]

_EMPTY_ROWS = np.zeros(0, dtype=np.intp)
_EMPTY_VALUES = np.zeros(0)


# ----------------------------------------------------------------------
# deltas: what one structural mutation changed
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class LiveDelta:
    """Base of the structural-change records produced by mutators.

    Every leaf carrying sparse ``(user, value)`` payloads localizes to a
    user-row window via :meth:`restricted` — the primitive the shard
    router (:func:`repro.shard.engine.localize_delta`) uses to route each
    delta to exactly the user blocks it touches.
    """

    def restricted(self, lo: int, hi: int) -> "LiveDelta":
        """This delta with user payloads restricted to rows ``[lo, hi)``.

        Returned rows are local to the window (shifted by ``-lo``).
        Leaves without user payloads return ``self``.
        """
        raise NotImplementedError  # pragma: no cover - leaves override


@dataclass(frozen=True, eq=False)
class EventAdded(LiveDelta):
    """A candidate event was appended; ``rows``/``values`` is its column."""

    event: int
    rows: np.ndarray
    values: np.ndarray

    def restricted(self, lo: int, hi: int) -> "EventAdded":
        rows, values = slice_entries(self.rows, self.values, lo, hi)
        return EventAdded(event=self.event, rows=rows, values=values)


@dataclass(frozen=True, eq=False)
class EventRemoved(LiveDelta):
    """Candidate ``event`` was removed; later events shifted down by one.

    The event must be *unscheduled* at removal time (withdraw it from the
    engine and the feasibility checker first); engines only need to
    renumber their schedule mirrors.
    """

    event: int

    def restricted(self, lo: int, hi: int) -> "EventRemoved":
        return self  # no user payload: every block sees the same removal


@dataclass(frozen=True, eq=False)
class EventInterestReplaced(LiveDelta):
    """Candidate ``event``'s interest column drifted old -> new."""

    event: int
    old_rows: np.ndarray
    old_values: np.ndarray
    rows: np.ndarray
    values: np.ndarray

    def restricted(self, lo: int, hi: int) -> "EventInterestReplaced":
        old_rows, old_values = slice_entries(
            self.old_rows, self.old_values, lo, hi
        )
        rows, values = slice_entries(self.rows, self.values, lo, hi)
        return EventInterestReplaced(
            event=self.event,
            old_rows=old_rows,
            old_values=old_values,
            rows=rows,
            values=values,
        )


@dataclass(frozen=True, eq=False)
class CompetingAdded(LiveDelta):
    """A rival was appended at ``interval``; ``rows``/``values`` is its column."""

    competing: int
    interval: int
    rows: np.ndarray
    values: np.ndarray

    def restricted(self, lo: int, hi: int) -> "CompetingAdded":
        rows, values = slice_entries(self.rows, self.values, lo, hi)
        return CompetingAdded(
            competing=self.competing,
            interval=self.interval,
            rows=rows,
            values=values,
        )


# ----------------------------------------------------------------------
# interest storage
# ----------------------------------------------------------------------
def _entries_of(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero ``(rows, values)`` of a dense column (sorted rows)."""
    rows = np.flatnonzero(column)
    return rows.astype(np.intp, copy=False), column[rows].copy()


def _entry(rows: np.ndarray, values: np.ndarray, row: int) -> float:
    """The value a sorted entry list stores at ``row`` (0.0 if none)."""
    position = np.searchsorted(rows, row)
    if position < rows.size and rows[position] == row:
        return float(values[position])
    return 0.0


class LiveInterest:
    """Mutable storage of ``mu`` for one live instance.

    Keeps one sorted ``(rows, values)`` entry pair per candidate and per
    competing column, and answers the same accessor protocol as
    :class:`~repro.core.interest.InterestMatrix` (column gather, dense
    column expansion, per-interval competing-mass accumulation, element
    access), so engines and the reference Eq. 1–4 functions consume live
    and frozen interest interchangeably.

    :meth:`freeze` builds the CSC storage of a side (candidate or
    competing) only when a mutation touched that side since the last
    freeze; otherwise the snapshots share it, so a version kept per
    write holds a copy of the side that write changed and no more.
    """

    def __init__(self, matrix: InterestMatrix) -> None:
        self._n_users = matrix.n_users
        self._event_entries = [
            matrix.event_column_entries(e) for e in range(matrix.n_events)
        ]
        self._competing_entries = [
            matrix.competing_column_entries(c) for c in range(matrix.n_competing)
        ]
        # each side's storage as of the last freeze; None once mutated
        self._frozen_events: Any = matrix.candidate_sparse
        self._frozen_competing: Any = matrix.competing_sparse

    # -- shape ----------------------------------------------------------
    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def n_events(self) -> int:
        return len(self._event_entries)

    @property
    def n_competing(self) -> int:
        return len(self._competing_entries)

    # -- validation -----------------------------------------------------
    def _as_column(self, column: Any) -> np.ndarray:
        column = np.asarray(column, dtype=float)
        if column.shape != (self._n_users,):
            raise InstanceValidationError(
                f"interest column must have shape ({self._n_users},), "
                f"got {column.shape}"
            )
        if np.isnan(column).any():
            raise InstanceValidationError("interest column contains NaN entries")
        if column.size and (column.min() < 0.0 or column.max() > 1.0):
            raise InstanceValidationError(
                f"interest column entries must lie in [0, 1]; observed "
                f"range [{column.min()}, {column.max()}]"
            )
        return column

    # -- accessor protocol (what engines consume) -----------------------
    @property
    def candidate(self) -> np.ndarray:
        """Candidate ``mu`` as a freshly materialized dense array."""
        return self._dense(self._event_entries)

    @property
    def competing(self) -> np.ndarray:
        """Competing ``mu`` as a freshly materialized dense array."""
        return self._dense(self._competing_entries)

    def _dense(self, columns: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        dense = np.zeros((self._n_users, len(columns)))
        for index, (rows, values) in enumerate(columns):
            dense[rows, index] = values
        return dense

    def mu_event(self, user: int, event: int) -> float:
        return _entry(*self._event_entries[event], user)

    def mu_competing(self, user: int, competing: int) -> float:
        return _entry(*self._competing_entries[competing], user)

    def event_column(self, event: int) -> np.ndarray:
        return self._column(*self._event_entries[event])

    def competing_column(self, competing: int) -> np.ndarray:
        return self._column(*self._competing_entries[competing])

    def _column(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self._n_users)
        out[rows] = values
        return out

    def event_column_entries(self, event: int) -> tuple[np.ndarray, np.ndarray]:
        return self._event_entries[event]

    def competing_column_entries(
        self, competing: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._competing_entries[competing]

    def competing_mass_entries(
        self, rivals: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``K_t`` as a sparse vector (see :class:`InterestMatrix`)."""
        return accumulate_entries(
            (self._competing_entries[rival] for rival in rivals),
            self._n_users,
        )

    def nnz_candidate(self) -> int:
        """Number of nonzero candidate-interest entries."""
        return int(sum(rows.size for rows, _ in self._event_entries))

    # -- mutators (O(delta)) --------------------------------------------
    def append_event(self, column: Any) -> tuple[np.ndarray, np.ndarray]:
        entries = _entries_of(self._as_column(column))
        self._event_entries.append(entries)
        self._frozen_events = None
        return entries

    def remove_event(self, event: int) -> None:
        del self._event_entries[event]
        self._frozen_events = None

    def replace_event(
        self, event: int, column: Any
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Swap one candidate column; returns old and new entries."""
        rows, values = _entries_of(self._as_column(column))
        old_rows, old_values = self._event_entries[event]
        self._event_entries[event] = (rows, values)
        self._frozen_events = None
        return old_rows, old_values, rows, values

    def append_competing(self, column: Any) -> tuple[np.ndarray, np.ndarray]:
        entries = _entries_of(self._as_column(column))
        self._competing_entries.append(entries)
        self._frozen_competing = None
        return entries

    # -- freezing -------------------------------------------------------
    def freeze(self) -> InterestMatrix:
        """An immutable :class:`InterestMatrix` equal to the live state."""
        if self._frozen_events is None:
            self._frozen_events = self._to_csc(self._event_entries, self.n_events)
        if self._frozen_competing is None:
            self._frozen_competing = self._to_csc(
                self._competing_entries, self.n_competing
            )
        return InterestMatrix.adopt(self._frozen_events, self._frozen_competing)

    def _to_csc(
        self, columns: list[tuple[np.ndarray, np.ndarray]], n_columns: int
    ) -> Any:
        indptr = np.zeros(n_columns + 1, dtype=np.intp)
        for index, (rows, _) in enumerate(columns):
            indptr[index + 1] = indptr[index] + rows.size
        # fresh buffers: freeze() hands them over, read-only, as storage
        indices = np.concatenate([rows for rows, _ in columns] + [_EMPTY_ROWS])
        data = np.concatenate([values for _, values in columns] + [_EMPTY_VALUES])
        return _sp.csc_matrix(
            (data, indices, indptr), shape=(self._n_users, n_columns)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LiveInterest(users={self.n_users}, events={self.n_events}, "
            f"competing={self.n_competing})"
        )


# ----------------------------------------------------------------------
# the live instance
# ----------------------------------------------------------------------
class LiveInstance:
    """Mutable view over an :class:`SESInstance` for streaming change ops.

    Mirrors the instance read surface engines and checkers consume, so
    they can be constructed over a live instance directly (duck typing —
    every consumer only indexes and iterates).  Structural mutators apply
    a change in O(delta) and return the :class:`LiveDelta` that
    :meth:`~repro.core.engine.ScoreEngine.apply_delta` ingests.

    ``freeze()`` materializes the equivalent immutable snapshot (cached
    until the next mutation); :attr:`freezes` counts materializations so
    the streaming fast path can prove it never fell back to O(instance)
    rebuilds.
    """

    def __init__(self, instance: SESInstance) -> None:
        self._users = instance.users
        self._intervals = instance.intervals
        self._events: list[CandidateEvent] = list(instance.events)
        self._competing: list[CompetingEvent] = list(instance.competing)
        self._interest = LiveInterest(instance.interest)
        self._activity = instance.activity
        self._organizer = instance.organizer
        self._competing_by_interval: list[list[int]] = [
            list(group) for group in instance.competing_by_interval
        ]
        # the source instance doubles as the first frozen snapshot
        self._frozen: SESInstance | None = instance
        self._freezes = 0
        self._mutations = 0

    # -- entity access (SESInstance read surface) -----------------------
    @property
    def users(self) -> tuple[User, ...]:
        return self._users

    @property
    def intervals(self) -> tuple[TimeInterval, ...]:
        return self._intervals

    @property
    def events(self) -> list[CandidateEvent]:
        """Live candidate-event list (indexable; do not mutate)."""
        return self._events

    @property
    def competing(self) -> list[CompetingEvent]:
        """Live competing-event list (indexable; do not mutate)."""
        return self._competing

    @property
    def interest(self) -> LiveInterest:
        return self._interest

    @property
    def activity(self) -> ActivityModel:
        return self._activity

    @property
    def organizer(self) -> Organizer:
        return self._organizer

    @property
    def theta(self) -> float:
        return self._organizer.resources

    @property
    def n_users(self) -> int:
        return len(self._users)

    @property
    def n_intervals(self) -> int:
        return len(self._intervals)

    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def n_competing(self) -> int:
        return len(self._competing)

    @property
    def competing_by_interval(self) -> list[list[int]]:
        """``C_t`` as live index lists (do not mutate)."""
        return self._competing_by_interval

    @property
    def competing_mass(self) -> np.ndarray:
        """``K_t[u]`` as a dense ``(n_intervals, n_users)`` array.

        Recomputed on every access (no engine reads it; the sparse engine
        accumulates ``K_t`` over nonzero entries itself) in the same
        accumulation order as :attr:`SESInstance.competing_mass`, so
        frozen snapshots agree bit for bit.
        """
        mass = np.zeros((self.n_intervals, self.n_users))
        for interval, rivals in enumerate(self._competing_by_interval):
            for rival in rivals:
                mass[interval] += self._interest.competing_column(rival)
        return mass

    # -- bookkeeping ----------------------------------------------------
    @property
    def freezes(self) -> int:
        """Number of O(instance) snapshot materializations so far."""
        return self._freezes

    @property
    def mutations(self) -> int:
        """Number of structural mutations applied so far."""
        return self._mutations

    def _touch(self) -> None:
        self._frozen = None
        self._mutations += 1

    # -- structural mutators --------------------------------------------
    def add_event(
        self, event: CandidateEvent, interest_column: Any
    ) -> EventAdded:
        """Append a candidate event with its interest column."""
        if event.index != self.n_events:
            raise InstanceValidationError(
                f"{event.display_name} carries index {event.index}; the next "
                f"candidate-event index is {self.n_events}"
            )
        if event.required_resources > self.theta:
            raise InstanceValidationError(
                f"{event.display_name} requires {event.required_resources} "
                f"resources, exceeding organizer capacity {self.theta}; "
                f"it could never be scheduled"
            )
        rows, values = self._interest.append_event(interest_column)
        self._events.append(event)
        self._touch()
        return EventAdded(event=event.index, rows=rows, values=values)

    def remove_event(self, event: int) -> EventRemoved:
        """Delete a candidate event; subsequent events are renumbered."""
        if not 0 <= event < self.n_events:
            raise UnknownEntityError(f"no candidate event {event}")
        self._interest.remove_event(event)
        del self._events[event]
        for index in range(event, len(self._events)):
            self._events[index] = replace(self._events[index], index=index)
        self._touch()
        return EventRemoved(event=event)

    def replace_event_interest(
        self, event: int, interest_column: Any
    ) -> EventInterestReplaced:
        """Swap one candidate event's interest column (taste drift)."""
        if not 0 <= event < self.n_events:
            raise UnknownEntityError(f"no candidate event {event}")
        old_rows, old_values, rows, values = self._interest.replace_event(
            event, interest_column
        )
        self._touch()
        return EventInterestReplaced(
            event=event,
            old_rows=old_rows,
            old_values=old_values,
            rows=rows,
            values=values,
        )

    def add_competing(
        self, rival: CompetingEvent, interest_column: Any
    ) -> CompetingAdded:
        """Append a competing event pinned to its interval."""
        if rival.index != self.n_competing:
            raise InstanceValidationError(
                f"{rival.display_name} carries index {rival.index}; the next "
                f"competing-event index is {self.n_competing}"
            )
        if rival.interval >= self.n_intervals:
            raise InstanceValidationError(
                f"{rival.display_name} references interval {rival.interval}, "
                f"instance has only {self.n_intervals}"
            )
        rows, values = self._interest.append_competing(interest_column)
        self._competing.append(rival)
        self._competing_by_interval[rival.interval].append(rival.index)
        self._touch()
        return CompetingAdded(
            competing=rival.index, interval=rival.interval, rows=rows,
            values=values,
        )

    # -- freezing -------------------------------------------------------
    def freeze(self) -> SESInstance:
        """The equivalent immutable :class:`SESInstance` (cached snapshot).

        Field-for-field identical to rebuilding the instance from scratch
        with the same history; costs O(instance), so hot paths must route
        through deltas instead and only batch re-solves / oracles freeze.
        """
        if self._frozen is None:
            self._freezes += 1
            self._frozen = SESInstance(
                users=self._users,
                intervals=self._intervals,
                events=tuple(self._events),
                competing=tuple(self._competing),
                interest=self._interest.freeze(),
                activity=self._activity,
                organizer=self._organizer,
            )
        return self._frozen

    def describe(self) -> str:
        """One-line human summary, mirroring :meth:`SESInstance.describe`."""
        return (
            f"LiveInstance(users={self.n_users}, events={self.n_events}, "
            f"intervals={self.n_intervals}, competing={self.n_competing}, "
            f"theta={self.theta})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def arrival_event(
    live: LiveInstance,
    location: int,
    required_resources: float,
    name: str = "",
    tags: frozenset[str] = frozenset(),
) -> CandidateEvent:
    """The candidate event a streaming arrival appends to ``live``.

    It takes the next free index, and an unnamed arrival is called
    ``arrival-<index>``.  The live scheduler and the recovery replay of
    a journal both build arrivals here, so the two agree field for field.
    """
    index = live.n_events
    return CandidateEvent(
        index=index,
        location=location,
        required_resources=required_resources,
        name=name or f"arrival-{index}",
        tags=tags,
    )


def rival_event(live: LiveInstance, interval: int, name: str = "") -> CompetingEvent:
    """The competing event a rival announcement appends to ``live``.

    It takes the next free index, and an unnamed rival is called
    ``rival-arrival-<index>`` (see :func:`arrival_event`).
    """
    index = live.n_competing
    return CompetingEvent(
        index=index, interval=interval, name=name or f"rival-arrival-{index}"
    )
