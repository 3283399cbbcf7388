"""The streaming trace model: frozen, timestamped change operations.

A *trace* is the unit of replay for the streaming subsystem: an ordered
tuple of change ops — candidate arrivals, cancellations, rival
announcements, interest drift, budget raises — each stamped with a
monotonically non-decreasing ``time``.  Ops are frozen dataclasses, so a
trace can be shared between policies, replayed repeatedly, and hashed
into experiment records without aliasing surprises.

Interest payloads are stored as sparse ``(user, value)`` entry tuples,
never dense vectors: a Meetup-scale arrival touches a few hundred of
42,444 users, and keeping ops sparse is what lets traces serialize
compactly and replay against CSC interest storage without ever
materializing an ``O(|U|)`` payload per op (the replay driver expands a
column only at apply time).

Serialization is deterministic JSONL: one canonical JSON object per line
(sorted keys, no whitespace), preceded by a header line carrying the
trace's shape metadata.  Two equal traces always serialize to identical
bytes — the replay-determinism suite relies on it.

Event indices in ops refer to the *live* instance at apply time:
:class:`CancelEvent` renumbers subsequent events exactly like
:meth:`~repro.algorithms.incremental.IncrementalScheduler.cancel_event`
does, and :class:`~repro.workloads.traces.TraceGenerator` tracks that
index space while sampling, so generated traces are always applicable.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.core.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.incremental import IncrementalScheduler

__all__ = [
    "ChangeOp",
    "ArriveCandidate",
    "CancelEvent",
    "AnnounceRival",
    "DriftInterest",
    "RaiseBudget",
    "Trace",
    "TraceError",
    "column_from_entries",
    "entries_from_column",
]

#: Serialization format tag written into every trace header.
TRACE_FORMAT = "ses-trace/1"

#: ``(user, value)`` interest entries, sorted by user, values in (0, 1].
Entries = tuple[tuple[int, float], ...]


def entries_from_column(column: np.ndarray) -> Entries:
    """Canonical sparse entries of a dense interest column (zeros dropped)."""
    column = np.asarray(column, dtype=float)
    rows = np.flatnonzero(column)
    return tuple((int(u), float(column[u])) for u in rows)


def _normalize_entries(entries: Iterable[tuple[int, float]]) -> Entries:
    """Sort by user, reject duplicates and out-of-range values."""
    pairs = tuple(sorted((int(u), float(v)) for u, v in entries))
    seen: set[int] = set()
    for user, value in pairs:
        if user < 0:
            raise TraceError(f"interest entry user must be non-negative, got {user}")
        if user in seen:
            raise TraceError(f"duplicate interest entry for user {user}")
        if not 0.0 < value <= 1.0:
            raise TraceError(
                f"interest entry values must lie in (0, 1], got {value} "
                f"for user {user}"
            )
        seen.add(user)
    return pairs


def column_from_entries(entries: Entries, n_users: int) -> np.ndarray:
    """Dense ``(n_users,)`` interest column of sparse entries (inverse of
    :func:`entries_from_column`)."""
    column = np.zeros(n_users)
    for user, value in entries:
        if user >= n_users:
            raise TraceError(
                f"interest entry user {user} out of range for {n_users} users"
            )
        column[user] = value
    return column


@dataclass(frozen=True)
class ChangeOp:
    """Base of all streaming change operations (timestamped, frozen)."""

    time: float

    #: Short serialization / op-log tag; subclasses override.
    kind: ClassVar[str] = "op"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"op time must be non-negative, got {self.time}")

    # -- replay ---------------------------------------------------------
    def apply(self, live: "IncrementalScheduler", *, maintain: bool = True) -> None:
        """Apply this op to a live scheduler (structural + optional upkeep)."""
        raise NotImplementedError

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"op": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = [list(pair) for pair in value]
            payload[spec.name] = value
        return payload

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "ChangeOp":
        data = dict(payload)
        kind = data.pop("op", None)
        cls = _OP_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown change-op kind {kind!r}; "
                f"choose from {sorted(_OP_KINDS)}"
            )
        if "interest" in data:
            data["interest"] = tuple(
                (int(u), float(v)) for u, v in data["interest"]
            )
        return cls(**data)

    def label(self) -> str:
        """Compact tag for op logs, e.g. ``"arrive"`` / ``"cancel:3"``."""
        return self.kind


@dataclass(frozen=True)
class ArriveCandidate(ChangeOp):
    """A new candidate event becomes available."""

    location: int = 0
    required_resources: float = 0.0
    interest: Entries = ()
    name: str = ""

    kind: ClassVar[str] = "arrive"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "interest", _normalize_entries(self.interest))

    def apply(
        self, live: "IncrementalScheduler", *, maintain: bool = True
    ) -> None:
        live.add_candidate_event(
            location=self.location,
            required_resources=self.required_resources,
            interest_column=column_from_entries(
                self.interest, live.live.n_users
            ),
            name=self.name,
            maintain=maintain,
        )


@dataclass(frozen=True)
class CancelEvent(ChangeOp):
    """A candidate event (scheduled or not) disappears."""

    event: int = 0

    kind: ClassVar[str] = "cancel"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.event < 0:
            raise ValueError(f"event index must be non-negative, got {self.event}")

    def apply(
        self, live: "IncrementalScheduler", *, maintain: bool = True
    ) -> None:
        live.cancel_event(self.event, maintain=maintain)

    def label(self) -> str:
        return f"{self.kind}:{self.event}"


@dataclass(frozen=True)
class AnnounceRival(ChangeOp):
    """A third-party show is announced at one interval."""

    interval: int = 0
    interest: Entries = ()
    name: str = ""

    kind: ClassVar[str] = "rival"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.interval < 0:
            raise ValueError(
                f"interval index must be non-negative, got {self.interval}"
            )
        object.__setattr__(self, "interest", _normalize_entries(self.interest))

    def apply(
        self, live: "IncrementalScheduler", *, maintain: bool = True
    ) -> None:
        live.add_competing_event(
            interval=self.interval,
            interest_column=column_from_entries(
                self.interest, live.live.n_users
            ),
            name=self.name,
            maintain=maintain,
        )

    def label(self) -> str:
        return f"{self.kind}:t{self.interval}"


@dataclass(frozen=True)
class DriftInterest(ChangeOp):
    """One event's audience interest drifts to a new column."""

    event: int = 0
    interest: Entries = ()

    kind: ClassVar[str] = "drift"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.event < 0:
            raise ValueError(f"event index must be non-negative, got {self.event}")
        object.__setattr__(self, "interest", _normalize_entries(self.interest))

    def apply(
        self, live: "IncrementalScheduler", *, maintain: bool = True
    ) -> None:
        live.update_event_interest(
            self.event,
            column_from_entries(self.interest, live.live.n_users),
            maintain=maintain,
        )

    def label(self) -> str:
        return f"{self.kind}:{self.event}"


@dataclass(frozen=True)
class RaiseBudget(ChangeOp):
    """The organizer's budget ``k`` grows."""

    new_k: int = 1

    kind: ClassVar[str] = "budget"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.new_k <= 0:
            raise ValueError(f"new_k must be positive, got {self.new_k}")

    def apply(
        self, live: "IncrementalScheduler", *, maintain: bool = True
    ) -> None:
        live.raise_budget(self.new_k, maintain=maintain)

    def label(self) -> str:
        return f"{self.kind}:{self.new_k}"


_OP_KINDS: dict[str, type[ChangeOp]] = {
    cls.kind: cls
    for cls in (
        ArriveCandidate,
        CancelEvent,
        AnnounceRival,
        DriftInterest,
        RaiseBudget,
    )
}


class _LiveIndexMap:
    """Order-statistics map over a growing pool of live entity slots.

    :meth:`Trace.compact`'s live-index simulation needs three queries —
    bring a slot alive, retire one, and translate between a slot and its
    current *live index* (its rank among alive slots) — each formerly a
    ``list.index()``/``list.pop()`` walk, O(n) per cancel and quadratic
    over churn-heavy traces.  A Fenwick tree over slot-alive flags
    answers all three in O(log n); slots are handed out in creation
    order, so rank-by-slot equals position in the old list simulation.
    """

    __slots__ = ("_tree", "_capacity")

    def __init__(self, alive: int, capacity: int) -> None:
        self._capacity = capacity
        self._tree = [0] * (capacity + 1)
        for slot in range(alive):
            self.add(slot)

    def add(self, slot: int) -> None:
        """Mark ``slot`` alive."""
        index = slot + 1
        while index <= self._capacity:
            self._tree[index] += 1
            index += index & -index

    def remove(self, slot: int) -> None:
        """Retire an alive ``slot``."""
        index = slot + 1
        while index <= self._capacity:
            self._tree[index] -= 1
            index += index & -index

    def rank(self, slot: int) -> int:
        """Live index of an alive ``slot``: alive slots strictly before it."""
        total = 0
        index = slot  # prefix sum over tree positions 1..slot = slots < slot
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total

    def select(self, live_index: int) -> int:
        """The slot currently at ``live_index`` (inverse of :meth:`rank`)."""
        position = 0
        remaining = live_index + 1
        step = 1 << self._capacity.bit_length()
        while step:
            probe = position + step
            if probe <= self._capacity and self._tree[probe] < remaining:
                position = probe
                remaining -= self._tree[probe]
            step >>= 1
        return position  # tree position -> 0-indexed slot


@dataclass(frozen=True)
class Trace:
    """An ordered, replayable stream of change ops plus shape metadata.

    ``n_users`` and ``initial_k`` pin the instance shape the trace was
    generated against — and, when known, ``n_events`` / ``n_intervals``
    pin the starting entity counts the ops' indices assume.  The replay
    driver validates whatever is present, so a trace can never be
    silently applied to a mismatched instance.
    """

    ops: tuple[ChangeOp, ...]
    n_users: int
    initial_k: int
    #: Candidate-event count at the start of the stream (``None``: unknown).
    n_events: int | None = None
    #: Interval count the ops' interval indices assume (``None``: unknown).
    n_intervals: int | None = None
    seed: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n_users <= 0:
            raise ValueError(f"n_users must be positive, got {self.n_users}")
        if self.initial_k < 0:
            raise ValueError(
                f"initial_k must be non-negative, got {self.initial_k}"
            )
        if self.n_events is not None and self.n_events <= 0:
            raise ValueError(f"n_events must be positive, got {self.n_events}")
        if self.n_intervals is not None and self.n_intervals <= 0:
            raise ValueError(
                f"n_intervals must be positive, got {self.n_intervals}"
            )
        previous = 0.0
        for op in self.ops:
            if op.time < previous:
                raise ValueError(
                    f"op times must be non-decreasing; {op.time} follows "
                    f"{previous}"
                )
            previous = op.time
        self._validate_replayability()

    def _validate_replayability(self) -> None:
        """Simulate the live index space and reject unreplayable ops.

        Event indices in ops refer to the *live* instance at apply time
        (cancellations renumber), so a trace is only replayable if every
        referenced index exists at its op's position.  When ``n_events``
        is known, this walks the stream tracking the live candidate pool
        — exactly like the incremental scheduler will — and raises
        :class:`~repro.core.errors.TraceError` naming the offending op
        index for:

        * a :class:`CancelEvent` / :class:`DriftInterest` of an event id
          that is not live at that point;
        * an :class:`ArriveCandidate` duplicating the (nonempty) name of
          an event that is still live;
        * an :class:`AnnounceRival` at an out-of-range interval (when
          ``n_intervals`` is known);
        * a :class:`RaiseBudget` that would shrink the budget.

        Previously such traces were accepted silently and only exploded
        (or, worse, cancelled the wrong renumbered event) mid-replay.
        """
        if self.n_events is None:
            return
        # names of live candidates: the initial pool's names are unknown
        # to the trace, so they participate as anonymous placeholders;
        # the parallel set makes the duplicate probe O(1) per arrival
        live_names: list[str | None] = [None] * self.n_events
        names_in_use: set[str] = set()
        k = self.initial_k
        for index, op in enumerate(self.ops):
            if isinstance(op, ArriveCandidate):
                if op.name and op.name in names_in_use:
                    raise TraceError(
                        f"op #{index}: duplicate ArriveCandidate "
                        f"{op.name!r}; an event with that name is already "
                        f"live"
                    )
                live_names.append(op.name or None)
                if op.name:
                    names_in_use.add(op.name)
            elif isinstance(op, (CancelEvent, DriftInterest)):
                if op.event >= len(live_names):
                    raise TraceError(
                        f"op #{index}: {op.label()} references event "
                        f"{op.event}, but only {len(live_names)} candidate "
                        f"events are live at that point"
                    )
                if isinstance(op, CancelEvent):
                    cancelled = live_names.pop(op.event)
                    if cancelled is not None:
                        names_in_use.discard(cancelled)
            elif isinstance(op, AnnounceRival):
                if self.n_intervals is not None and (
                    op.interval >= self.n_intervals
                ):
                    raise TraceError(
                        f"op #{index}: {op.label()} references interval "
                        f"{op.interval}, but the trace covers "
                        f"{self.n_intervals} intervals"
                    )
            elif isinstance(op, RaiseBudget):
                if op.new_k < k:
                    raise TraceError(
                        f"op #{index}: {op.label()} would shrink the "
                        f"budget from {k} (budgets only grow; cancel "
                        f"events to shrink)"
                    )
                k = op.new_k

    def compact(self) -> "Trace":
        """Rewrite this trace into an equivalent, usually shorter one.

        Long-lived streams accumulate dead weight: candidates that
        arrive only to be cancelled later, bursts of consecutive drifts
        on the same event, staircases of budget raises.  Compaction
        applies three rewrites:

        * **cancelled arrivals are dropped** — an :class:`ArriveCandidate`
          whose event is cancelled later in the trace vanishes along
          with every op targeting it (drifts) and the cancel itself;
          live-index references in surviving ops are renumbered to the
          compacted index space (cancels of *pre-existing* events are
          kept — they change the final state);
        * **consecutive drifts coalesce** — immediately adjacent
          :class:`DriftInterest` ops on the same live event keep only
          the last column;
        * **consecutive budget raises coalesce** — immediately adjacent
          :class:`RaiseBudget` ops keep only the final budget (greedy
          fill to ``k1`` then ``k2`` is the same pick sequence as
          filling straight to ``k2``).

        The compacted trace reaches the *same final instance state*
        (entities, interest columns, rivals, budget) in the same event
        index order, so an end-of-stream batch re-solve — and hence the
        ``periodic-rebuild`` policy — lands on the identical final
        schedule; the replay-equivalence suite additionally pins the
        incremental and hybrid trajectories on seeded streams.  Requires
        ``n_events`` (the live-index simulation needs the starting pool
        size); the result is fully re-validated.
        """
        if self.n_events is None:
            raise TraceError(
                "compact() needs n_events to simulate live event indices"
            )
        # entity ids double as slots: original live pool gets 0..n-1,
        # then one sequential id per arrival — creation order, so the
        # order-statistics maps below rank entities exactly like the
        # list simulation this replaced (O(n) index/pop scans per
        # cancel made compaction quadratic on churn-heavy traces)
        total_arrivals = sum(
            1 for op in self.ops if isinstance(op, ArriveCandidate)
        )
        cancelled_arrivals: set[int] = set()
        # pass 1: find arrivals that are cancelled later in the trace
        pool = _LiveIndexMap(self.n_events, self.n_events + total_arrivals)
        probe = self.n_events
        for op in self.ops:
            if isinstance(op, ArriveCandidate):
                pool.add(probe)
                probe += 1
            elif isinstance(op, CancelEvent):
                victim = pool.select(op.event)
                pool.remove(victim)
                if victim >= self.n_events:
                    cancelled_arrivals.add(victim)
        # pass 2: emit surviving ops against the compacted live pool
        alive = _LiveIndexMap(self.n_events, self.n_events + total_arrivals)
        compact_pool = _LiveIndexMap(
            self.n_events,
            self.n_events + total_arrivals - len(cancelled_arrivals),
        )
        # surviving arrivals get fresh compact slots; original-pool
        # entities keep their own id as slot in both index spaces
        compact_slot: dict[int, int] = {}
        next_id = self.n_events
        next_compact_slot = self.n_events
        kept: list[ChangeOp] = []
        for op in self.ops:
            if isinstance(op, ArriveCandidate):
                entity, next_id = next_id, next_id + 1
                alive.add(entity)
                if entity in cancelled_arrivals:
                    continue
                compact_slot[entity] = next_compact_slot
                compact_pool.add(next_compact_slot)
                next_compact_slot += 1
                kept.append(op)
            elif isinstance(op, CancelEvent):
                entity = alive.select(op.event)
                alive.remove(entity)
                if entity in cancelled_arrivals:
                    continue
                slot = compact_slot.get(entity, entity)
                index = compact_pool.rank(slot)
                compact_pool.remove(slot)
                kept.append(replace(op, event=index))
            elif isinstance(op, DriftInterest):
                entity = alive.select(op.event)
                if entity in cancelled_arrivals:
                    continue
                index = compact_pool.rank(compact_slot.get(entity, entity))
                remapped = replace(op, event=index)
                if (
                    kept
                    and isinstance(kept[-1], DriftInterest)
                    and kept[-1].event == index
                ):
                    kept[-1] = remapped  # coalesce: the last column wins
                else:
                    kept.append(remapped)
            elif isinstance(op, RaiseBudget):
                if kept and isinstance(kept[-1], RaiseBudget):
                    kept[-1] = op  # coalesce: the final budget wins
                else:
                    kept.append(op)
            else:
                kept.append(op)
        compacted = replace(self, ops=tuple(kept))
        return compacted

    def append(self, op: ChangeOp) -> "Trace":
        """A copy with ``op`` appended, fully re-validated.

        Raises :class:`ValueError` when ``op.time`` precedes the last op
        and :class:`~repro.core.errors.TraceError` when the op is not
        replayable at its position (see :meth:`_validate_replayability`).

        Construction re-walks the whole trace (O(len)); this is a
        convenience for assembling short traces — bulk generation should
        collect ops in a list and build the :class:`Trace` once.
        """
        return replace(self, ops=(*self.ops, op))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[ChangeOp]:
        return iter(self.ops)

    def op_counts(self) -> dict[str, int]:
        """``{kind: count}`` over the trace, sorted by kind."""
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        mix = ", ".join(f"{kind}={n}" for kind, n in self.op_counts().items())
        tag = f" [{self.label}]" if self.label else ""
        return (
            f"trace{tag}: {len(self.ops)} ops over {self.n_users} users, "
            f"k0={self.initial_k} ({mix or 'empty'})"
        )

    # ------------------------------------------------------------------
    # deterministic JSONL serialization
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The canonical JSONL encoding (header line + one line per op)."""
        header = {
            "format": TRACE_FORMAT,
            "n_users": self.n_users,
            "initial_k": self.initial_k,
            "n_events": self.n_events,
            "n_intervals": self.n_intervals,
            "seed": self.seed,
            "label": self.label,
        }
        lines = [_canonical(header)]
        lines.extend(_canonical(op.to_dict()) for op in self.ops)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty trace document (missing header line)")
        header = json.loads(lines[0])
        if header.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"unsupported trace format {header.get('format')!r}; "
                f"expected {TRACE_FORMAT!r}"
            )
        ops = tuple(ChangeOp.from_dict(json.loads(line)) for line in lines[1:])
        n_events = header.get("n_events")
        n_intervals = header.get("n_intervals")
        return cls(
            ops=ops,
            n_users=int(header["n_users"]),
            initial_k=int(header["initial_k"]),
            n_events=None if n_events is None else int(n_events),
            n_intervals=None if n_intervals is None else int(n_intervals),
            seed=header.get("seed"),
            label=header.get("label", ""),
        )

    def save(self, path: str | Path) -> Path:
        """Write the trace as JSONL; returns the path."""
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))


def _canonical(payload: dict[str, Any]) -> str:
    """One deterministic JSON line: sorted keys, minimal separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
