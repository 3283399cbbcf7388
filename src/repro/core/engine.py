"""Score engines: interchangeable evaluators of Eq. 1–4 against a live schedule.

Greedy solvers interrogate the objective thousands of times; this module
provides that oracle behind one interface, :class:`ScoreEngine`, with two
implementations:

* :class:`SparseEngine` — the production engine.  It maintains, per
  interval ``t``, the scheduled interest mass
  ``M_t[u] = sum_{e in E_t(S)} mu[u, e]`` and, with the competing mass
  ``K_t``, evaluates Eq. 4 as::

      score(r, t) = sum_u sigma[u, t] * ( (M + m_r) / (K + M + m_r)
                                          -  M      / (K + M) )

  restricted to the nonzero support of ``mu[:, r]`` (design notes below).

* :class:`ReferenceEngine` — delegates to the loop-based reference functions
  in :mod:`repro.core.attendance` / :mod:`~repro.core.objective` /
  :mod:`~repro.core.scoring`, which gather each interest column they need
  once per query and loop over users in Python: O(|U| * |E_t|) per query.
  The semantic oracle: slow, obviously-correct, used to cross-check the
  sparse engine.

Sparse design notes
-------------------

The per-user summand of Eq. 4 above is ``f(M + m_r) - f(M)`` with
``f(M) = M / (K + M)``; wherever ``mu[u, r] = 0`` the two terms coincide
and the user contributes *exactly* zero.  Jaccard-mined Meetup interest is
overwhelmingly sparse (a user shares tags with a tiny fraction of the
event pool), so almost every user drops out of almost every query.  The
sparse engine exploits this:

* a score query gathers only the nonzero ``(rows, values)`` of event
  ``r``'s column — O(nnz(r)) work and memory, independent of ``|U|``.
  The CSC storage of :class:`~repro.core.interest.InterestMatrix` serves
  the gather directly;
* the scheduled mass ``M_t`` and competing mass ``K_t`` are kept as sorted
  sparse vectors, gathered at a column's rows by binary search.  ``M_t``
  additionally counts nonzero-mu contributors per row so that removals
  drop entries whose true mass returned to zero (subtraction residue of
  ~1e-16 would otherwise read as ``M / (K + M) = 1`` wherever ``K = 0``);
* ``K_t`` is accumulated lazily per interval from the competing columns
  (``InterestMatrix.competing_mass_entries``), so the dense
  ``(|T|, |U|)`` ``competing_mass`` table on the instance is never
  touched;
* one batched kernel answers the score queries (``score``,
  ``scores_for_interval``, ``scores_for_event`` and the plane fill's
  ``scores_for_rows``): it gathers and concatenates the queried columns
  once, then evaluates every requested interval against them — ``K_t``,
  ``M_t`` and ``sigma[:, t]`` gathered over the combined rows, the
  Eq. 4 algebra elementwise, one dot per event over its own slice.  A
  cold plane fill thus reads each column once, not once per interval,
  and no dense ``(users, events)`` temporary is ever materialized: the
  footprint is the stored entries of the queried columns;
* on an interval where no event is scheduled — every cell of a cold
  fill, every interval a GRD solve has not touched yet — ``M`` is
  exactly zero and the per-user gain ``(0 + m) / (K + 0 + m) - 0 / K``
  equals ``m / (K + m)`` bit for bit: one add and one unguarded divide.
  That denominator cannot vanish, since ``K >= 0`` (rival columns are
  only ever added) and every stored ``m > 0`` (storage holds no
  explicit zeros);
* where events are scheduled the ``0 / 0 = 0`` rule stays in force:
  removals can leave ``M_t`` with a tiny *negative* subtraction residue
  while a contributor remains (``((0.7 + 0.6) + 1e-17) - 0.7 - 0.6`` is
  ``-1.1e-16``), so ``K + M + m`` can be ``<= 0``; such a query keeps the
  masked divide.  Without a negative residue the same rule costs plain
  divides (see ``_eq4_diff``).  The algebra works in place on the
  query's own temporaries — never on engine-owned buffers, since
  engines are read from several threads.

Per-cell results never depend on how many cells one query batches, so a
cached cell (:class:`~repro.core.scoreplane.ScorePlane`) always equals a
fresh query.  The two engines agree to 1e-9 on every query; the
cross-engine property suite
(``tests/properties/test_engine_equivalence.py``) draws random instances
and assign/unassign sequences to enforce it.

Both engines mirror the schedule they evaluate: call :meth:`assign` /
:meth:`unassign` as the solver commits moves.  0/0 is defined as 0
throughout, matching the reference semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core import attendance, objective, scoring
from repro.core.errors import DuplicateEventError, UnknownEntityError
from repro.core.instance import SESInstance
from repro.core.interest import accumulate_entries, masked_ratio
from repro.core.live import (
    CompetingAdded,
    EventAdded,
    EventInterestReplaced,
    EventRemoved,
    LiveDelta,
)
from repro.core.schedule import Assignment, Schedule

__all__ = [
    "ScoreEngine",
    "ReferenceEngine",
    "SparseEngine",
    "EngineSpec",
    "ENGINE_KINDS",
    "make_engine",
]


class ScoreEngine(ABC):
    """Stateful evaluator of utilities and marginal scores for one instance."""

    def __init__(self, instance: SESInstance) -> None:
        self._instance = instance
        self._schedule = Schedule(instance)

    # ------------------------------------------------------------------
    @property
    def instance(self) -> SESInstance:
        return self._instance

    @property
    def schedule(self) -> Schedule:
        """The schedule currently mirrored by the engine (do not mutate)."""
        return self._schedule

    def reset(self) -> None:
        """Forget all assignments; equivalent to rebuilding the engine."""
        self._schedule = Schedule(self._instance)
        self._reset_state()

    def assign(self, event: int, interval: int) -> None:
        """Commit ``alpha_event^interval``; scores now reflect the new state."""
        self._schedule.add(Assignment(event=event, interval=interval))
        self._apply(event, interval, sign=+1)

    def unassign(self, event: int) -> None:
        """Withdraw a committed assignment (used by local search / undo)."""
        removed = self._schedule.remove(event)
        self._apply(removed.event, removed.interval, sign=-1)

    # ------------------------------------------------------------------
    # cloning (the serving layer's replica fork)
    # ------------------------------------------------------------------
    def clone(self) -> "ScoreEngine":
        """An independent engine over the same instance with equal state.

        The clone answers every query bit-identically to the original at
        the moment of cloning, and the two diverge freely afterwards:
        mutable accumulator state (per-interval mass vectors, contributor
        counts, the schedule mirror) is copied, while immutable inputs —
        the instance, interest storage, activity matrix — are shared by
        reference.  Cost is O(state), never O(instance): no interest
        matrix is re-copied and no mass is re-accumulated.

        Cloning an engine built over a
        :class:`~repro.core.live.LiveInstance` shares the *live* storage;
        that is only safe while structural mutations are excluded for the
        clone's lifetime (the serving pool clones template engines built
        over frozen snapshots instead).
        """
        other = self._clone_shell()
        other._schedule = self._schedule.copy()
        return other

    def _clone_shell(self) -> "ScoreEngine":
        """Engine-specific clone of everything except the schedule mirror.

        The default covers engines whose only state is the schedule
        (reference); stateful engines override to copy accumulators and
        share immutable inputs instead of re-running construction.
        """
        return type(self)(self._instance)

    # ------------------------------------------------------------------
    # accumulated-state snapshots (checkpoint/recovery)
    # ------------------------------------------------------------------
    def export_mass_state(self) -> dict[str, np.ndarray] | None:
        """Snapshot of order-sensitive accumulated float state, as arrays.

        Per-interval scheduled mass is accumulated in assignment order,
        so rebuilding it from the schedule alone (sorted ``assign``
        calls) lands within an ulp of — but not bit-identical to — the
        live values.  Engines that keep such accumulators return them
        here as flat numpy arrays, which checkpoints store in binary
        (insertion order included: ``total_utility`` sums intervals in
        that order); engines that derive every answer fresh from the
        schedule return ``None``.
        """
        return None

    def restore_mass_state(self, state: dict[str, np.ndarray]) -> None:
        """Adopt a snapshot produced by :meth:`export_mass_state`."""
        raise TypeError(
            f"{type(self).__name__} keeps no accumulated mass state"
        )

    # ------------------------------------------------------------------
    # live-instance deltas
    # ------------------------------------------------------------------
    def apply_delta(self, delta: LiveDelta) -> None:
        """Absorb one :class:`~repro.core.live.LiveDelta` in O(delta).

        Only meaningful for an engine built over a
        :class:`~repro.core.live.LiveInstance`: the live instance mutates
        first, then the engine patches whatever state it caches
        (per-interval mass vectors, competing-entry caches) instead of
        being rebuilt.  Queries answered before and after are
        consistent with the live state at all times.
        """
        if isinstance(delta, EventAdded):
            self._on_event_added(delta)
        elif isinstance(delta, EventRemoved):
            if self._schedule.contains_event(delta.event):
                # a caller-ordering bug, not a domain error: removal must
                # be preceded by unassign so the mass update still sees
                # the event's interest column
                raise ValueError(
                    f"cannot remove event {delta.event} while it is "
                    f"scheduled; unassign it first"
                )
            self._renumber_after_removal(delta.event)
            self._on_event_removed(delta)
        elif isinstance(delta, EventInterestReplaced):
            self._on_event_interest_replaced(delta)
        elif isinstance(delta, CompetingAdded):
            self._on_competing_added(delta)
        else:
            raise TypeError(f"unknown live delta {delta!r}")

    def _renumber_after_removal(self, removed: int) -> None:
        """Shift the schedule mirror's event indices past a removal."""
        mapping = self._schedule.as_mapping()
        self._schedule = Schedule(self._instance)
        for event, interval in sorted(mapping.items()):
            self._schedule.add(
                Assignment(
                    event=event if event < removed else event - 1,
                    interval=interval,
                )
            )

    # per-engine cache hooks; the default engine caches nothing
    def _on_event_added(self, delta: EventAdded) -> None:
        pass

    def _on_event_removed(self, delta: EventRemoved) -> None:
        pass

    def _on_event_interest_replaced(self, delta: EventInterestReplaced) -> None:
        pass

    def _on_competing_added(self, delta: CompetingAdded) -> None:
        pass

    # ------------------------------------------------------------------
    # queries every engine must answer
    # ------------------------------------------------------------------
    @abstractmethod
    def score(self, event: int, interval: int) -> float:
        """Eq. 4: utility gain of adding ``event`` at ``interval`` now."""

    @abstractmethod
    def scores_for_interval(
        self, interval: int, events: Sequence[int]
    ) -> np.ndarray:
        """Vector of Eq. 4 scores for many candidate events at one interval."""

    def scores_for_rows(
        self, intervals: Sequence[int], events: Sequence[int]
    ) -> np.ndarray:
        """Matrix of Eq. 4 scores: ``(len(intervals), len(events))``.

        The batched form of :meth:`scores_for_interval` that a
        :class:`~repro.core.scoreplane.ScorePlane` flush asks for: all
        dirty rows in one call, bit-identical to the per-row path.  It
        answers through :meth:`_scores_for_rows`, which engines with a
        batched kernel override (the sparse engine gathers the event
        columns once for all rows); engines with cross-row parallelism
        (the sharded engine) override this method to fan the whole batch
        out once.
        """
        return self._scores_for_rows(intervals, events)

    def _scores_for_rows(
        self, intervals: Sequence[int], events: Sequence[int]
    ) -> np.ndarray:
        """Default :meth:`scores_for_rows`: row by row, in the given order."""
        event_indices = list(events)
        out = np.empty((len(intervals), len(event_indices)))
        for position, interval in enumerate(intervals):
            out[position] = self.scores_for_interval(interval, event_indices)
        return out

    def removal_loss(self, event: int) -> float:
        """The Eq. 4 score ``event`` would get back if it were withdrawn.

        Equals ``unassign(event); score(event, home); assign(event, home)``
        bit for bit, but without mutating any engine state — the query the
        displacement pass asks once per scheduled victim.  This is
        exactly the what-if score of the event with *itself* excluded, so
        every engine answers through its ``_score_excluding``.
        """
        interval = self._schedule.interval_of(event)
        if interval is None:
            raise UnknownEntityError(
                f"event {event} is not scheduled; removal_loss is defined "
                f"only for scheduled events"
            )
        return self._score_excluding(event, interval, event)

    def removal_losses(self, events: Sequence[int]) -> np.ndarray:
        """Vector of :meth:`removal_loss` over many scheduled events.

        The displacement pass asks this once per change op; engines with
        batchable state override it to amortize their gathers.
        """
        return np.array([self.removal_loss(event) for event in events])

    def score_excluding(self, event: int, interval: int, excluding: int) -> float:
        """Eq. 4 score of ``event`` at ``interval`` with one sibling removed.

        ``excluding`` must be scheduled at ``interval``; the result equals
        scoring ``event`` right after withdrawing ``excluding`` (again bit
        for bit, without engine mutation).
        """
        if self._schedule.contains_event(event):
            raise DuplicateEventError(
                f"event {event} is already scheduled; Eq. 4 requires r not in E(S)"
            )
        if self._schedule.interval_of(excluding) != interval:
            raise UnknownEntityError(
                f"event {excluding} is not scheduled at interval {interval}; "
                f"cannot exclude it"
            )
        return self._score_excluding(event, interval, excluding)

    def scores_excluding_each(
        self, event: int, interval: int, excluding: Sequence[int]
    ) -> np.ndarray:
        """Vector of :meth:`score_excluding` over many withdrawn siblings."""
        return np.array(
            [
                self.score_excluding(event, interval, excluded)
                for excluded in excluding
            ]
        )

    def scores_for_event(
        self, event: int, intervals: Sequence[int]
    ) -> np.ndarray:
        """Vector of Eq. 4 scores for one candidate event at many intervals."""
        return np.array(
            [self.score(event, interval) for interval in intervals]
        )

    @abstractmethod
    def _score_excluding(
        self, event: int, interval: int, excluding: int
    ) -> float:
        """Eq. 4 score of ``event`` at ``interval`` without ``excluding``.

        ``excluding`` may equal ``event`` (the :meth:`removal_loss`
        case); implementations must not assume the two differ.
        """

    @abstractmethod
    def omega(self, event: int) -> float:
        """Eq. 2: expected attendance of a *scheduled* event."""

    @abstractmethod
    def interval_utility(self, interval: int) -> float:
        """Summed expected attendance of the events at ``interval``."""

    @abstractmethod
    def total_utility(self) -> float:
        """Eq. 3 for the mirrored schedule."""

    # ------------------------------------------------------------------
    # state hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _reset_state(self) -> None: ...

    @abstractmethod
    def _apply(self, event: int, interval: int, sign: int) -> None: ...


class ReferenceEngine(ScoreEngine):
    """Paper-faithful engine: every query recomputes from the equations."""

    def score(self, event: int, interval: int) -> float:
        return scoring.assignment_score(
            self._instance, self._schedule, Assignment(event=event, interval=interval)
        )

    def scores_for_interval(self, interval: int, events: Sequence[int]) -> np.ndarray:
        return np.array([self.score(event, interval) for event in events])

    def _score_excluding(self, event: int, interval: int, excluding: int) -> float:
        # the reference engine has no mass state: withdrawing from the
        # schedule mirror and scoring IS the definition (this also covers
        # excluding == event, i.e. removal_loss)
        self._schedule.remove(excluding)
        try:
            return self.score(event, interval)
        finally:
            self._schedule.add(
                Assignment(event=excluding, interval=interval)
            )

    def omega(self, event: int) -> float:
        return attendance.expected_attendance(self._instance, self._schedule, event)

    def interval_utility(self, interval: int) -> float:
        denominators = attendance.luce_denominators(
            self._instance, self._schedule, interval
        )
        return sum(
            attendance.interval_attendance(
                self._instance, event, interval, denominators
            )
            for event in self._schedule.events_at(interval)
        )

    def total_utility(self) -> float:
        return objective.total_utility(self._instance, self._schedule)

    def _reset_state(self) -> None:
        pass  # the schedule mirror is the only state

    def _apply(self, event: int, interval: int, sign: int) -> None:
        pass  # queries recompute from the schedule every time


class _SparseMass:
    """A sparse non-negative vector: sorted row indices + parallel values.

    The scheduled interest mass ``M_t`` of one interval.  Alongside each
    value we count how many scheduled columns contribute a nonzero entry
    to that row; when a removal drops a row's count to zero the entry is
    discarded outright, so subtraction residue (~1e-16 where the true
    remaining mass is exactly zero) can never leak phantom utility into
    the ``M / (K + M)`` ratio.
    """

    __slots__ = ("rows", "values", "counts")

    def __init__(self) -> None:
        self.rows = np.zeros(0, dtype=np.intp)
        self.values = np.zeros(0)
        self.counts = np.zeros(0, dtype=np.int64)

    def update(self, rows: np.ndarray, values: np.ndarray, sign: int) -> None:
        """Merge-add (``sign=+1``) or merge-subtract (``-1``) one column.

        Both directions are sort-free merges against the already-sorted
        state: a subtraction only ever touches rows a prior addition
        created (columns are removed at most once per addition), so it is
        a pure in-place update plus a compaction of rows whose
        contributor count returned to zero; an addition updates hit rows
        in place and splices the genuinely new ones in with one
        ``searchsorted``.  O((nnz(state) + nnz(column))) worst case, with
        no O(n log n) re-sort.
        """
        if rows.size == 0:
            return
        if sign < 0:
            positions = np.searchsorted(self.rows, rows)
            self.values[positions] -= values
            self.counts[positions] -= 1
            if (self.counts[positions] == 0).any():
                keep = self.counts > 0
                self.rows = self.rows[keep]
                self.values = self.values[keep]
                self.counts = self.counts[keep]
            return
        positions = np.searchsorted(self.rows, rows)
        clipped = np.minimum(positions, max(0, self.rows.size - 1))
        hits = (
            (positions < self.rows.size) & (self.rows[clipped] == rows)
            if self.rows.size
            else np.zeros(rows.size, dtype=bool)
        )
        self.values[positions[hits]] += values[hits]
        self.counts[positions[hits]] += 1
        if hits.all():
            return
        fresh = ~hits
        insert_at = positions[fresh]
        self.rows = np.insert(self.rows, insert_at, rows[fresh])
        self.values = np.insert(self.values, insert_at, values[fresh])
        self.counts = np.insert(
            self.counts, insert_at, np.ones(int(fresh.sum()), dtype=np.int64)
        )

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Values at ``rows``, zeros where absent."""
        return _gather_sorted(self.rows, self.values, rows)

    def gather_counts(self, rows: np.ndarray) -> np.ndarray:
        """Contributor counts at ``rows``, zeros where absent."""
        out = np.zeros(rows.size, dtype=np.int64)
        hits, positions = _sorted_hits(self.rows, rows)
        out[hits] = self.counts[positions]
        return out

    def copy(self) -> "_SparseMass":
        """Independent mass vector holding the same floats."""
        clone = _SparseMass()
        clone.rows = self.rows.copy()
        clone.values = self.values.copy()
        clone.counts = self.counts.copy()
        return clone


def _sorted_hits(
    vec_rows: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Locate query ``rows`` inside a sorted index vector.

    Returns ``(hits, positions)``: a boolean mask over ``rows`` marking
    which queries are present in ``vec_rows``, and the position of each
    hit inside ``vec_rows`` (aligned with ``rows[hits]``).  The one
    binary-search-with-end-clamp dance every sparse gather in this
    module needs.
    """
    if vec_rows.size == 0 or rows.size == 0:
        return np.zeros(rows.size, dtype=bool), np.zeros(0, dtype=np.intp)
    positions = np.searchsorted(vec_rows, rows)
    positions[positions == vec_rows.size] = vec_rows.size - 1
    hits = vec_rows[positions] == rows
    return hits, positions[hits]


def _gather_sorted(
    vec_rows: np.ndarray, vec_values: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Gather a sorted sparse vector at query rows (missing -> 0)."""
    out = np.zeros(rows.size)
    hits, positions = _sorted_hits(vec_rows, rows)
    out[hits] = vec_values[positions]
    return out


#: The smallest positive double.  ``max(x, _TINY)`` is ``x`` for every
#: positive ``x``; a zero becomes a denominator that divides ``+0.0`` to
#: ``+0.0``, which is the ``0 / 0 = 0`` rule without a masked divide.
_TINY = float(np.nextafter(0.0, 1.0))


def _eq4_diff(
    scheduled: np.ndarray | None, competing: np.ndarray, column: np.ndarray
) -> np.ndarray:
    """Per-user Eq. 4 gain of adding ``column`` on top of the given masses.

    The one what-if algebra every engine query reduces to::

        (M + m_r) / (K + M + m_r)  -  M / (K + M)

    with the ``0 / 0 = 0`` rule.  Kept as the single shared
    implementation so the scalar and batched query paths cannot drift
    apart (their bit-identical agreement is a documented contract).
    The three paths below return the guarded formula's gains bit for
    bit; they differ only in the work they spend:

    * ``scheduled=None`` states that ``M`` is exactly zero: no event sits
      at the interval.  The gain is then ``m_r / (K + m_r)`` bit for bit
      (``0 + m_r`` is ``m_r``, ``0 / K`` is ``+0.0`` or ruled 0, and
      ``x - 0`` is ``x``), and its denominator needs no guard: ``K >= 0``
      and every stored ``m_r > 0``, because interest storage holds no
      explicit zeros.
    * With ``M >= 0`` everywhere, ``K + M + m_r >= m_r > 0`` needs no
      guard either, and ``K + M`` is zero only where ``M`` is, so
      ``M / max(K + M, _TINY)`` applies the rule with plain divides.
    * ``M`` can also hold a tiny negative subtraction residue while a
      contributor remains; then ``K + M + m_r`` may be ``<= 0`` and both
      ratios keep :func:`masked_ratio`'s ``denominator > 0`` guard.

    ``scheduled`` and ``competing`` are the caller's own temporaries and
    are overwritten; the result is written into one of them.
    """
    if scheduled is None:
        np.add(competing, column, out=competing)
        return np.divide(column, competing, out=competing)
    after = scheduled + column
    np.add(competing, scheduled, out=competing)  # K + M
    if scheduled.min(initial=0.0) < 0.0:
        before = masked_ratio(scheduled, competing)
        np.add(competing, column, out=competing)
        after = masked_ratio(after, competing)
    else:
        np.divide(after, competing + column, out=after)
        np.maximum(competing, _TINY, out=competing)
        before = np.divide(scheduled, competing, out=scheduled)
    return np.subtract(after, before, out=after)


def _eq4_gain(
    scheduled: np.ndarray | None,
    competing: np.ndarray,
    column: np.ndarray,
    sigma: np.ndarray,
) -> float:
    """``sigma @ _eq4_diff(...)`` — the scalar Eq. 4 score."""
    return float(sigma @ _eq4_diff(scheduled, competing, column))


class SparseEngine(ScoreEngine):
    """CSC-native engine: every query costs O(nnz of the touched columns).

    It gathers straight from the interest store's column entries and never
    materializes a dense ``(users, events)`` temporary — see the module
    docstring's sparse design notes.
    """

    #: Densify an interval's ``K_t`` gathers once its accumulated rival
    #: mass covers more than this fraction of the user base: fancy
    #: indexing a dense vector is then far cheaper than binary-searching
    #: a near-dense sparse one, and one O(|U|) vector per *rival-heavy*
    #: interval is a bounded trade (never the O(|U| * |E|) table the
    #: sparse engine exists to avoid).  Gathered values are bit-identical
    #: either way.
    DENSIFY_FRACTION = 0.125

    def __init__(self, instance: SESInstance) -> None:
        self._interest = instance.interest
        # Fortran order makes each interval's column contiguous, so a
        # query's sigma gather (_sigma_at) reads one column instead of
        # striding the whole matrix; the gathered values are unchanged.
        self._sigma = np.asfortranarray(instance.activity.matrix)
        self._scheduled_mass: dict[int, _SparseMass] = {}
        # K_t as sparse vectors, accumulated lazily per interval so the
        # dense (|T|, |U|) competing_mass table is never touched
        self._competing_entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # dense K_t expansions for rival-heavy intervals (see above)
        self._competing_dense: dict[int, np.ndarray] = {}
        super().__init__(instance)

    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._scheduled_mass.clear()

    def _clone_shell(self) -> "SparseEngine":
        # bypass __init__: the Fortran-ordered sigma copy is O(|U| * |T|)
        # and immutable, so the clone shares it (and the interest store)
        # while copying the per-interval mass and competing caches
        other = object.__new__(SparseEngine)
        other._interest = self._interest
        other._sigma = self._sigma
        other._scheduled_mass = {
            interval: mass.copy()
            for interval, mass in self._scheduled_mass.items()
        }
        other._competing_entries = {
            interval: (rows.copy(), values.copy())
            for interval, (rows, values) in self._competing_entries.items()
        }
        other._competing_dense = {
            interval: dense.copy()
            for interval, dense in self._competing_dense.items()
        }
        ScoreEngine.__init__(other, self._instance)
        return other

    def _apply(self, event: int, interval: int, sign: int) -> None:
        if sign < 0 and not self._schedule.events_at(interval):
            del self._scheduled_mass[interval]
            return
        mass = self._scheduled_mass.get(interval)
        if mass is None:
            mass = _SparseMass()
            self._scheduled_mass[interval] = mass
        rows, values = self._interest.event_column_entries(event)
        mass.update(rows, values, sign)

    def _competing_at(self, interval: int, rows: np.ndarray) -> np.ndarray:
        dense = self._competing_dense.get(interval)
        if dense is not None:
            return np.take(dense, rows)
        cached = self._competing_entries.get(interval)
        if cached is None:
            cached = self._interest.competing_mass_entries(
                self._instance.competing_by_interval[interval]
            )
            self._competing_entries[interval] = cached
        if cached[0].size > self.DENSIFY_FRACTION * self._instance.n_users:
            dense = np.zeros(self._instance.n_users)
            dense[cached[0]] = cached[1]
            self._competing_dense[interval] = dense
            # the sparse entries are dead from here on: reads short-circuit
            # on the dense expansion and rival deltas update it in place
            del self._competing_entries[interval]
            return np.take(dense, rows)
        return self._gather(cached[0], cached[1], rows)

    #: Route a sparse ``M_t`` or ``K_t`` gather through a dense scratch
    #: vector once the query batch is this fraction of the user base: one
    #: O(|U|) scatter plus a direct take beats binary-searching the
    #: vector's support per query row.  Gathered values are
    #: bit-identical either way (same floats, different lookup), so this
    #: is purely a constant-factor lever for plane fills and the batched
    #: row refreshes GRD-family solvers hammer during a re-solve.
    GATHER_DENSE_FRACTION = 0.125

    def _gather(
        self, vec_rows: np.ndarray, vec_values: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        if not vec_rows.size:
            return np.zeros(rows.size)
        if rows.size > self.GATHER_DENSE_FRACTION * self._instance.n_users:
            dense = np.zeros(self._instance.n_users)
            dense[vec_rows] = vec_values
            return np.take(dense, rows)
        return _gather_sorted(vec_rows, vec_values, rows)

    def _scheduled_at(self, interval: int, rows: np.ndarray) -> np.ndarray:
        mass = self._scheduled_mass.get(interval)
        if mass is None:
            return np.zeros(rows.size)
        return self._gather(mass.rows, mass.values, rows)

    def _sigma_at(self, interval: int, rows: np.ndarray) -> np.ndarray:
        # a 1-D take from the contiguous column reads the same floats as
        # sigma[rows, t] in about half the time
        return np.take(self._sigma[:, interval], rows)

    def _diff_at(
        self, interval: int, rows: np.ndarray, column: np.ndarray
    ) -> np.ndarray:
        """Per-entry Eq. 4 gain of the gathered ``column`` at ``interval``."""
        competing = self._competing_at(interval, rows)
        mass = self._scheduled_mass.get(interval)
        if mass is None or not mass.rows.size:
            # M is exactly zero: the unguarded path of _eq4_diff
            return _eq4_diff(None, competing, column)
        return _eq4_diff(self._scheduled_at(interval, rows), competing, column)

    # -- live-instance deltas -------------------------------------------
    # column gathers go through the (live) interest store at query time,
    # so arrivals and removals need no cache surgery at all
    def _on_event_interest_replaced(self, delta: EventInterestReplaced) -> None:
        interval = self._schedule.interval_of(delta.event)
        if interval is None:
            return
        mass = self._scheduled_mass[interval]
        mass.update(delta.old_rows, delta.old_values, sign=-1)
        mass.update(delta.rows, delta.values, sign=+1)

    def _on_competing_added(self, delta: CompetingAdded) -> None:
        dense = self._competing_dense.get(delta.interval)
        if dense is not None:
            # densified intervals keep only the dense expansion current
            dense[delta.rows] += delta.values
            return
        cached = self._competing_entries.get(delta.interval)
        if cached is not None:
            # add the new rival's column on top: the same per-user
            # accumulation order as a fresh competing_mass_entries() call
            self._competing_entries[delta.interval] = accumulate_entries(
                [cached, (delta.rows, delta.values)], self._instance.n_users
            )

    # ------------------------------------------------------------------
    def _score_unchecked(self, event: int, interval: int) -> float:
        rows, column = self._interest.event_column_entries(event)
        if rows.size == 0:
            # a zero-interest event changes no denominator: score is 0
            return 0.0
        return float(
            self._sigma_at(interval, rows) @ self._diff_at(interval, rows, column)
        )

    def score(self, event: int, interval: int) -> float:
        if self._schedule.contains_event(event):
            raise DuplicateEventError(
                f"event {event} is already scheduled; Eq. 4 requires r not in E(S)"
            )
        return self._score_unchecked(event, interval)

    def _scores_for_rows(
        self, intervals: Sequence[int], events: Sequence[int]
    ) -> np.ndarray:
        """The ``(len(intervals), len(events))`` Eq. 4 kernel.

        Every multi-cell score query lands here, a plane fill through
        :meth:`ScoreEngine.scores_for_rows`.  The queried columns are
        gathered and concatenated once, then every interval is evaluated
        against them: ``K_t``, ``M_t`` and ``sigma[:, t]`` are gathered
        once over the combined rows, the Eq. 4 algebra runs elementwise,
        and each event's score is the dot over its own slice.  A cell
        therefore gets the same gathers, elementwise operations and dot
        whatever else the request holds, so its bits never depend on the
        batch.
        """
        event_indices = [int(event) for event in events]
        for event in event_indices:
            if self._schedule.contains_event(event):
                raise DuplicateEventError(
                    f"event {event} is already scheduled; "
                    f"Eq. 4 requires r not in E(S)"
                )
        interval_indices = [int(interval) for interval in intervals]
        scores = np.zeros((len(interval_indices), len(event_indices)))
        parts = [self._interest.event_column_entries(e) for e in event_indices]
        slices = []
        offset = 0
        for position, (rows, _) in enumerate(parts):
            if rows.size:
                slices.append((position, offset, offset + rows.size))
            offset += rows.size
        if not slices:
            return scores
        if len(parts) == 1:
            rows, column = parts[0]
        else:
            rows = np.concatenate([rows for rows, _ in parts])
            column = np.concatenate([values for _, values in parts])
        for out, interval in zip(scores, interval_indices):
            diff = self._diff_at(interval, rows, column)
            sigma = self._sigma_at(interval, rows)
            for position, start, stop in slices:
                out[position] = sigma[start:stop] @ diff[start:stop]
        return scores

    def scores_for_interval(self, interval: int, events: Sequence[int]) -> np.ndarray:
        return self._scores_for_rows([interval], events)[0]

    def _mass_without_at(
        self, interval: int, excluding: int, rows: np.ndarray
    ) -> np.ndarray:
        """``M_t`` gathered at ``rows`` with one scheduled column withdrawn.

        Pure function mirroring :class:`_SparseMass.update`'s subtraction:
        the excluded column's values are removed where they overlap
        ``rows``, and rows whose contributor count would return to zero
        are hard-zeroed exactly.
        """
        mass = self._scheduled_mass[interval]
        gathered = mass.gather(rows)
        excluded_rows, excluded_values = self._interest.event_column_entries(
            excluding
        )
        if excluded_rows.size == 0:
            return gathered
        hits, positions = _sorted_hits(excluded_rows, rows)
        gathered[hits] -= excluded_values[positions]
        dead = hits & (mass.gather_counts(rows) == 1)
        gathered[dead] = 0.0
        return gathered

    def removal_losses(self, events: Sequence[int]) -> np.ndarray:
        """Batched removal losses: one gather pass per home interval.

        Groups the victims by their home interval, concatenates their
        column entries, gathers ``M_t`` (values + contributor counts) and
        ``K_t`` once over the combined rows and reduces per victim over
        its slice — the same elementwise operations as the scalar
        :meth:`removal_loss`, so the results are bit-identical, but the
        searchsorted/gather overhead is paid once per interval instead of
        once per victim.
        """
        event_indices = [int(event) for event in events]
        losses = np.zeros(len(event_indices))
        groups: dict[int, list[int]] = {}
        for position, event in enumerate(event_indices):
            interval = self._schedule.interval_of(event)
            if interval is None:
                raise UnknownEntityError(
                    f"event {event} is not scheduled; removal_loss is "
                    f"defined only for scheduled events"
                )
            groups.setdefault(interval, []).append(position)
        for interval, positions in groups.items():
            parts = [
                self._interest.event_column_entries(event_indices[p])
                for p in positions
            ]
            sizes = [rows.size for rows, _ in parts]
            if not sum(sizes):
                continue
            rows = np.concatenate([rows for rows, _ in parts])
            column = np.concatenate([values for _, values in parts])
            mass = self._scheduled_mass[interval]
            gathered = mass.gather(rows)
            counts = mass.gather_counts(rows)
            # each victim's own rows are necessarily present in M_t, so
            # the exclusion is a pure subtraction plus the count==1
            # hard-zero rule (exactly _mass_without_at, batched)
            scheduled = gathered - column
            scheduled[counts == 1] = 0.0
            diff = _eq4_diff(
                scheduled, self._competing_at(interval, rows), column
            )
            sigma = self._sigma_at(interval, rows)
            offset = 0
            for position, size in zip(positions, sizes):
                if size:
                    losses[position] = float(
                        sigma[offset : offset + size]
                        @ diff[offset : offset + size]
                    )
                offset += size
        return losses

    def _score_excluding(self, event: int, interval: int, excluding: int) -> float:
        rows, column = self._interest.event_column_entries(event)
        if rows.size == 0:
            return 0.0
        return _eq4_gain(
            self._mass_without_at(interval, excluding, rows),
            self._competing_at(interval, rows),
            column,
            self._sigma_at(interval, rows),
        )

    def scores_excluding_each(
        self, event: int, interval: int, excluding: Sequence[int]
    ) -> np.ndarray:
        """Batched what-if scores: the base gathers are shared.

        ``event``'s column, ``K_t``, ``M_t`` and the contributor counts
        are gathered once; each excluded sibling then only pays for its
        own overlap adjustment.  Elementwise operations match the scalar
        :meth:`score_excluding` exactly (bit-identical results).
        """
        excluded_events = [int(excluded) for excluded in excluding]
        if self._schedule.contains_event(event):
            raise DuplicateEventError(
                f"event {event} is already scheduled; Eq. 4 requires r not in E(S)"
            )
        for excluded in excluded_events:
            if self._schedule.interval_of(excluded) != interval:
                raise UnknownEntityError(
                    f"event {excluded} is not scheduled at interval "
                    f"{interval}; cannot exclude it"
                )
        scores = np.zeros(len(excluded_events))
        rows, column = self._interest.event_column_entries(event)
        if rows.size == 0 or not excluded_events:
            return scores
        mass = self._scheduled_mass[interval]
        base = mass.gather(rows)
        counts = mass.gather_counts(rows)
        competing = self._competing_at(interval, rows)
        sigma = self._sigma_at(interval, rows)
        for position, excluded in enumerate(excluded_events):
            excluded_rows, excluded_values = (
                self._interest.event_column_entries(excluded)
            )
            scheduled = base.copy()
            if excluded_rows.size:
                hits, positions = _sorted_hits(excluded_rows, rows)
                scheduled[hits] -= excluded_values[positions]
                dead = hits & (counts == 1)
                scheduled[dead] = 0.0
            scores[position] = _eq4_gain(
                scheduled, competing.copy(), column, sigma
            )
        return scores

    def scores_for_event(
        self, event: int, intervals: Sequence[int]
    ) -> np.ndarray:
        """Batched one-column scoring: the column gather is shared."""
        return self._scores_for_rows(intervals, [event])[:, 0]

    def omega(self, event: int) -> float:
        interval = self._schedule.interval_of(event)
        if interval is None:
            raise UnknownEntityError(
                f"event {event} is not scheduled; omega is defined only for "
                f"scheduled events"
            )
        rows, column = self._interest.event_column_entries(event)
        if rows.size == 0:
            return 0.0
        denominator = self._competing_at(interval, rows) + self._scheduled_at(
            interval, rows
        )
        ratio = masked_ratio(column, denominator)
        return float(self._sigma_at(interval, rows) @ ratio)

    def interval_utility(self, interval: int) -> float:
        mass = self._scheduled_mass.get(interval)
        if mass is None or mass.rows.size == 0:
            return 0.0
        competing = self._competing_at(interval, mass.rows)
        ratio = masked_ratio(mass.values, competing + mass.values)
        return float(self._sigma_at(interval, mass.rows) @ ratio)

    def total_utility(self) -> float:
        return sum(
            self.interval_utility(interval) for interval in self._scheduled_mass
        )

    def export_mass_state(self) -> dict[str, np.ndarray]:
        """Every interval's ``M_t`` as flat arrays.

        ``intervals`` lists the intervals in insertion order (the order
        :meth:`total_utility` sums in) and ``lengths`` their entry
        counts; ``rows``, ``values`` and ``counts`` concatenate the
        intervals' entries in that order.  Rows and counts are 32-bit:
        a user index outgrows int32 only long past the populations whose
        activity matrix fits in memory.
        """
        masses = list(self._scheduled_mass.values())

        def flat(field: str, dtype: type) -> np.ndarray:
            parts = [getattr(mass, field) for mass in masses]
            return np.concatenate([np.zeros(0, dtype), *parts], dtype=dtype)

        return {
            "intervals": np.array(list(self._scheduled_mass), dtype=np.int32),
            "lengths": np.array([m.rows.size for m in masses], dtype=np.int32),
            "rows": flat("rows", np.int32),
            "values": flat("values", np.float64),
            "counts": flat("counts", np.int32),
        }

    def restore_mass_state(self, state: dict[str, np.ndarray]) -> None:
        """Rebuild ``M_t`` from :meth:`export_mass_state`'s arrays, in
        their order, as writeable copies of the engine's own dtypes."""
        stops = np.cumsum(state["lengths"]).tolist()
        starts = [0, *stops[:-1]]
        self._scheduled_mass = {}
        for interval, start, stop in zip(
            state["intervals"].tolist(), starts, stops
        ):
            mass = _SparseMass()
            mass.rows = state["rows"][start:stop].astype(np.intp)
            mass.values = state["values"][start:stop].astype(np.float64)
            mass.counts = state["counts"][start:stop].astype(np.int64)
            self._scheduled_mass[interval] = mass


_ENGINES = {
    "sparse": SparseEngine,
    "reference": ReferenceEngine,
}

#: The one source of truth for valid engine kinds: the CLI's ``--engine``
#: choices, :class:`EngineSpec` validation and :func:`make_engine` dispatch
#: all derive from this tuple (ordered: default first).
ENGINE_KINDS: tuple[str, ...] = tuple(_ENGINES)


@dataclass(frozen=True, slots=True)
class EngineSpec:
    """Typed description of a score-engine configuration.

    Being a frozen (hashable) value object, it doubles as the cache key
    under which :class:`repro.api.ScheduleSession` memoizes engine
    construction.

    Parameters
    ----------
    kind:
        One of :data:`ENGINE_KINDS` — ``"sparse"`` (default) or
        ``"reference"``.  Both read the same CSC interest storage.
    shards:
        ``None`` (default) builds the flat engine.  An integer ``P >= 1``
        builds a :class:`repro.shard.engine.ShardedEngine` that partitions
        the user axis into P dispatch shards of fixed-size accumulation
        blocks, running a sparse sub-engine per block.  Not valid with
        ``kind="reference"`` (the oracle stays whole-instance).
    workers:
        Parallelism for sharded plane fills (defaults to ``shards``);
        only valid together with ``shards``.
    block_users:
        Accumulation-block row count override (defaults to
        :data:`repro.shard.plan.DEFAULT_BLOCK_USERS`); only valid
        together with ``shards``.  Merged results depend on this value
        but never on ``shards``/``workers``.
    """

    kind: str = "sparse"
    shards: int | None = None
    workers: int | None = None
    block_users: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ENGINES:
            raise ValueError(
                f"unknown engine kind {self.kind!r}; choose from {sorted(_ENGINES)}"
            )
        if self.shards is None:
            if self.workers is not None or self.block_users is not None:
                raise ValueError(
                    "workers/block_users are sharding parameters; "
                    "set shards as well"
                )
            return
        if self.kind == "reference":
            raise ValueError(
                "the reference engine is the whole-instance oracle; "
                "it does not shard"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.block_users is not None and self.block_users < 1:
            raise ValueError(
                f"block_users must be positive, got {self.block_users}"
            )

    @classmethod
    def coerce(cls, value: EngineSpec | str | None) -> EngineSpec:
        """Normalize ``None`` (default), a kind string, or a spec to a spec."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        raise TypeError(
            f"expected EngineSpec, engine-kind string or None, got {value!r}"
        )

    def build(self, instance: SESInstance) -> ScoreEngine:
        """Construct the described engine for ``instance``."""
        if self.shards is not None:
            # deferred import: repro.shard layers on top of repro.core
            from repro.shard.engine import ShardedEngine

            return ShardedEngine(
                instance,
                shards=self.shards,
                workers=self.workers,
                block_users=self.block_users,
            )
        return _ENGINES[self.kind](instance)


def make_engine(
    instance: SESInstance, spec: EngineSpec | str | None = None
) -> ScoreEngine:
    """Factory: build a score engine from an :class:`EngineSpec`.

    ``EngineSpec(kind="sparse")`` (the default) touches only nonzero
    interest entries; ``"reference"`` is the loop-based semantic oracle.
    """
    return EngineSpec.coerce(spec).build(instance)
