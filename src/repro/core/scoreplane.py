"""ScorePlane: a shared, warm-startable Eq.-4 marginal-gain matrix.

Every GRD-family consumer in this library revolves around the same
object: the ``(|T|, |E|)`` matrix of Eq. 4 assignment scores.  Batch
solvers materialize it cold (``Scheduler._base_scores``, the
TOP baseline's ranking matrix, beam/GRASP root expansions), and the
incremental scheduler keeps a schedule-relative variant alive across
change ops.  Before this module each consumer owned its own copy and
re-filled it from scratch — a full ``O(|T| * |E|)`` engine sweep per
batch re-solve, ~4.8 s at 20k users — even when only a handful of cells
had actually changed since the last fill.

:class:`ScorePlane` is that matrix as a first-class, reusable object:

* **storage** — one dense ``(n_intervals, n_events)`` float array plus a
  dirty-interval set; scheduled events hold ``-inf`` in their column
  (batch consumers with an empty mirrored schedule simply never see
  ``-inf``);
* **cold start** — :meth:`ensure` fills missing state through the
  engine's *batched* multi-row query
  (:meth:`~repro.core.engine.ScoreEngine.scores_for_rows`): one engine
  call per flush, which the sparse engine evaluates as one gather pass
  per row and a sharded engine as a single parallel fan-out over its
  user blocks — never a per-cell Python loop;
* **invalidation** — change ops dirty exactly the rows/columns whose
  inputs they touched (Eq. 1's denominator couples events only *within*
  an interval): :meth:`apply_delta` ingests the same
  :class:`~repro.core.live.LiveDelta` stream the engines consume, and
  the assignment hooks (:meth:`on_assign` / :meth:`on_unassign`) cover
  schedule-relative use;
* **accounting** — :attr:`cells_filled` / :attr:`cells_refreshed` count
  engine score evaluations, so benchmarks and CI can assert a warm
  re-solve did strictly less work than a cold fill.

Two usage roles share this one mechanism:

**Base plane** (``auto_reset=True``, the default).  The plane owns an
engine whose mirrored schedule is *empty* whenever rows are read or
refreshed; cached rows are then exactly a batch solver's initial-score
matrix.  :class:`repro.api.ScheduleSession` keeps one base plane per
:class:`~repro.core.engine.EngineSpec` so repeated solves skip the
initial sweep entirely, and
:meth:`repro.algorithms.incremental.IncrementalScheduler.base_plane`
maintains one over the live instance so periodic rebuilds and oracle
regret samples re-score only rows dirtied since the previous re-solve.
Solvers run *through* the plane's engine (committing assignments
mutates its mass state); ``auto_reset`` restores the empty baseline on
the next plane access, and the cached rows — which describe the empty
state — remain valid throughout.

**Schedule-relative plane** (``auto_reset=False``).  The incremental
scheduler's live cache: rows are scored against the engine's *current*
scheduled mass, commits blank the event's column and dirty its home
row, withdrawals dirty the row and restore the column.  The plane never
resets the engine here — the maintained schedule is the whole point.

Warm-start contract
-------------------

A cached clean cell must equal what a fresh fill would compute for the
current engine state — that is what makes a plane-fed solve
*bit-identical* to a cold one (property-tested in
``tests/properties/test_scoreplane_differential.py``).  Rows are
refreshed through ``scores_for_interval`` and single columns through
``scores_for_event``; every engine evaluates both queries with
per-column-identical arithmetic, so a cell's value never depends on the
batch it was computed in.  Planes are forked and seeded only between
engines of one :class:`~repro.core.engine.EngineSpec` (the serving
pool keys its primaries and templates by spec), so cached cells always
come from the same kernel that refreshes them.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.engine import ScoreEngine
from repro.core.live import (
    CompetingAdded,
    EventAdded,
    EventInterestReplaced,
    EventRemoved,
    LiveDelta,
)

__all__ = ["ScorePlane"]


class ScorePlane:
    """Persistent Eq.-4 score matrix with dirty-row invalidation.

    Parameters
    ----------
    engine:
        The score engine every cell is evaluated through.  The plane
        reads the engine's mirrored schedule to decide which events are
        scorable, and (in its live-delta role) forwards structural
        deltas to ``engine.apply_delta`` before patching its own cells.
    auto_reset:
        When True (the *base plane* role) the engine is reset back to an
        empty schedule whenever the plane is read or mutated with
        assignments still mirrored — the leftovers of a batch solve run
        through this plane.  Set False for a schedule-relative plane
        whose engine legitimately carries a maintained schedule.
    """

    def __init__(self, engine: ScoreEngine, *, auto_reset: bool = True) -> None:
        self._engine = engine
        self._auto_reset = auto_reset
        self._scores: np.ndarray | None = None
        self._dirty: set[int] = set()
        # engine-evaluation accounting (cells, not rows)
        self._cells_filled = 0
        self._cells_refreshed = 0
        self._fills = 0
        self._warm_reads = 0

    # -- introspection --------------------------------------------------
    @property
    def engine(self) -> ScoreEngine:
        return self._engine

    @property
    def n_intervals(self) -> int:
        return self._engine.instance.n_intervals

    @property
    def n_events(self) -> int:
        return self._engine.instance.n_events

    @property
    def array(self) -> np.ndarray | None:
        """The raw matrix (``None`` before the first :meth:`ensure`).

        May contain stale dirty rows; consumers wanting current values
        call :meth:`ensure`.  Mutating the returned array corrupts the
        cache — copy first (solvers work on copies).
        """
        return self._scores

    @property
    def filled(self) -> bool:
        return self._scores is not None

    @property
    def dirty_intervals(self) -> frozenset[int]:
        return frozenset(self._dirty)

    # -- accounting -----------------------------------------------------
    @property
    def cells_filled(self) -> int:
        """Engine score evaluations spent on cold fills."""
        return self._cells_filled

    @property
    def cells_refreshed(self) -> int:
        """Engine score evaluations spent re-scoring dirty state."""
        return self._cells_refreshed

    @property
    def fills(self) -> int:
        """Cold (whole-matrix) fills performed."""
        return self._fills

    @property
    def warm_reads(self) -> int:
        """:meth:`ensure` calls served from already-filled state."""
        return self._warm_reads

    def stats(self) -> dict[str, int]:
        """JSON-ready accounting snapshot (benchmark artifacts)."""
        return {
            "cells_filled": self._cells_filled,
            "cells_refreshed": self._cells_refreshed,
            "fills": self._fills,
            "warm_reads": self._warm_reads,
        }

    # -- the read path --------------------------------------------------
    def ensure(self) -> np.ndarray:
        """Bring the matrix current and return it (cold fill if needed)."""
        self._maybe_reset()
        if self._scores is None:
            self._scores = np.empty((self.n_intervals, self.n_events))
            self._dirty = set(range(self.n_intervals))
            self._fills += 1
            self.flush(_cold=True)
        else:
            self._warm_reads += 1
            self.flush()
        return self._scores

    def masked_copy(
        self,
        forbids: Iterable[tuple[int, int]] = (),
        consumed_events: Iterable[int] = (),
    ) -> np.ndarray:
        """A private copy of :meth:`ensure` with lock cells masked out.

        ``forbids`` are ``(interval, event)`` cells an organizer lock
        rules out; ``consumed_events`` are whole columns (events already
        committed by pins) no solver may pick again.  Both become
        ``-inf`` in the returned copy, so a flat argmax over the masked
        matrix can never select a locked cell; this is the only lock
        masking :meth:`Scheduler._base_scores` does, warm or cold.  The
        cached matrix itself is untouched; accounting is identical to a
        plain :meth:`ensure` plus copy.
        """
        matrix = np.array(self.ensure(), copy=True)
        consumed = list(consumed_events)
        if consumed:
            matrix[:, consumed] = -np.inf
        for interval, event in forbids:
            matrix[interval, event] = -np.inf
        return matrix

    def flush(self, _cold: bool = False) -> None:
        """Re-score every dirty interval row in one batched engine call.

        All dirty rows go through
        :meth:`~repro.core.engine.ScoreEngine.scores_for_rows` at once
        (in ascending interval order, so values are bit-identical to the
        old per-row loop — the default implementation *is* that loop).
        A sharded engine overrides the batched query to fan the whole
        dirty set out across its worker pool exactly once per flush.
        """
        if not self._dirty:
            return
        assert self._scores is not None
        dirty = sorted(self._dirty)
        schedule = self._engine.schedule
        unscheduled = [
            event
            for event in range(self.n_events)
            if not schedule.contains_event(event)
        ]
        self._scores[dirty] = -np.inf
        if unscheduled:
            self._scores[np.ix_(dirty, unscheduled)] = (
                self._engine.scores_for_rows(dirty, unscheduled)
            )
            cells = len(dirty) * len(unscheduled)
            if _cold:
                self._cells_filled += cells
            else:
                self._cells_refreshed += cells
        self._dirty.clear()

    def invalidate(self) -> None:
        """Drop all cached state; the next :meth:`ensure` refills cold."""
        self._scores = None
        self._dirty.clear()

    def seed_from(self, other: ScorePlane) -> None:
        """Adopt another plane's ensured matrix as this plane's state.

        Used to warm-start a schedule-relative plane right after its
        engine was reset (empty schedule == the base plane's baseline).
        Both planes must be driven by engines over the same live state;
        the copy keeps the two caches independent afterwards.
        """
        self._scores = np.array(other.ensure(), copy=True)
        self._dirty.clear()

    # -- copy-on-write cloning (the serving layer's replica fork) --------
    def fork(self, engine: ScoreEngine | None = None) -> ScorePlane:
        """An independent plane adopting this plane's cells in O(cells).

        ``engine`` defaults to :meth:`ScoreEngine.clone` of this plane's
        engine; the serving pool instead injects a clone of a template
        engine built over a frozen snapshot, isolating the fork from live
        mutations.  Either way the injected engine must mirror the same
        schedule as the parent's (enforced below), since the cached cells
        — including the ``-inf`` columns of scheduled events — describe
        exactly that schedule.

        The fork's accounting starts at zero, so ``fork().cells_filled``
        staying 0 across warm solves is the CI-checkable proof that
        replicas are O(cells) copies, never re-sweeps.  Solves through
        the fork are bit-identical to solves through the parent
        (differential-tested in ``tests/serve/test_fork.py``): the cells
        are the same floats and both engines run the same kernel.
        """
        self._maybe_reset()
        if engine is None:
            engine = self._engine.clone()
        if self._auto_reset and len(engine.schedule):
            engine.reset()
        elif engine.schedule.as_mapping() != self._engine.schedule.as_mapping():
            raise ValueError(
                "fork engine mirrors a different schedule than the plane's "
                "own engine; the cached cells would not describe its state"
            )
        clone = ScorePlane(engine, auto_reset=self._auto_reset)
        if self._scores is not None and self._scores.shape == (
            clone.n_intervals,
            clone.n_events,
        ):
            clone._scores = self._scores.copy()
            clone._dirty = set(self._dirty)
        return clone

    # -- invalidation hooks ---------------------------------------------
    def mark_dirty(self, interval: int) -> None:
        """Declare one interval's scheduled/competing mass changed."""
        self._dirty.add(interval)

    def on_assign(self, event: int, interval: int) -> None:
        """Mirror a committed assignment: consume the event's column."""
        if self._scores is not None:
            self._scores[:, event] = -np.inf
            self._dirty.add(interval)

    def on_unassign(self, event: int, interval: int) -> None:
        """Mirror a withdrawal: the event is scorable again."""
        if self._scores is not None:
            self._dirty.add(interval)
            self.restore_column(event)

    def restore_column(self, event: int) -> None:
        """Recompute an unscheduled event's scores at every clean row."""
        if self._scores is None:
            return
        clean = [
            interval
            for interval in range(self.n_intervals)
            if interval not in self._dirty
        ]
        if clean:
            self._scores[clean, event] = self._engine.scores_for_event(
                event, clean
            )
            self._cells_refreshed += len(clean)

    # -- structural deltas ----------------------------------------------
    def apply_delta(self, delta: LiveDelta) -> None:
        """Ingest one live-instance mutation: engine first, then cells.

        The plane forwards the delta to its engine (so base planes stay
        self-contained observers of a live instance) and then patches
        exactly the cells the mutation semantically touched:

        * event arrival      -> one appended column, restored on clean rows;
        * event removal      -> one deleted column (the engine renumbers
          its schedule mirror; callers dirty the home row themselves when
          the victim was scheduled, since by delta time it is not);
        * interest drift     -> the event's home row when scheduled, else
          its column;
        * rival announcement -> the contested interval's row.
        """
        self._maybe_reset()
        self._engine.apply_delta(delta)
        if self._scores is None:
            return
        if isinstance(delta, EventAdded):
            self._scores = np.column_stack(
                [self._scores, np.full(self.n_intervals, -np.inf)]
            )
            self.restore_column(delta.event)
        elif isinstance(delta, EventRemoved):
            self._scores = np.delete(self._scores, delta.event, axis=1)
        elif isinstance(delta, EventInterestReplaced):
            home = self._engine.schedule.interval_of(delta.event)
            if home is not None:
                self._dirty.add(home)
            else:
                self.restore_column(delta.event)
        elif isinstance(delta, CompetingAdded):
            self._dirty.add(delta.interval)

    # -- internals ------------------------------------------------------
    def _maybe_reset(self) -> None:
        if self._auto_reset and len(self._engine.schedule):
            self._engine.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "empty" if self._scores is None else (
            f"{self._scores.shape[0]}x{self._scores.shape[1]}, "
            f"{len(self._dirty)} dirty"
        )
        return f"ScorePlane({state}, engine={type(self._engine).__name__})"
