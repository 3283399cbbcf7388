"""Incremental SES: maintain a schedule as the candidate landscape changes.

Real organizers do not schedule once: new candidate events surface, acts
cancel, and rival venues announce shows after the program is drafted.
This module (extension scope — the paper's related work discusses
incremental *user-assignment*; we provide the event-centric analogue)
keeps a feasible schedule alive under five change operations:

* :meth:`IncrementalScheduler.add_candidate_event` — a new event becomes
  available; it is scheduled immediately if the budget has headroom,
  otherwise it may *displace* a scheduled event it strictly improves on.
* :meth:`IncrementalScheduler.cancel_event` — a scheduled (or candidate)
  event disappears; freed budget is refilled greedily.
* :meth:`IncrementalScheduler.add_competing_event` — a rival show is
  announced; affected intervals are re-optimized by relocation.
* :meth:`IncrementalScheduler.update_event_interest` — audience taste
  drifts: one event's interest column is replaced, and the event gets a
  relocation (or displacement) chance under its new profile.
* :meth:`IncrementalScheduler.raise_budget` — grow ``k`` and fill
  greedily.

All operations preserve feasibility and never lower utility below what a
fresh greedy refill of the same state would achieve *locally*; global
re-optimization is available via :meth:`rebuild`, and an externally
computed schedule (e.g. a batch re-solve) can be transplanted wholesale
via :meth:`adopt`.  Every change operation accepts ``maintain=False`` to
apply only the *structural* change (repair-only mode: cancelled events
vanish, indices stay consistent, nothing is re-optimized) — the mode the
``periodic-rebuild`` streaming policy runs between its batch re-solves.

Hot-path design (the ``repro.stream`` replay loop)
--------------------------------------------------

Greedy maintenance interrogates Eq. 4 constantly; recomputing every
``(interval, event)`` score per decision — as a naive refill does — costs
``O(|T| * |E|)`` engine queries *per change op*.  Instead the scheduler
keeps the GRD assignment list ``L`` alive **across** operations as a
schedule-relative :class:`~repro.core.scoreplane.ScorePlane` (the
``(|T|, |E|)`` score matrix plus dirty-row set this module originally
owned privately, now a first-class core primitive), exploiting the same
structure GRD does: Eq. 1's denominator couples events only *within* an
interval, so a change op invalidates exactly the rows whose scheduled or
competing mass it touched.

* assignment / withdrawal at ``t``   -> row ``t`` dirty;
* rival announced at ``t``           -> row ``t`` dirty;
* candidate arrival                  -> one appended column (O(|T|) queries);
* cancellation                       -> one deleted column (+ home row if
  the victim was scheduled);
* interest drift on ``e``            -> ``e``'s column (and its home row if
  scheduled).

Dirty rows are rescored lazily before the next greedy decision, so a
typical change op costs a couple of row/column refreshes instead of a
full sweep.  Scheduled events hold ``-inf`` in their column;
feasibility is *not* baked into the cache (unlike batch GRD,
feasibility can be restored by later ops), so greedy
pops validate lazily against the live :class:`FeasibilityChecker` and
evict losers only from the pass-local working copy.

The scheduler holds its state in a
:class:`~repro.core.live.LiveInstance` — the mutable counterpart of the
immutable :class:`~repro.core.instance.SESInstance`.  Every structural op
is applied as an O(delta) mutation (one interest column touched, entity
lists patched in place) whose :class:`~repro.core.live.LiveDelta` the
score engine ingests via
:meth:`~repro.core.engine.ScoreEngine.apply_delta`, updating its cached
mass/score state instead of being rebuilt from a fresh instance.  Interest
storage stays sparse through arrivals, cancellations and drift (one
``(rows, values)`` entry pair per column), and the engine object itself
survives the whole stream, so the configured
:class:`~repro.core.engine.EngineSpec` trivially survives too.  Batch
consumers (``periodic-rebuild`` re-solves, oracle regret queries,
:attr:`instance`) get an equivalent immutable snapshot from
:meth:`LiveInstance.freeze`, cached until the next mutation and counted
(:attr:`LiveInstance.freezes`) so benchmarks can assert the hot path
never silently falls back to O(instance) rebuilds.

Batch consumers get a warm plane of their own: :meth:`base_plane`
maintains a second, *empty-schedule* :class:`ScorePlane` (with its own
engine) over the same live instance, fed by the exact delta stream the
maintained plane sees.  Periodic batch re-solves and the stream driver's
oracle regret samples run through it — re-scoring only rows dirtied
since the previous re-solve instead of paying the full O(|T| * |E|)
cold fill, and solving directly over the live view (no snapshot freeze).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.algorithms.registry import register_solver
from repro.core.engine import EngineSpec
from repro.core.errors import (
    InfeasibleAssignmentError,
    LockError,
    UnknownEntityError,
)
from repro.core.feasibility import FeasibilityChecker
from repro.core.instance import SESInstance
from repro.core.live import LiveDelta, LiveInstance, arrival_event, rival_event
from repro.core.schedule import Assignment, Schedule
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet
from repro.utils.validation import check_budget

__all__ = ["IncrementalScheduler"]

#: Strict-improvement margin for displacement / relocation decisions.
_GAIN_EPS = 1e-12


@register_solver(
    name="incremental",
    summary="online maintenance under arrivals, cancellations and new rivals",
    kind="online",
    strict_capable=False,
)
class IncrementalScheduler:
    """Keeps a feasible, greedily-maintained schedule under change events."""

    name = "INC"

    def __init__(
        self,
        instance: SESInstance,
        k: int,
        engine: EngineSpec | str | None = None,
        *,
        locks: LockSet | None = None,
        schedule: Mapping[int, int] | None = None,
    ):
        k = check_budget(k, "k")
        self._engine_spec = EngineSpec.coerce(engine)
        self._k = k
        self._locks = LockSet.coerce(locks)
        if self._locks is not None:
            self._locks.validate_for(instance)
            if len(self._locks.pins) > k:
                raise LockError(
                    f"{len(self._locks.pins)} events are pinned but the "
                    f"budget allows only k={k} assignments"
                )
        self._live = LiveInstance(instance)
        # engines, schedules and checkers are built over the live view
        # once and observe its mutations for the scheduler's lifetime
        self._engine = self._engine_spec.build(self._live)
        self._checker = FeasibilityChecker(self._live)
        # the persistent GRD assignment list: a schedule-relative
        # ScorePlane (Eq. 4 score per (t, e) cell, -inf for scheduled
        # events, unfilled until the first greedy decision)
        self._plane = ScorePlane(self._engine, auto_reset=False)
        # lazily-created empty-schedule plane for batch consumers
        self._base_plane: ScorePlane | None = None
        if schedule is not None:
            # start from a given {event: interval} mapping (recovery's
            # checkpoint) instead of the initial greedy fill
            self.adopt(schedule)
            return
        if self._locks is not None:
            self._commit_pins()
        self._fill()

    # ------------------------------------------------------------------
    @property
    def live(self) -> LiveInstance:
        """The mutable live state every change op is applied to."""
        return self._live

    @property
    def instance(self) -> SESInstance:
        """An immutable snapshot of the current state (cached freeze).

        Costs O(instance) after a mutation; streaming hot paths should
        read through :attr:`live` instead.
        """
        return self._live.freeze()  # ses-lint: disable=freeze-ban

    @property
    def schedule(self) -> Schedule:
        return self._engine.schedule

    @property
    def k(self) -> int:
        return self._k

    @property
    def engine_spec(self) -> EngineSpec:
        """The spec every (re)built engine is constructed from."""
        return self._engine_spec

    @property
    def plane(self) -> ScorePlane:
        """The schedule-relative score plane maintained across ops."""
        return self._plane

    @property
    def locks(self) -> LockSet | None:
        """The organizer locks currently in force (renumbered on cancels).

        ``None`` when no lock binds anything; pins stay committed across
        every maintenance pass and no repair ever lands on a forbidden
        cell.
        """
        return self._locks

    def base_plane(self) -> ScorePlane:
        """A warm empty-schedule :class:`ScorePlane` over the live state.

        Built (with its own engine) on first request and kept current by
        the same delta stream the maintained plane ingests, so batch
        consumers — the ``periodic-rebuild`` policy's re-solves, the
        stream driver's oracle regret samples — can
        ``solver.solve(scheduler.live, scheduler.k, plane=...)`` and pay
        only for rows dirtied since the previous solve, with no instance
        freeze at all.
        """
        if self._base_plane is None:
            self._base_plane = ScorePlane(
                self._engine_spec.build(self._live)
            )
        return self._base_plane

    @property
    def materialized_base_plane(self) -> ScorePlane | None:
        """The base plane if some batch consumer has requested one.

        Observability accessor (stream results report its stats); unlike
        :meth:`base_plane` it never builds an engine as a side effect.
        """
        return self._base_plane

    def utility(self) -> float:
        return self._engine.total_utility()

    # ------------------------------------------------------------------
    # change operations
    # ------------------------------------------------------------------
    def add_candidate_event(
        self,
        location: int,
        required_resources: float,
        interest_column: np.ndarray,
        name: str = "",
        *,
        maintain: bool = True,
    ) -> int:
        """Register a new candidate event; returns its index.

        If the schedule is below budget the event competes for a free
        slot greedily; at budget, it replaces the weakest scheduled event
        whenever swapping strictly improves total utility.  With
        ``maintain=False`` the event is only registered.
        """
        event = arrival_event(self._live, location, required_resources, name)
        delta = self._live.add_event(event, interest_column)
        self._ingest(delta)
        if maintain:
            if len(self.schedule) < self._k:
                self._fill()
            else:
                self._try_displacement(event.index)
        return event.index

    def cancel_event(self, event: int, *, maintain: bool = True) -> None:
        """Remove a candidate event entirely (scheduled or not)."""
        if not 0 <= event < self._live.n_events:
            raise UnknownEntityError(f"no candidate event {event}")
        home = self.schedule.interval_of(event)
        if home is not None:
            # withdraw while the victim's interest column is still live,
            # so the engine's mass update sees the right values
            self._engine.unassign(event)
            self._checker.unapply(Assignment(event, home))
        delta = self._live.remove_event(event)
        # the planes delete the column and the engines renumber their
        # schedule mirrors, exactly like the deletion
        self._ingest(delta)
        if self._locks is not None:
            # locks follow the renumbering: constraints on the removed
            # event vanish, higher-indexed events shift down by one
            self._locks = LockSet.coerce(
                self._locks.shifted_for_removal(event)
            )
        # the checker tracks events by index: replay the renumbered
        # schedule (O(k), with k the schedule size — not O(instance))
        self._checker = FeasibilityChecker(self._live, self.schedule)
        if home is not None:
            self._plane.mark_dirty(home)
        if maintain:
            self._fill()

    def add_competing_event(
        self,
        interval: int,
        interest_column: np.ndarray,
        name: str = "",
        *,
        maintain: bool = True,
    ) -> int:
        """Announce a new third-party event at ``interval``; re-optimize it.

        Scheduled events at the affected interval are given a relocation
        pass: each is moved to whichever interval now yields the highest
        gain (often away from the newly contested slot).
        """
        rival = rival_event(self._live, interval, name)
        delta = self._live.add_competing(rival, interest_column)
        self._ingest(delta)
        if maintain:
            self._relocate_interval(interval)
        return rival.index

    def update_event_interest(
        self,
        event: int,
        interest_column: np.ndarray,
        *,
        maintain: bool = True,
    ) -> None:
        """Replace ``event``'s interest column (audience taste drift).

        Feasibility is untouched (interest plays no part in it); with
        ``maintain=True`` the drifted event gets a relocation pass if it
        is scheduled, and a chance to enter the schedule (fill or
        displacement) if it is not.
        """
        if not 0 <= event < self._live.n_events:
            raise UnknownEntityError(f"no candidate event {event}")
        home = self.schedule.interval_of(event)
        delta = self._live.replace_event_interest(event, interest_column)
        # the plane dirties the home row when the event is scheduled and
        # restores the event's column when it is not
        self._ingest(delta)
        if not maintain:
            return
        if home is not None:
            self._plane.ensure()
            self._relocate_event(event, home)
            self._plane.flush()
        elif len(self.schedule) < self._k:
            self._fill()
        else:
            self._try_displacement(event)

    def raise_budget(self, new_k: int, *, maintain: bool = True) -> None:
        """Increase the budget and fill the new headroom greedily."""
        new_k = check_budget(new_k, "new_k")
        if new_k < self._k:
            raise ValueError(
                f"budget can only grow (use cancel_event to shrink); "
                f"{new_k} < {self._k}"
            )
        self._k = new_k
        if maintain:
            self._fill()

    def rebuild(self) -> None:
        """Drop the current schedule and re-run greedy from scratch.

        The maintained schedule is greedy *conditioned on history*; after
        many changes a fresh GRD run can find better global structure.
        When a :meth:`base_plane` has been materialized, the refill
        warm-starts from its cached empty-schedule matrix (a reset engine
        *is* at the empty baseline) instead of re-scoring every cell —
        bit-identical to the cold refill, since both planes are kept
        current by the same delta stream.
        """
        self._engine.reset()
        self._checker = FeasibilityChecker(self._live)
        if self._base_plane is not None:
            self._plane.seed_from(self._base_plane)
        else:
            self._plane.invalidate()
        if self._locks is not None:
            self._commit_pins()
        self._fill()

    def adopt(self, schedule: Schedule | Mapping[int, int]) -> None:
        """Replace the maintained schedule with an external one wholesale.

        ``schedule`` is a :class:`Schedule` (built against an instance of
        identical shape) or an ``{event: interval}`` mapping — typically
        the outcome of a batch re-solve on :attr:`instance`.  The schedule
        is validated assignment by assignment; no refill is performed.
        """
        mapping = (
            schedule.as_mapping()
            if isinstance(schedule, Schedule)
            else dict(schedule)
        )
        # validate the whole mapping before touching live state, so a
        # rejected adoption leaves the current schedule intact (atomic)
        if self._locks is not None:
            self._locks.check_schedule(mapping)
        rehearsal = FeasibilityChecker(self._live)
        for event, interval in sorted(mapping.items()):
            rehearsal.apply(Assignment(event, interval))
        self._engine.reset()
        self._checker = FeasibilityChecker(self._live)
        for event, interval in sorted(mapping.items()):
            self._checker.apply(Assignment(event, interval))
            self._engine.assign(event, interval)
        self._plane.invalidate()

    def export_float_state(self) -> dict[str, Any]:
        """Bitwise snapshot of accumulated float state (for checkpoints).

        :meth:`adopt` rebuilds engine mass and capacity sums by replaying
        assignments in sorted order, which lands within an ulp of — but
        not bit-identical to — state accumulated along the live mutation
        history.  Restoring this snapshot on top of an adopted schedule
        makes the scheduler bit-identical to the one it was exported
        from in every semantic observable.  The engine's part is numpy
        arrays (:meth:`~repro.core.engine.ScoreEngine.export_mass_state`),
        the capacity sums' part JSON-ready lists.
        """
        return {
            "engine": self._engine.export_mass_state(),
            "checker": self._checker.export_state(),
        }

    def restore_float_state(self, state: dict[str, Any]) -> None:
        """Adopt a :meth:`export_float_state` snapshot (after :meth:`adopt`)."""
        engine_state = state.get("engine")
        if engine_state is not None:
            self._engine.restore_mass_state(engine_state)
        self._checker.restore_state(state["checker"])
        # score-plane caches are pure functions of engine state; drop
        # them so the next ensure() recomputes from the restored bits
        self._plane.invalidate()

    # ------------------------------------------------------------------
    # score-plane bookkeeping
    # ------------------------------------------------------------------
    def _ingest(self, delta: LiveDelta) -> None:
        """Feed one structural delta to the maintained (and base) planes.

        Each plane forwards to its own engine and patches exactly the
        cells the mutation touched — see :meth:`ScorePlane.apply_delta`.
        """
        self._plane.apply_delta(delta)
        if self._base_plane is not None:
            self._base_plane.apply_delta(delta)

    def _commit(self, event: int, interval: int) -> None:
        self._checker.apply(Assignment(event, interval))
        self._engine.assign(event, interval)
        self._plane.on_assign(event, interval)

    def _uncommit(self, event: int, interval: int) -> None:
        self._engine.unassign(event)
        self._checker.unapply(Assignment(event, interval))
        self._plane.on_unassign(event, interval)

    def _commit_pins(self) -> None:
        """Commit every pinned assignment into the fresh schedule."""
        assert self._locks is not None
        for assignment in self._locks.pinned_assignments():
            try:
                self._commit(assignment.event, assignment.interval)
            except InfeasibleAssignmentError as exc:
                raise LockError(
                    f"pinned assignment {assignment} cannot be honored: {exc}"
                ) from exc

    def _pinned_events(self) -> frozenset[int]:
        return (
            self._locks.pinned_events if self._locks is not None else frozenset()
        )

    # ------------------------------------------------------------------
    # greedy maintenance passes
    # ------------------------------------------------------------------
    def _fill(self) -> None:
        """Greedy refill up to budget (the GRD inner loop on live state).

        Pops the best cell of the persistent score matrix, validating
        lazily: infeasible pops are evicted from a pass-local working
        copy only, because a later change op can make them feasible
        again.  Selection order matches GRD's flat argmax exactly.
        """
        if len(self.schedule) >= self._k or self._live.n_events == 0:
            return
        scores = self._plane.ensure()
        work = scores.copy()
        n_events = self._live.n_events
        # forbidden cells leave the working copy before the first pop;
        # restored rows re-mask below, so a refill can never pick one
        forbid_rows: dict[int, list[int]] = {}
        if self._locks is not None:
            for forbidden_interval, forbidden_event in self._locks.forbids:
                forbid_rows.setdefault(forbidden_interval, []).append(
                    forbidden_event
                )
            for forbidden_interval, events in forbid_rows.items():
                work[forbidden_interval, events] = -np.inf
        while len(self.schedule) < self._k:
            flat = int(np.argmax(work))
            interval, event = divmod(flat, n_events)
            if not np.isfinite(work[interval, event]):
                break  # no assignable cell remains
            assignment = Assignment(event, interval)
            if not self._checker.is_valid(assignment):
                work[interval, event] = -np.inf
                continue
            self._commit(event, interval)
            if len(self.schedule) >= self._k:
                break
            self._plane.flush()
            work[:, event] = -np.inf
            work[interval] = scores[interval]
            if interval in forbid_rows:
                work[interval, forbid_rows[interval]] = -np.inf
        # rows dirtied by the final commit stay dirty: they are rescored
        # lazily by the next plane.ensure() that actually reads them,
        # which merges consecutive refreshes of the same interval across
        # ops (identical values — a refresh is a pure function of the
        # engine state at read time, and any op that perturbs an interval
        # re-dirties it)

    def _try_displacement(self, arrival: int) -> None:
        """Swap the arrival in for a scheduled event if strictly better.

        Removing a victim changes mass and feasibility only at its home
        interval, so the arrival's cached scores and one vector probe of
        its feasibility (:meth:`FeasibilityChecker.valid_intervals`) stay
        exact for every other target; the one contested cell is rescored
        live and re-probed with the victim withdrawn.  The what-if
        evaluation is pure: the feasibility checker briefly rehearses
        the removal (two O(1) toggles per victim), while the engine
        answers :meth:`~repro.core.engine.ScoreEngine.removal_losses` and
        :meth:`~repro.core.engine.ScoreEngine.scores_excluding_each`
        without any mass-state churn.  The moves are then weighed in scan
        order — victims in schedule order, targets ascending — and one
        is taken only when its gain beats the best so far by more than
        ``_GAIN_EPS`` (:func:`_scan_best`).
        """
        arrival_scores = self._plane.ensure()[:, arrival].copy()
        pinned = self._pinned_events()
        victims = [
            (victim, home)
            for victim, home in self.schedule.as_mapping().items()
            if victim not in pinned  # pins are never displacement victims
        ]
        losses = self._engine.removal_losses([victim for victim, _ in victims])
        by_home: dict[int, list[int]] = {}
        for victim, home in victims:
            by_home.setdefault(home, []).append(victim)
        contested = {
            victim: score
            for home, home_victims in by_home.items()
            for victim, score in zip(
                home_victims,
                self._engine.scores_excluding_each(
                    arrival, home, home_victims
                ),
            )
        }
        forbidden = self._forbidden_intervals(arrival)
        feasible = self._checker.valid_intervals(arrival)
        gains = np.empty((len(victims), self._live.n_intervals))
        for (victim, home), loss, row in zip(victims, losses, gains):
            removed = Assignment(victim, home)
            self._checker.unapply(removed)
            allowed = feasible.copy()
            allowed[home] = self._checker.is_valid(Assignment(arrival, home))
            self._checker.apply(removed)
            np.subtract(arrival_scores, loss, out=row)
            row[home] = contested[victim] - loss
            row[~allowed | forbidden] = -np.inf
            # the rehearsal's float round trip can move the home
            # interval's resource total by an ulp: probe it again
            feasible[home] = self._checker.is_valid(Assignment(arrival, home))
        pick = _scan_best(gains.ravel(), 0.0)
        if pick is not None:
            position, target = divmod(pick, self._live.n_intervals)
            victim, home = victims[position]
            self._uncommit(victim, home)
            self._commit(arrival, target)
            self._plane.flush()

    def _relocate_interval(self, interval: int) -> None:
        """Give each event at ``interval`` a chance to flee new competition."""
        occupants = list(self.schedule.events_at(interval))
        if not occupants:
            return
        self._plane.ensure()
        for event in occupants:
            self._relocate_event(event, interval)
        self._plane.flush()

    def _relocate_event(self, event: int, home: int) -> None:
        """Move one scheduled event to its best interval (staying allowed).

        Targets are weighed in ascending order against the home score,
        as in :meth:`_try_displacement`, and feasibility is one vector
        probe taken with the event withdrawn.
        """
        if event in self._pinned_events():
            return  # pinned in place: relocation never touches it
        self._uncommit(event, home)
        self._plane.flush()
        column = self._plane.array[:, event]
        gains = np.where(self._checker.valid_intervals(event), column, -np.inf)
        gains[self._forbidden_intervals(event)] = -np.inf
        gains[home] = -np.inf
        pick = _scan_best(gains, column[home])
        self._commit(event, home if pick is None else pick)

    def _forbidden_intervals(self, event: int) -> np.ndarray:
        """Mask of the intervals the organizer's locks forbid ``event``."""
        forbidden = np.zeros(self._live.n_intervals, dtype=bool)
        if self._locks is not None:
            for interval in range(self._live.n_intervals):
                forbidden[interval] = self._locks.is_forbidden(interval, event)
        return forbidden


def _scan_best(gains: np.ndarray, best: float) -> int | None:
    """Where the scan ``for i: if gains[i] > best + _GAIN_EPS: take i`` ends.

    ``best`` rises with each take, so of near-ties within ``_GAIN_EPS``
    the first wins, which a plain argmax would not keep.  Each step jumps
    to the next entry that beats the running best with one vector
    comparison, so the loop runs once per take, not once per entry.
    Returns ``None`` when no entry beats the starting ``best``.
    """
    pick = None
    start = 0
    while start < gains.size:
        beats = gains[start:] > best + _GAIN_EPS
        step = int(np.argmax(beats))
        if not beats[step]:
            break
        pick = start + step
        best = gains[pick]
        start = pick + 1
    return pick
