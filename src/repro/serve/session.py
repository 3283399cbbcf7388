"""ServingSession: thread-safe, multi-client front-end over one instance.

:class:`ServingSession` inherits every organizer and analysis method
(gap reports, named versions, what-ifs, reports, stream replays,
``solve_many``) from :class:`~repro.api.session.BaseSession`, under the
names :class:`~repro.api.session.ScheduleSession` uses, and adds only
what concurrent serving over an evolving instance needs:

* **its read hook** — every solve and gap report leases a
  :class:`~repro.serve.pool.Replica` from the shared
  :class:`~repro.serve.pool.PlanePool` and runs against the replica's
  private plane/engine over the immutable snapshot of the version it
  leased; what-ifs, reports and stream replays read the current
  version's frozen snapshot (:meth:`PlanePool.version_instance`).  No
  read ever touches shared mutable state, so K threads produce
  responses bit-identical to the same requests replayed serially
  (differential-tested in ``tests/serve/test_serving_session.py``);
* **lease bounds and the deadline floor** of :meth:`ServingSession.solve`;
* **single-writer mutations** — :meth:`add_event`,
  :meth:`cancel_event`, :meth:`update_event_interest` and
  :meth:`add_competing` each check their input and build the stream's
  change op for it (:mod:`repro.stream.trace`), then commit the op's
  structural step through :meth:`PlanePool.write`, which applies it
  under the pool's writer lock, patches every warm primary in O(delta),
  and bumps the generation so outstanding replicas are invalidated on
  return — never silently reused;
* **durability** — journaled commits (the op's own record, as a stream
  journals it) and :meth:`ServingSession.recover`.

Every response is stamped with the generation it was computed at
(:attr:`ServedResponse.version`), mirroring pretalx's versioned-schedule
reads: a client can tell exactly which version of the instance answered.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.algorithms.base import Deadline, ScheduleResult, Scheduler
from repro.algorithms.registry import SolverRegistry
from repro.api.requests import SolveRequest, SolveResponse
from repro.api.session import BaseSession
from repro.core.engine import EngineSpec
from repro.core.errors import DeadlineExceeded, UnknownEntityError
from repro.core.instance import SESInstance
from repro.core.live import LiveInstance
from repro.core.schedule import Schedule
from repro.serve.pool import PlanePool, PoolStats, check_bound
from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    ChangeOp,
    DriftInterest,
    Entries,
    entries_from_column,
)

if TYPE_CHECKING:
    from repro.resilience.base import Restore, Snapshot
    from repro.resilience.journal import DurableWriter, JournalScan

__all__ = ["ServedResponse", "ServingSession"]


def _checkpoint_body(pool: PlanePool, offset: int) -> dict[str, Any]:
    """A durable session's checkpoint: the pool generation.  The instance
    is not in it — recovery derives it from the base and the journal."""
    return {"kind": "serve", "offset": offset, "generation": pool.generation}


@dataclass(frozen=True)
class ServedResponse:
    """A :class:`SolveResponse` plus its serving provenance.

    ``version`` is the pool generation the solve ran at; ``pool_hit``
    (the wrapped ``reused_engine``) whether the lease was served from a
    parked replica (True) or a fresh fork (False).  The wrapped
    response's fields are re-exposed, so callers and session methods
    stay agnostic of which session type served them.

    ``degraded`` marks a best-effort answer: either a ``deadline_ms``
    budget passed before the requested solver finished (the response
    carries the warm GRD floor instead; for a ``grd`` request, the floor
    it is answered with finished after the deadline), or the pool
    writer was stalled and the solve ran on the last good generation —
    ``staleness`` then counts the writes begun since that generation.
    """

    response: SolveResponse
    version: int
    degraded: bool = False
    staleness: int = 0

    @property
    def pool_hit(self) -> bool:
        return self.response.reused_engine

    @property
    def result(self) -> Any:
        return self.response.result

    @property
    def request(self) -> SolveRequest:
        return self.response.request

    @property
    def engine(self) -> EngineSpec:
        return self.response.engine

    @property
    def solver(self) -> str:
        return self.response.solver

    @property
    def schedule(self) -> Schedule:
        return self.response.result.schedule

    @property
    def utility(self) -> float:
        return self.response.result.utility

    def summary(self) -> str:
        tag = ""
        if self.degraded:
            tag = " [degraded]" if not self.staleness else (
                f" [degraded, staleness={self.staleness}]"
            )
        return f"{self.response.summary()} @v{self.version}{tag}"


class ServingSession(BaseSession):
    """Serve concurrent solve / what-if / stream queries over one instance.

    Parameters
    ----------
    instance:
        The initial problem instance (generation 0).
    default_engine:
        :class:`EngineSpec` (or kind string) used when a request names
        none; defaults to the sparse engine.
    registry:
        Solver catalog; the process-wide registry unless a test injects
        its own.
    max_replicas:
        Per-spec cap on parked read replicas (see :class:`PlanePool`).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` armed on the pool
        (writer-stall injection; see :meth:`PlanePool.write`).
    keep_stale_replica:
        Keep a last-good replica per spec for staleness-stamped degraded
        reads when the writer stalls (see :class:`PlanePool`).
    durability:
        A :class:`~repro.resilience.Durability` config makes the session
        crash-safe: every committed mutation is journaled (apply ->
        journal -> ack) and the live state checkpointed on the
        configured cadence; :meth:`recover` rebuilds the session from
        the directory.
    generation:
        Starting pool generation; nonzero only inside :meth:`recover`.
    """

    def __init__(
        self,
        instance: SESInstance,
        default_engine: EngineSpec | str | None = None,
        registry: SolverRegistry | None = None,
        *,
        max_replicas: int = 8,
        fault_plan: Any = None,
        keep_stale_replica: bool = False,
        durability: Any = None,
        generation: int = 0,
    ) -> None:
        # request validation, solver construction and the organizer and
        # analysis methods come from BaseSession; reads go through the
        # pool (the read hook below), never through a plain session
        super().__init__(default_engine, registry)
        self._live = LiveInstance(instance)
        self._pool = PlanePool(
            self._live,
            max_replicas=max_replicas,
            generation=generation,
            fault_plan=fault_plan,
            keep_stale_replica=keep_stale_replica,
        )
        # durable sessions serialize [pool write -> journal append] under
        # one lock so the journal order always equals the apply order
        self._write_lock = threading.Lock()
        self._writer: DurableWriter | None = None
        if durability is not None:
            from repro.resilience.base import begin_session
            from repro.resilience.stream import engine_spec_to_dict

            self._writer = begin_session(
                durability,
                instance,
                {
                    "kind": "serve",
                    "n_users": instance.n_users,
                    "engine": engine_spec_to_dict(self.default_engine),
                },
                functools.partial(_checkpoint_body, self._pool),
            )

    # -- the read hook ---------------------------------------------------
    def _lease(
        self, spec: EngineSpec, max_wait_s: float | None = None
    ) -> PlanePool._Lease:
        """A replica pinned to the generation it was forked at."""
        return self._pool.lease(spec, max_wait_s=max_wait_s)

    # -- introspection ---------------------------------------------------
    @property
    def version(self) -> int:
        """Current generation (0 until the first mutation commits)."""
        return self._pool.generation

    @property
    def pool(self) -> PlanePool:
        return self._pool

    def pool_stats(self) -> PoolStats:
        """Fork/hit/invalidation/rebuild counters (see :class:`PoolStats`)."""
        return self._pool.stats()

    def version_instance(self) -> SESInstance:
        """The immutable snapshot of the current version."""
        return self._pool.version_instance()

    _snapshot = version_instance

    def describe(self) -> str:
        stats = self._pool.stats()
        return (
            f"{self._live.describe()} | v{stats.generation} | "
            f"{self.requests_served} request(s) served | "
            f"{stats.forks} fork(s), {stats.hits} hit(s), "
            f"{stats.invalidations} invalidation(s)"
        )

    # -- the concurrent read path ----------------------------------------
    def solve(
        self,
        request: SolveRequest | None = None,
        /,
        *,
        deadline_ms: float | None = None,
        max_wait_s: float | None = None,
        **query: Any,
    ) -> ServedResponse:
        """Serve one solve on a leased replica (runs in parallel).

        Accepts a :class:`SolveRequest` or its keyword fields, exactly
        like :meth:`ScheduleSession.solve`.  The solver is constructed
        fresh per request (stochastic state never leaks between
        clients); the initial score sweep is read warm from the forked
        replica plane.  The solve runs in the caller's thread.

        ``deadline_ms`` makes the response *deadline-aware*.  The
        replica first computes the warm GRD floor, with no deadline: it
        is the answer to a ``grd`` request, stamped ``degraded=True``
        only if the deadline passed meanwhile.  Any other solver then
        runs on the same replica under a :class:`Deadline` that it
        checks once per main-loop step; if it returns in time, its
        result is returned, and otherwise the floor comes back stamped
        ``degraded=True``.  ``deadline_ms=0`` deterministically
        degrades, and ``inf`` never does.  Errors other than
        :class:`DeadlineExceeded` reach the caller.

        ``max_wait_s`` bounds how long the lease may wait on a stalled
        writer; on timeout the solve runs against the last good
        generation and the response carries ``staleness``
        (see :meth:`PlanePool.acquire`).  A deadline implies a lease
        bound of the remaining budget.  Both reject NaN and negative
        values, and take ``inf`` as no bound.  The request is validated
        before any lease is taken.
        """
        request = self._request(request, query)
        check_bound("deadline_ms", deadline_ms)
        check_bound("max_wait_s", max_wait_s)
        deadline = (
            None if deadline_ms is None else Deadline.after(deadline_ms / 1e3)
        )
        return self._serve(request, max_wait_s=max_wait_s, deadline=deadline)

    def _solve_leased(
        self,
        request: SolveRequest,
        solver: Scheduler,
        max_wait_s: float | None = None,
        deadline: Deadline | None = None,
    ) -> ServedResponse:
        """Run ``request`` on one lease; with ``deadline``, floor first."""
        spec = self._spec(request.engine)
        floor_solver = solver
        if deadline is not None:
            bound = max(0.001, deadline.remaining())
            max_wait_s = bound if max_wait_s is None else min(bound, max_wait_s)
            if request.solver != "grd":
                floor_solver = self._registry.create("grd", engine=spec)
        with self._lease(spec, max_wait_s) as replica:

            def run(
                scheduler: Scheduler, until: Deadline | None = None
            ) -> ScheduleResult:
                return scheduler.solve(
                    replica.frozen, request.k, plane=replica.plane,
                    locks=request.locks, deadline=until,
                )

            # without a deadline this is the requested solve itself
            result = run(floor_solver)
            degraded = False
            if deadline is not None:
                answer = result if floor_solver is solver else None
                if answer is None and not deadline.expired():
                    with contextlib.suppress(DeadlineExceeded):
                        answer = run(solver, deadline)
                # a result that arrives late never replaces the floor
                degraded = answer is None or deadline.expired()
                if not degraded:
                    result = answer
            return ServedResponse(
                response=SolveResponse(
                    request=request,
                    result=result,
                    engine=spec,
                    reused_engine=replica.pool_hit,
                ),
                version=replica.generation,
                degraded=degraded or replica.staleness > 0,
                staleness=replica.staleness,
            )

    # -- the single-writer mutation path ---------------------------------
    def _commit(self, op: ChangeOp) -> Any:
        """Apply one change op; journal it before acknowledging.

        The pool writer makes the op's structural change
        (:meth:`ChangeOp.apply_structure`).  Non-durable sessions go
        straight to the pool.  Durable sessions build the journal record
        (the op's own payload, as a stream journals it) before anything
        is applied, hold the session write lock across [pool write ->
        journal append], so journal order always equals apply order, and
        hand the record to the session's
        :class:`~repro.resilience.journal.DurableWriter`, which
        checkpoints when the cadence comes due — the commit protocol
        durable stream replays share.  Every mutator, and recovery's
        tail replay, commits through here: an un-journaled mutation is
        unrecoverable by construction.  Serving ops carry ``time=0.0``,
        since a session has no stream clock.  Returns the op's
        :class:`LiveDelta`.
        """
        if self._writer is None:
            return self._pool.write(op.apply_structure)  # type: ignore[arg-type]
        record = {"op": op.to_dict()}
        with self._write_lock:
            delta = self._pool.write(op.apply_structure)  # type: ignore[arg-type]
            self._writer.append(record)
            return delta

    def _entries(self, interest_column: Any) -> Entries:
        """The sparse entries of one dense interest column, checked first
        (shape, NaN, range) exactly as the live instance checks it."""
        return entries_from_column(self._live.interest.check_column(interest_column))

    def _event(self, event: int) -> int:
        """``event`` as a live candidate-event index."""
        index = operator.index(event)
        if not 0 <= index < self._live.n_events:
            raise UnknownEntityError(f"no candidate event {event}")
        return index

    def add_event(
        self,
        location: int,
        required_resources: float,
        interest_column: Any,
        name: str = "",
    ) -> int:
        """Commit a candidate-event arrival; returns its index.

        Applied under the writer lock: primaries absorb the delta in
        O(delta), the generation bumps, outstanding replicas invalidate.
        An unnamed arrival is called ``arrival-<index>``, as in a stream.
        """
        op = ArriveCandidate(
            0.0,
            location=int(location),
            required_resources=float(required_resources),
            interest=self._entries(interest_column),
            name=str(name),
        )
        return self._commit(op).event

    def cancel_event(self, event: int) -> int:
        """Commit a candidate-event cancellation (later events renumber)."""
        return self._commit(CancelEvent(0.0, event=self._event(event))).event

    def update_event_interest(self, event: int, interest_column: Any) -> int:
        """Commit an interest-drift update for one candidate event."""
        op = DriftInterest(
            0.0, event=self._event(event), interest=self._entries(interest_column)
        )
        return self._commit(op).event

    def add_competing(
        self, interval: int, interest_column: Any, name: str = ""
    ) -> int:
        """Commit a rival-event announcement; returns its index.

        An unnamed rival is called ``rival-arrival-<index>``, as in a
        stream.
        """
        op = AnnounceRival(
            0.0,
            interval=int(interval),
            interest=self._entries(interest_column),
            name=str(name),
        )
        return self._commit(op).competing

    # -- durability ------------------------------------------------------
    @property
    def journal_offset(self) -> int | None:
        """Journaled mutation count (``None`` on non-durable sessions)."""
        return None if self._writer is None else self._writer.offset

    def close(self) -> None:
        """Seal a durable session: final checkpoint, close the journal."""
        if self._writer is None:
            return
        with self._write_lock:
            self._writer.close()

    @classmethod
    def recover(
        cls,
        durability: Any,
        default_engine: EngineSpec | str | None = None,
        registry: SolverRegistry | None = None,
        *,
        max_replicas: int = 8,
        fault_plan: Any = None,
        keep_stale_replica: bool = False,
    ) -> "ServingSession":
        """Rebuild a durable serving session from its directory.

        Runs :func:`~repro.resilience.base.recover_session` with the
        serving restore step: a session over the instance derived at the
        checkpoint's offset, at the checkpointed generation, replays the
        journal tail's change ops through :meth:`_commit`, as the
        original calls committed them.  A damaged checkpoint falls back
        to the next older one, exactly as a stream's does; a record that
        holds no change op (such as the dense records of builds before
        serving sessions journaled ops) fails recovery with a
        :class:`~repro.core.errors.RecoveryError` naming it.
        The recovered session's generation, live state and plane
        contents are bit-identical to an uninterrupted session's, and it
        keeps journaling into the same WAL.  Serving-process config
        (engine, replicas, fault plan) is not state and is passed fresh;
        without ``default_engine`` the journaled engine is rebuilt.
        """
        from repro.resilience.base import journal_op, recover_session
        from repro.resilience.config import Durability
        from repro.resilience.stream import engine_spec_from_dict

        config = (
            durability
            if isinstance(durability, Durability)
            else Durability(durability)
        )

        def restorer(scan: JournalScan) -> Restore:
            engine = default_engine
            if engine is None and scan.metadata.get("engine"):
                engine = engine_spec_from_dict(
                    scan.metadata["engine"], config.journal_path
                )

            def restore(
                offset: int, body: dict[str, Any], instance: SESInstance
            ) -> tuple[ServingSession, Snapshot]:
                session = cls(
                    instance,
                    engine,
                    registry,
                    max_replicas=max_replicas,
                    fault_plan=fault_plan,
                    keep_stale_replica=keep_stale_replica,
                    generation=int(body["generation"]),
                )
                for index, record in enumerate(scan.records[offset:], offset):
                    session._commit(journal_op(record, index, config.journal_path))
                return session, functools.partial(_checkpoint_body, session._pool)

            return restore

        session, _, writer, _ = recover_session(config, "serve", restorer)
        # re-arm durability on the surviving WAL: future mutations append
        # where the journal left off
        session._writer = writer
        return session

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
