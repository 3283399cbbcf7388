"""One session facade: every organizer and analysis method, written once.

The paper's evaluation is one-shot (build instance, run each method,
plot), but a production deployment answers *streams* of queries against
one large user×event instance: "schedule 20 events", "what if k were 30",
"how does SA compare", "what does hiring more staff buy".

:class:`BaseSession` answers them — solves, gap reports, named versions,
what-if sweeps, reports and stream replays — against one read hook:
what one read sees (the instance, its warm plane, the generation and
whether the engine was reused), plus the instance what-ifs, reports and
stream replays run against.  Every read counts one toward
``requests_served``; saves and version reads count nothing.  Both
session types inherit it under one set of names, and each takes the
other's responses:

* :class:`ScheduleSession` — one client over one immutable instance.  It
  memoizes one engine per :class:`~repro.core.engine.EngineSpec`, resets
  it between requests (reset is O(state), construction is O(instance)),
  and keeps alongside each engine a
  :class:`~repro.core.scoreplane.ScorePlane` of empty-schedule Eq. 4
  scores, filled once per spec and read warm, at generation 0, by every
  later request.  Results are *bit-identical* to one-shot solves — the
  session-reuse parity suite in ``tests/api/test_session.py`` enforces
  it.
* :class:`repro.serve.ServingSession` — many clients over versioned
  writes, reading through pool leases.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence
from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from typing import Any, NamedTuple, TypeVar

from repro.algorithms.base import Scheduler
from repro.algorithms.registry import SolverRegistry, solver_registry
from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from repro.core.scoreplane import ScorePlane
from repro.interactive.gaps import GapReport, build_gap_report
from repro.interactive.locks import LockSet
from repro.interactive.versions import ScheduleVersion, VersionDiff, VersionStore

from repro.api.requests import SolveRequest, SolveResponse

__all__ = ["BaseSession", "ScheduleSession", "solve_once"]

_T = TypeVar("_T")


class BaseSession(ABC):
    """The methods both session types share; a type adds its read hook."""

    def __init__(
        self,
        default_engine: EngineSpec | str | None,
        registry: SolverRegistry | None,
    ) -> None:
        self._default_spec = EngineSpec.coerce(default_engine)
        self._registry = registry if registry is not None else solver_registry
        self._served_lock = threading.Lock()
        self._requests_served = 0
        # named schedule snapshots; guarded by their own lock so version
        # saves and diffs never contend with the solve path
        self._versions = VersionStore()
        self._versions_lock = threading.Lock()

    # -- the read hook ----------------------------------------------------
    @abstractmethod
    def _lease(self, spec: EngineSpec) -> AbstractContextManager[Any]:
        """What one read sees: a context manager yielding ``frozen`` (the
        instance), ``plane`` (its warm plane for ``spec``), ``generation``
        and ``pool_hit`` (whether the engine was reused)."""

    @abstractmethod
    def _snapshot(self) -> SESInstance:
        """The instance what-ifs, reports and stream replays run against."""

    # -- introspection ----------------------------------------------------
    @property
    def default_engine(self) -> EngineSpec:
        return self._default_spec

    @property
    def registry(self) -> SolverRegistry:
        """The solver catalog requests are resolved against."""
        return self._registry

    @property
    def requests_served(self) -> int:
        """Reads served so far: solves, gap reports, reports, what-ifs and
        stream replays (saves and version reads do not count)."""
        with self._served_lock:
            return self._requests_served

    def _counted(self, answer: _T) -> _T:
        """Count one served read and pass its answer through."""
        with self._served_lock:
            self._requests_served += 1
        return answer

    def _spec(self, engine: EngineSpec | str | None) -> EngineSpec:
        """The spec ``engine`` names; the session default for ``None``."""
        return self._default_spec if engine is None else EngineSpec.coerce(engine)

    # -- solves -------------------------------------------------------------
    @staticmethod
    def _request(request: Any, query: dict[str, Any]) -> SolveRequest:
        """``solve``'s one request, from a :class:`SolveRequest` or its fields."""
        if request is None:
            return SolveRequest(**query)
        if query:
            raise TypeError(
                "pass either a SolveRequest or keyword fields, not both"
            )
        if not isinstance(request, SolveRequest):
            raise TypeError(
                f"solve() takes a SolveRequest or keyword fields, got "
                f"{type(request).__name__} {request!r}"
            )
        return request

    def solver_for(self, request: SolveRequest) -> Scheduler:
        """Build the request's solver via the registry (fresh per request,
        so stochastic state never leaks between queries)."""
        info = self._registry.get(request.solver)
        if not info.one_shot:
            raise ValueError(
                f"solver {request.solver!r} is a {info.kind}, not a one-shot "
                f"solver; construct {info.cls.__name__} via "
                f"solver_registry.create/direct instantiation instead"
            )
        return self._registry.create(
            request.solver,
            engine=self._spec(request.engine),
            seed=request.seed,
            strict=request.strict,
            **request.params,
        )

    def solve(self, request: SolveRequest | None = None, /, **query: Any) -> Any:
        """Serve one request; accepts a :class:`SolveRequest` or its fields.

        ``session.solve(k=20)`` and
        ``session.solve(SolveRequest(k=20))`` are equivalent.
        """
        return self._serve(self._request(request, query))

    def _serve(self, request: SolveRequest, **bounds: Any) -> Any:
        # the solver is built, so the request validated, before any read
        solver = self.solver_for(request)
        return self._counted(self._solve_leased(request, solver, **bounds))

    def _solve_leased(self, request: SolveRequest, solver: Scheduler) -> Any:
        spec = self._spec(request.engine)
        with self._lease(spec) as read:
            result = solver.solve(
                read.frozen, request.k, plane=read.plane, locks=request.locks
            )
            return SolveResponse(
                request=request,
                result=result,
                engine=spec,
                reused_engine=read.pool_hit,
            )

    def solve_many(self, requests: Iterable[SolveRequest]) -> list[Any]:
        """Serve a batch of requests in order, sharing cached engines."""
        return [self.solve(request) for request in requests]

    # -- organizer-in-the-loop ----------------------------------------------
    def gap_report(
        self,
        schedule: Any,
        k: int | None = None,
        *,
        engine: EngineSpec | str | None = None,
        locks: LockSet | None = None,
        limit: int | None = None,
    ) -> GapReport:
        """Explain what a draft schedule leaves on the table.

        Reads marginal gains straight off the warm :class:`ScorePlane`
        its read sees for ``engine``'s spec — after any solve on that
        spec (at that version, on a serving session) a report costs zero
        extra Eq. 4 evaluations — and is stamped with the read's
        generation.  Pass the response of a previous solve from either
        session kind (its request's ``k`` and locks and its engine are
        reused) or a bare schedule (a :class:`Schedule` or an
        event -> interval mapping) plus ``k``.
        """
        if not isinstance(schedule, (Schedule, Mapping)):
            response = schedule
            schedule = response.schedule
            if k is None:
                k = response.result.requested_k
            if locks is None:
                locks = response.request.locks
            if engine is None:
                engine = response.engine
        elif k is None:
            raise TypeError("k is required when passing a bare schedule")
        with self._lease(self._spec(engine)) as read:
            report = build_gap_report(
                read.frozen, schedule, k, read.plane, locks=locks, limit=limit
            )
            return self._counted(replace(report, version=read.generation))

    def save_version(
        self, name: str, response: Any, *, overwrite: bool = False
    ) -> ScheduleVersion:
        """Snapshot a solve of either session kind under ``name``.

        The snapshot is stamped with the response's generation (0 on a
        plain session), so a later diff can tell whether two versions
        even saw the same instance state.
        """
        with self._versions_lock:
            return self._versions.save(
                name,
                response.schedule,
                response.utility,
                k=response.result.requested_k,
                solver=response.solver,
                stamp=response.version,
                overwrite=overwrite,
            )

    def schedule_version(self, name: str) -> ScheduleVersion:
        """A saved snapshot by name (:class:`KeyError` when unknown)."""
        with self._versions_lock:
            return self._versions.get(name)

    def versions(self) -> tuple[str, ...]:
        """Saved version names in save order."""
        with self._versions_lock:
            return self._versions.names()

    def diff_versions(self, base: str, target: str | None = None) -> VersionDiff:
        """What changed from ``base`` to ``target`` (default: latest save)."""
        with self._versions_lock:
            return self._versions.diff(base, target)

    # -- streaming ------------------------------------------------------------
    def stream(
        self,
        trace: Any,
        policy: Any = "incremental",
        k: int | None = None,
        engine: EngineSpec | str | None = None,
        *,
        oracle_every: int | None = None,
        oracle_solver: str = "grd-heap",
        locks: LockSet | None = None,
        **policy_params: Any,
    ) -> Any:
        """Replay a change trace against the session's snapshot.

        ``trace`` is a :class:`repro.stream.Trace`; ``policy`` a
        maintenance-policy name (``"incremental"``, ``"periodic-rebuild"``,
        ``"hybrid"``) or a ready policy object, with ``policy_params``
        forwarded to construction.  ``k`` defaults to the trace's
        ``initial_k``, ``engine`` to the session default, and ``locks``
        bind every schedule of the replay.  Returns the
        :class:`repro.stream.StreamResult` observation record.

        The replay materializes its own
        :class:`~repro.core.live.LiveInstance` over the snapshot and
        applies every change op as an O(delta) in-place mutation of that
        private view, so the replay is a *simulation*: the session's own
        state is never touched (a serving session commits real changes
        through its mutators).  The returned result's ``freezes`` field
        counts how many O(instance) snapshots the replay paid for — 0 on
        the pure incremental fast path.
        """
        from repro.stream import StreamDriver

        driver = StreamDriver(
            self._snapshot(),
            k=k,
            policy=policy,
            engine=self._spec(engine),
            oracle_every=oracle_every,
            oracle_solver=oracle_solver,
            locks=locks,
            **policy_params,
        )
        return self._counted(driver.run(trace))

    # -- analysis conveniences ------------------------------------------------
    def report(self, schedule: Schedule) -> Any:
        """Full :class:`~repro.harness.inspect.ScheduleReport` for a schedule."""
        from repro.harness.inspect import ScheduleReport

        return self._counted(ScheduleReport(self._snapshot(), schedule))

    def what_if_theta(
        self, k: int, thetas: Sequence[float], solver: str = "grd", **params: Any
    ) -> Any:
        """Utility curve as the staffing budget varies (see harness.whatif)."""
        from repro.harness import whatif

        return self._counted(whatif.sweep_theta(
            self._snapshot(), k, thetas, solver=self._whatif_solver(solver, params)
        ))

    def what_if_locations(
        self,
        k: int,
        location_counts: Sequence[int],
        solver: str = "grd",
        **params: Any,
    ) -> Any:
        """Utility curve as the venue budget varies (see harness.whatif)."""
        from repro.harness import whatif

        return self._counted(whatif.sweep_locations(
            self._snapshot(), k, location_counts,
            solver=self._whatif_solver(solver, params),
        ))

    def competition_cost(
        self, k: int, competing_index: int, solver: str = "grd", **params: Any
    ) -> float:
        """Attendance recovered if one competing event vanished."""
        from repro.harness import whatif

        return self._counted(whatif.competition_cost(
            self._snapshot(), k, competing_index,
            solver=self._whatif_solver(solver, params),
        ))

    def _whatif_solver(self, solver: str, params: dict[str, Any]) -> Scheduler:
        return self._registry.create(
            solver, engine=self._default_spec, **params
        )


class _Read(NamedTuple):
    """What a :class:`ScheduleSession` read sees: the attributes a
    serving session's leased :class:`~repro.serve.pool.Replica` has."""

    frozen: SESInstance
    plane: ScorePlane
    pool_hit: bool
    generation: int = 0


class ScheduleSession(BaseSession):
    """Serve repeated solve / what-if / report queries over one instance.

    Parameters
    ----------
    instance:
        The problem instance all requests run against.
    default_engine:
        :class:`EngineSpec` (or kind string) used when a request does not
        name one; defaults to the sparse engine.
    registry:
        Solver catalog; the process-wide registry unless a test injects
        its own.
    """

    def __init__(
        self,
        instance: SESInstance,
        default_engine: EngineSpec | str | None = None,
        registry: SolverRegistry | None = None,
    ):
        super().__init__(default_engine, registry)
        self._instance = instance
        # keyed by the full (frozen, hashable) EngineSpec: two specs must
        # never share an engine, or plane state would leak across them
        self._engines: dict[EngineSpec, ScoreEngine] = {}
        self._planes: dict[EngineSpec, ScorePlane] = {}
        self._engines_built = 0

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_file(
        cls,
        path: Any,
        default_engine: EngineSpec | str | None = None,
    ) -> ScheduleSession:
        """Open a session over an instance JSON file (see repro.data)."""
        from repro.data.serialization import load_instance

        return cls(load_instance(path), default_engine=default_engine)

    @classmethod
    def from_config(
        cls,
        config: Any,
        root_seed: int = 0,
        default_engine: EngineSpec | str | None = None,
    ) -> ScheduleSession:
        """Open a session over a generated workload.

        ``config`` is an :class:`~repro.workloads.config.ExperimentConfig`.
        """
        from repro.workloads.generator import WorkloadGenerator

        return cls(
            WorkloadGenerator(root_seed=root_seed).build(config),
            default_engine=default_engine,
        )

    # -- introspection --------------------------------------------------
    @property
    def instance(self) -> SESInstance:
        return self._instance

    @property
    def engines_built(self) -> int:
        """Engine constructions so far (== distinct specs served)."""
        return self._engines_built

    def describe(self) -> str:
        return (
            f"{self._instance.describe()} | default engine "
            f"{self._default_spec.kind} | {self._engines_built} engine(s) "
            f"cached, {self.requests_served} request(s) served"
        )

    # -- the read hook ----------------------------------------------------
    def engine_for(self, spec: EngineSpec | str | None = None) -> ScoreEngine:
        """The cached engine for ``spec``, constructing it on first use."""
        resolved = self._spec(spec)
        engine = self._engines.get(resolved)
        if engine is None:
            engine = resolved.build(self._instance)
            self._engines[resolved] = engine
            self._engines_built += 1
        return engine

    def plane_for(self, spec: EngineSpec | str | None = None) -> ScorePlane:
        """The cached warm :class:`ScorePlane` over ``spec``'s engine.

        Filled on the first solve that reads it; the session instance is
        immutable, so the cached matrix stays valid for the session's
        lifetime and every later solve warm-starts from it.
        """
        resolved = self._spec(spec)
        plane = self._planes.get(resolved)
        if plane is None:
            plane = ScorePlane(self.engine_for(resolved))
            self._planes[resolved] = plane
        return plane

    def _lease(self, spec: EngineSpec) -> nullcontext[_Read]:
        reused = spec in self._engines
        return nullcontext(_Read(self._instance, self.plane_for(spec), reused))

    def _snapshot(self) -> SESInstance:
        return self._instance


def solve_once(
    instance: SESInstance, request: SolveRequest | None = None, /, **query: Any
) -> SolveResponse:
    """One-shot convenience: a throwaway session serving a single request."""
    return ScheduleSession(instance).solve(request, **query)
