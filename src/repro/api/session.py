"""A reusable scheduling session: one instance, many queries.

The paper's evaluation is one-shot (build instance, run each method,
plot), but a production deployment answers *streams* of queries against
one large user×event instance: "schedule 20 events", "what if k were 30",
"how does SA compare", "what does hiring more staff buy".  Re-paying
engine construction per query is pure waste — the sparse engine copies
the activity matrix and lazily accumulates competing-mass columns, both
of which are query-independent.

:class:`ScheduleSession` is that serving loop: it holds the instance,
memoizes one engine per :class:`~repro.core.engine.EngineSpec`, resets it
between requests (reset is O(state), construction is O(instance)), and
resolves solvers through the registry.  Alongside each engine it keeps a
:class:`~repro.core.scoreplane.ScorePlane` of empty-schedule Eq. 4
scores: the instance is immutable, so the matrix every GRD-family solver
sweeps cold on its first move is computed once per spec and served warm
to every subsequent request.  Results are *bit-identical* to one-shot
solves — the session-reuse parity suite in ``tests/api/test_session.py``
enforces it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

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

__all__ = ["ScheduleSession", "solve_once"]


class ScheduleSession:
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
        self._instance = instance
        self._default_spec = EngineSpec.coerce(default_engine)
        self._registry = registry if registry is not None else solver_registry
        # keyed by the full (frozen, hashable) EngineSpec: the backend
        # field does not change how an engine is *built* today, but two
        # specs must never share an engine — a divergence in any future
        # spec field would silently leak plane state across them
        self._engines: dict[EngineSpec, ScoreEngine] = {}
        self._planes: dict[EngineSpec, ScorePlane] = {}
        self._engines_built = 0
        self._requests_served = 0
        self._versions = VersionStore()

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

        ``config`` is an :class:`~repro.workloads.config.ExperimentConfig`;
        when ``default_engine`` is given, the workload's ``mu`` storage is
        rewritten to the spec's ``interest_backend`` — pass
        ``EngineSpec(kind=..., backend=...)`` to pin a storage/engine
        pairing explicitly (e.g. the sparse engine over dense storage).
        """
        from repro.workloads.generator import WorkloadGenerator

        if default_engine is not None:
            spec = EngineSpec.coerce(default_engine)
            if config.interest_backend != spec.interest_backend:
                config = config.with_backend(spec.interest_backend)
        return cls(
            WorkloadGenerator(root_seed=root_seed).build(config),
            default_engine=default_engine,
        )

    # -- introspection --------------------------------------------------
    @property
    def instance(self) -> SESInstance:
        return self._instance

    @property
    def default_engine(self) -> EngineSpec:
        return self._default_spec

    @property
    def registry(self) -> SolverRegistry:
        """The solver catalog requests are resolved against."""
        return self._registry

    @property
    def engines_built(self) -> int:
        """Engine constructions so far (== distinct specs served)."""
        return self._engines_built

    @property
    def requests_served(self) -> int:
        return self._requests_served

    def describe(self) -> str:
        return (
            f"{self._instance.describe()} | default engine "
            f"{self._default_spec.kind} | {self._engines_built} engine(s) "
            f"cached, {self._requests_served} request(s) served"
        )

    # -- the serving hot path -------------------------------------------
    def engine_for(self, spec: EngineSpec | str | None = None) -> ScoreEngine:
        """The cached engine for ``spec``, constructing it on first use."""
        resolved = (
            self._default_spec if spec is None else EngineSpec.coerce(spec)
        )
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
        resolved = (
            self._default_spec if spec is None else EngineSpec.coerce(spec)
        )
        plane = self._planes.get(resolved)
        if plane is None:
            plane = ScorePlane(self.engine_for(resolved))
            self._planes[resolved] = plane
        return plane

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
        spec = (
            EngineSpec.coerce(request.engine)
            if request.engine is not None
            else self._default_spec
        )
        return self._registry.create(
            request.solver,
            engine=spec,
            seed=request.seed,
            strict=request.strict,
            **request.params,
        )

    def solve(
        self, request: SolveRequest | None = None, /, **query: Any
    ) -> SolveResponse:
        """Serve one request; accepts a :class:`SolveRequest` or its fields.

        ``session.solve(k=20)`` and
        ``session.solve(SolveRequest(k=20))`` are equivalent.
        """
        if request is None:
            request = SolveRequest(**query)
        elif query:
            raise TypeError(
                "pass either a SolveRequest or keyword fields, not both"
            )
        spec = (
            EngineSpec.coerce(request.engine)
            if request.engine is not None
            else self._default_spec
        )
        reused = spec in self._engines
        plane = self.plane_for(spec)
        solver = self.solver_for(request)
        result = solver.solve(
            self._instance, request.k, plane=plane, locks=request.locks
        )
        self._requests_served += 1
        return SolveResponse(
            request=request, result=result, engine=spec, reused_engine=reused
        )

    def solve_many(
        self, requests: Iterable[SolveRequest]
    ) -> list[SolveResponse]:
        """Serve a batch of requests in order, sharing cached engines."""
        return [self.solve(request) for request in requests]

    # -- organizer-in-the-loop ------------------------------------------
    def gap_report(
        self,
        schedule: Schedule | SolveResponse,
        k: int | None = None,
        *,
        engine: EngineSpec | str | None = None,
        locks: LockSet | None = None,
        limit: int | None = None,
    ) -> GapReport:
        """Explain what a draft schedule leaves on the table.

        Reads marginal gains straight off the session's warm
        :class:`ScorePlane` for ``engine``'s spec — after any solve on
        that spec, a report costs zero extra Eq. 4 evaluations.  Pass
        the :class:`SolveResponse` of a previous solve (its request's
        ``k`` and locks are reused) or a bare schedule plus ``k``.
        """
        if isinstance(schedule, SolveResponse):
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
        plane = self.plane_for(engine)
        self._requests_served += 1
        return build_gap_report(
            self._instance, schedule, k, plane, locks=locks, limit=limit
        )

    def save_version(
        self,
        name: str,
        response: SolveResponse,
        *,
        overwrite: bool = False,
    ) -> ScheduleVersion:
        """Snapshot a solve under ``name`` for later diffing."""
        return self._versions.save(
            name,
            response.schedule,
            response.utility,
            k=response.result.requested_k,
            solver=response.solver,
            overwrite=overwrite,
        )

    def version(self, name: str) -> ScheduleVersion:
        """A saved snapshot by name (:class:`KeyError` when unknown)."""
        return self._versions.get(name)

    def versions(self) -> tuple[str, ...]:
        """Saved version names in save order."""
        return self._versions.names()

    def diff_versions(self, base: str, target: str | None = None) -> VersionDiff:
        """What changed from ``base`` to ``target`` (default: latest save)."""
        return self._versions.diff(base, target)

    # -- streaming ------------------------------------------------------
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
        """Replay a change trace against this session's instance.

        ``trace`` is a :class:`repro.stream.Trace`; ``policy`` a
        maintenance-policy name (``"incremental"``, ``"periodic-rebuild"``,
        ``"hybrid"``) or a ready policy object, with ``policy_params``
        forwarded to construction.  ``k`` defaults to the trace's
        ``initial_k`` and ``engine`` to the session default.  Returns the
        :class:`repro.stream.StreamResult` observation record.

        The replay materializes its own
        :class:`~repro.core.live.LiveInstance` over the session's
        instance and applies every change op as an O(delta) in-place
        mutation of that private view (the immutable session instance is
        never touched), so the session keeps serving batch queries
        against the original state afterwards.  The returned result's
        ``freezes`` field counts how many O(instance) snapshots the
        replay paid for — 0 on the pure incremental fast path.
        """
        from repro.stream import StreamDriver

        driver = StreamDriver(
            self._instance,
            k=k,
            policy=policy,
            engine=engine if engine is not None else self._default_spec,
            oracle_every=oracle_every,
            oracle_solver=oracle_solver,
            locks=locks,
            **policy_params,
        )
        result = driver.run(trace)
        self._requests_served += 1
        return result

    # -- analysis conveniences ------------------------------------------
    def report(self, schedule: Schedule) -> Any:
        """Full :class:`~repro.harness.inspect.ScheduleReport` for a schedule."""
        from repro.harness.inspect import ScheduleReport

        return ScheduleReport(self._instance, schedule)

    def what_if_theta(
        self, k: int, thetas: Sequence[float], solver: str = "grd", **params: Any
    ) -> Any:
        """Utility curve as the staffing budget varies (see harness.whatif)."""
        from repro.harness import whatif

        return whatif.sweep_theta(
            self._instance, k, thetas, solver=self._whatif_solver(solver, params)
        )

    def what_if_locations(
        self,
        k: int,
        location_counts: Sequence[int],
        solver: str = "grd",
        **params: Any,
    ) -> Any:
        """Utility curve as the venue budget varies (see harness.whatif)."""
        from repro.harness import whatif

        return whatif.sweep_locations(
            self._instance,
            k,
            location_counts,
            solver=self._whatif_solver(solver, params),
        )

    def competition_cost(
        self, k: int, competing_index: int, solver: str = "grd", **params: Any
    ) -> float:
        """Attendance recovered if one competing event vanished."""
        from repro.harness import whatif

        return whatif.competition_cost(
            self._instance,
            k,
            competing_index,
            solver=self._whatif_solver(solver, params),
        )

    def _whatif_solver(self, solver: str, params: dict[str, Any]) -> Scheduler:
        return self._registry.create(
            solver, engine=self._default_spec, **params
        )


def solve_once(
    instance: SESInstance, request: SolveRequest | None = None, /, **query: Any
) -> SolveResponse:
    """One-shot convenience: a throwaway session serving a single request."""
    return ScheduleSession(instance).solve(request, **query)
