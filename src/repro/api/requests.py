"""Typed solve requests and responses — the facade's wire format.

A :class:`SolveRequest` names *what* to solve (solver, budget ``k``,
engine spec, seed, solver parameters) without touching *how* it is
executed; a session (:class:`repro.api.ScheduleSession`,
:func:`repro.api.solve_once` or :class:`repro.serve.ServingSession`)
turns it into a :class:`SolveResponse` wrapping the solver's
:class:`~repro.algorithms.base.ScheduleResult`.  Both are frozen value
objects, so requests can be built once and replayed against many sessions
(or logged next to their responses) without aliasing surprises.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.algorithms.base import ScheduleResult
from repro.core.engine import EngineSpec
from repro.core.schedule import Schedule
from repro.interactive.locks import LockSet
from repro.utils.validation import check_budget

__all__ = ["SolveRequest", "SolveResponse"]


@dataclass(frozen=True)
class SolveRequest:
    """One scheduling query: solver + budget + engine + solver knobs.

    Parameters
    ----------
    k:
        Number of assignments to place (clamped to ``|E|`` by the solver):
        an integer (numpy integers included, bools not), ``>= 0``.
    solver:
        Registry name (see :data:`repro.api.solver_registry`), e.g.
        ``"grd"``, ``"sa"``, ``"beam"``.
    engine:
        :class:`EngineSpec` or bare kind string; ``None`` defers to the
        session's default spec.
    seed:
        Seed for stochastic solvers; rejected (by the registry) for
        deterministic ones.
    strict:
        Raise instead of returning a partial schedule when fewer than
        ``k`` assignments fit.
    params:
        Extra solver-constructor keywords (``{"steps": 500}`` for SA,
        ``{"beam_width": 8}`` for beam search, ...).
    label:
        Optional caller tag echoed on the response (useful when fanning
        out ``solve_many`` batches).
    locks:
        Organizer pin/forbid constraints
        (:class:`~repro.interactive.locks.LockSet`, or its ``to_dict``
        mapping form); ``None`` or an empty lock set solves unlocked,
        bit-identically to a lock-free request.
    """

    k: int
    solver: str = "grd"
    engine: EngineSpec | str | None = None
    seed: int | None = None
    strict: bool = False
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str | None = None
    locks: LockSet | Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_budget(self.k, "k"))
        if self.engine is not None:
            object.__setattr__(self, "engine", EngineSpec.coerce(self.engine))
        # freeze a private copy so a caller mutating their dict afterwards
        # cannot retroactively change an already-issued request
        object.__setattr__(self, "params", dict(self.params))
        # canonicalize to a frozen LockSet (or None when nothing binds)
        object.__setattr__(self, "locks", LockSet.coerce(self.locks))

    def replace(self, **changes: Any) -> SolveRequest:
        """A copy with ``changes`` applied (dataclasses.replace shorthand)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SolveResponse:
    """The outcome of serving one :class:`SolveRequest`.

    Carries the original request, the resolved :class:`EngineSpec` the
    engine actually ran under, whether that engine came from the session
    cache, and the full :class:`ScheduleResult`.  A serving session
    wraps it in a :class:`~repro.serve.ServedResponse`, which exposes
    the same fields; every session method that takes a response takes
    either.
    """

    request: SolveRequest
    result: ScheduleResult
    engine: EngineSpec
    reused_engine: bool = False

    @property
    def solver(self) -> str:
        """Display name of the solver that produced the result."""
        return self.result.solver

    @property
    def schedule(self) -> Schedule:
        return self.result.schedule

    @property
    def utility(self) -> float:
        return self.result.utility

    @property
    def version(self) -> int:
        """The generation the solve ran at: always 0 on a plain session,
        as on its gap reports and saved versions."""
        return 0

    @property
    def runtime_seconds(self) -> float:
        return self.result.runtime_seconds

    @property
    def label(self) -> str | None:
        return self.request.label

    def summary(self) -> str:
        prefix = f"[{self.label}] " if self.label else ""
        return prefix + self.result.summary()
