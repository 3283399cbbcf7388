"""``repro.api`` — the single public surface of the SES library.

Everything a client needs to schedule events lives here:

* :data:`solver_registry` / :func:`register_solver` — the catalog of all
  solvers with their capabilities (the CLI, the sweep runner and the
  session all derive their choices from it);
* :class:`EngineSpec` — typed score-engine configuration;
* :class:`SolveRequest` / :class:`SolveResponse` — frozen query/result
  value objects;
* :class:`ScheduleSession` — the serving loop: load an instance once,
  answer many solve / gap-report / version / what-if / report / stream
  queries, amortizing engine construction across requests.  Its
  methods live in :class:`repro.api.session.BaseSession`, which the
  concurrent :class:`repro.serve.ServingSession` shares;
* :func:`solve_once` — one-shot convenience for scripts.

Quickstart::

    from repro.api import ScheduleSession, SolveRequest

    session = ScheduleSession(instance)
    best = session.solve(k=20)                         # GRD by default
    batch = session.solve_many([
        SolveRequest(k=20, solver="grd-heap"),
        SolveRequest(k=20, solver="sa", seed=7, params={"steps": 500}),
    ])
"""

from repro.algorithms.base import ScheduleResult, Scheduler, SolverStats
from repro.algorithms.registry import (
    SolverInfo,
    SolverRegistry,
    register_solver,
    solver_registry,
)
from repro.core.engine import ENGINE_KINDS, EngineSpec, make_engine

from repro.api.requests import SolveRequest, SolveResponse
from repro.api.session import ScheduleSession, solve_once

__all__ = [
    "ENGINE_KINDS",
    "EngineSpec",
    "ScheduleResult",
    "ScheduleSession",
    "Scheduler",
    "SolveRequest",
    "SolveResponse",
    "SolverInfo",
    "SolverRegistry",
    "SolverStats",
    "make_engine",
    "register_solver",
    "solve_once",
    "solver_registry",
]
