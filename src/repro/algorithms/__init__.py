"""SES solvers: the paper's GRD + baselines, and extension heuristics.

Paper methods (Sections III–IV):

* :class:`GreedyScheduler` (GRD) — Algorithm 1, with lazy rescoring.
* :class:`TopKScheduler` (TOP) — top-k initial scores, no updates.
* :class:`RandomScheduler` (RAND) — random valid assignments.

Reproduction infrastructure and extensions:

* :class:`LazyGreedyScheduler` — ``grd-heap``, a kept name for GRD's loop.
* :class:`ExhaustiveScheduler` — exact optimum on tiny instances.
* :class:`LocalSearchRefiner` — relocate/replace/exchange hill climbing.
* :class:`AnnealingScheduler` — Metropolis search with geometric cooling.
* :class:`BeamSearchScheduler` — width-w generalization of GRD.
* :class:`GraspScheduler` — randomized-greedy restarts + local search.
* :class:`IncrementalScheduler` — online maintenance under arrivals,
  cancellations, new competition and budget growth.
"""

from repro.algorithms.annealing import AnnealingScheduler
from repro.algorithms.beam import BeamSearchScheduler
from repro.algorithms.base import ScheduleResult, Scheduler, SolverStats
from repro.algorithms.registry import (
    SolverInfo,
    SolverRegistry,
    register_solver,
    solver_registry,
)
from repro.algorithms.exhaustive import (
    ExhaustiveScheduler,
    SearchBudgetExceeded,
    optimal_utility,
)
from repro.algorithms.grasp import GraspScheduler
from repro.algorithms.greedy import GreedyScheduler
from repro.algorithms.incremental import IncrementalScheduler
from repro.algorithms.greedy_heap import LazyGreedyScheduler
from repro.algorithms.local_search import LocalSearchRefiner
from repro.algorithms.random_schedule import RandomScheduler
from repro.algorithms.top import TopKScheduler

__all__ = [
    "AnnealingScheduler",
    "BeamSearchScheduler",
    "ExhaustiveScheduler",
    "GraspScheduler",
    "GreedyScheduler",
    "IncrementalScheduler",
    "LazyGreedyScheduler",
    "LocalSearchRefiner",
    "RandomScheduler",
    "ScheduleResult",
    "Scheduler",
    "SearchBudgetExceeded",
    "SolverInfo",
    "SolverRegistry",
    "SolverStats",
    "TopKScheduler",
    "optimal_utility",
    "register_solver",
    "solver_registry",
]
