"""Abl 1 — score-engine ablation: the sparse engine vs the reference oracle.

DESIGN.md commits to interchangeable Eq. 1–4 evaluators.  This benchmark
quantifies the choice: bulk scoring of one interval (the inner loop of
GRD/TOP) and a full GRD run are timed under both engines on the *same*
workload, with outputs asserted equal.  Both read the same CSC ``mu``;
the reference oracle gathers the columns a query needs once and loops
over users in Python — it is the semantic oracle, not a contender.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyScheduler
from repro.core.engine import EngineSpec, make_engine
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator

_K = 10
_USERS = 200

#: stack name -> engine spec
_STACKS = {
    "sparse": EngineSpec(),
    "reference": EngineSpec(kind="reference"),
}
_INSTANCE = WorkloadGenerator(root_seed=99).build(
    ExperimentConfig(k=_K, n_users=_USERS), seed=1
)


@pytest.mark.benchmark(group="ablation1-engines")
@pytest.mark.parametrize("stack", sorted(_STACKS))
def test_bulk_interval_scoring(benchmark, stack: str):
    engine = make_engine(_INSTANCE, _STACKS[stack])
    events = list(range(_INSTANCE.n_events))

    scores = benchmark(engine.scores_for_interval, 0, events)
    # every stack must produce the same numbers
    oracle = make_engine(
        _INSTANCE, EngineSpec("reference")
    ).scores_for_interval(0, events)
    np.testing.assert_allclose(scores, oracle, atol=1e-9)
    benchmark.extra_info["stack"] = stack


@pytest.mark.benchmark(group="ablation1-engines")
@pytest.mark.parametrize("stack", sorted(_STACKS))
def test_full_grd_run(benchmark, stack: str):
    solver = GreedyScheduler(engine=_STACKS[stack])
    result = benchmark.pedantic(
        solver.solve, args=(_INSTANCE, _K), rounds=1, iterations=1,
    )
    benchmark.extra_info["stack"] = stack
    benchmark.extra_info["utility"] = result.utility
    # the choice of stack must not affect the outcome
    oracle = GreedyScheduler().solve(_INSTANCE, _K)
    assert result.utility == pytest.approx(oracle.utility, abs=1e-6)
