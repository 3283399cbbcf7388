"""Abl 1 — score-engine ablation: sparse engine over sparse and dense storage
vs the reference oracle.

DESIGN.md commits to interchangeable Eq. 1–4 evaluators.  This benchmark
quantifies the choice two ways:

* bulk scoring of one interval (the inner loop of GRD/TOP) and a full GRD
  run are timed under every stack on the *same* workload, with outputs
  asserted equal: the sparse engine over CSC ``mu`` (the default), the
  sparse engine over dense ``mu``, and the reference oracle over dense
  ``mu`` (it reads ``mu`` one element at a time; it is the semantic
  oracle, not a contender).
* a **scale panel** runs the same workload at 10x the suite's default
  population (2,000 users) under the dense pipeline (dense ``mu``) and
  the sparse pipeline (CSC ``mu``), both scored by the sparse engine,
  asserting identical utilities and *lower peak memory* for sparse — the
  property that unlocks Meetup-scale populations.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyScheduler
from repro.core.engine import EngineSpec, make_engine
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator

_K = 10
_USERS = 200
#: The scale panel runs at 10x the default population of this module.
_SCALE_FACTOR = 10
_GENERATOR = WorkloadGenerator(root_seed=99)

#: stack name -> engine spec; ``mu`` storage follows ``spec.interest_backend``
_STACKS = {
    "sparse/sparse": EngineSpec(),
    "sparse/dense": EngineSpec(backend="dense"),
    "reference/dense": EngineSpec(kind="reference"),
}
_INSTANCES: dict[str, object] = {}


def _instance(backend: str):
    if backend not in _INSTANCES:
        config = ExperimentConfig(k=_K, n_users=_USERS, interest_backend=backend)
        # one fixed build seed: both storages hold the same mu values
        _INSTANCES[backend] = _GENERATOR.build(config, seed=1)
    return _INSTANCES[backend]


@pytest.mark.benchmark(group="ablation1-engines")
@pytest.mark.parametrize("stack", sorted(_STACKS))
def test_bulk_interval_scoring(benchmark, stack: str):
    spec = _STACKS[stack]
    instance = _instance(spec.interest_backend)
    engine = make_engine(instance, spec)
    events = list(range(instance.n_events))

    scores = benchmark(engine.scores_for_interval, 0, events)
    # every stack must produce the same numbers
    oracle = make_engine(
        _instance("dense"), EngineSpec("reference")
    ).scores_for_interval(0, events)
    np.testing.assert_allclose(scores, oracle, atol=1e-9)
    benchmark.extra_info["stack"] = stack


@pytest.mark.benchmark(group="ablation1-engines")
@pytest.mark.parametrize("stack", sorted(_STACKS))
def test_full_grd_run(benchmark, stack: str):
    spec = _STACKS[stack]
    solver = GreedyScheduler(engine=spec)
    result = benchmark.pedantic(
        solver.solve, args=(_instance(spec.interest_backend), _K),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["stack"] = stack
    benchmark.extra_info["utility"] = result.utility
    # the choice of stack must not affect the outcome
    oracle = GreedyScheduler().solve(_instance("sparse"), _K)
    assert result.utility == pytest.approx(oracle.utility, abs=1e-6)


# ----------------------------------------------------------------------
# scale panel: dense vs sparse pipeline at 10x users
# ----------------------------------------------------------------------

#: pipeline name -> engine spec (the backend pairing follows the spec)
_PIPELINES = {
    "dense": EngineSpec(backend="dense"),
    "sparse": EngineSpec(),
}


def _scale_config(backend: str) -> ExperimentConfig:
    return ExperimentConfig(
        k=_K, n_users=_USERS * _SCALE_FACTOR, interest_backend=backend
    )


def _run_scale_pipeline(pipeline: str) -> tuple[float, int]:
    """Build + solve the 10x workload; return (utility, traced peak bytes).

    The EBSN snapshot is generated before tracing starts — it is byte-for-
    byte identical for both pipelines (same root seed, same sizes), so the
    measured peak isolates what actually differs: mu mining, mu storage
    and the engine's scoring temporaries.
    """
    spec = _PIPELINES[pipeline]
    generator = WorkloadGenerator(root_seed=99)
    config = _scale_config(spec.interest_backend)
    generator.snapshot_for(config)  # shared, pre-traced

    tracemalloc.start()
    try:
        instance = generator.build(config, seed=1)
        result = GreedyScheduler(engine=spec).solve(instance, _K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result.utility, peak


@pytest.mark.benchmark(group="ablation1-engines-scale")
@pytest.mark.parametrize("pipeline", sorted(_PIPELINES))
def test_scale_panel_runtime(benchmark, pipeline: str):
    """Wall-clock of the full 10x-user pipeline (build mu + GRD solve)."""
    spec = _PIPELINES[pipeline]
    generator = WorkloadGenerator(root_seed=99)
    config = _scale_config(spec.interest_backend)
    generator.snapshot_for(config)

    def run():
        instance = generator.build(config, seed=1)
        return GreedyScheduler(engine=spec).solve(instance, _K)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["pipeline"] = pipeline
    benchmark.extra_info["n_users"] = config.n_users
    benchmark.extra_info["utility"] = result.utility


def test_scale_panel_sparse_uses_less_memory_than_dense():
    """At 10x users the sparse pipeline must beat dense on peak memory
    while producing the identical schedule utility."""
    dense_utility, dense_peak = _run_scale_pipeline("dense")
    sparse_utility, sparse_peak = _run_scale_pipeline("sparse")

    assert sparse_utility == pytest.approx(dense_utility, abs=1e-9)
    assert sparse_peak < dense_peak, (
        f"sparse pipeline peaked at {sparse_peak / 1e6:.1f} MB, dense at "
        f"{dense_peak / 1e6:.1f} MB — sparse must be lower"
    )
