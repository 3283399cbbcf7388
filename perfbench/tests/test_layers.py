"""The layer wrappers pass everything through and leave nothing behind."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from perfbench.harness import OpLog
from perfbench.layers import PER_LAYER_UNITS, Instrumentation, per_layer_metrics
from perfbench.tracing import Tracer, layer_table


@pytest.fixture(scope="module")
def instance():
    from repro.workloads.config import ExperimentConfig
    from repro.workloads.generator import WorkloadGenerator

    config = ExperimentConfig(k=6, n_users=300, interest_backend="sparse")
    return WorkloadGenerator(root_seed=3).build(config)


def sparse(**fields):
    from repro.api import EngineSpec

    return EngineSpec(kind="sparse", **fields)


def solve(instance, spec):
    import repro.api

    result = repro.api.solve_once(instance, k=6, solver="grd", engine=spec).result
    return result.utility, result.schedule.as_mapping()


@pytest.mark.parametrize("spec", [sparse(), sparse(shards=2, workers=2, block_users=128)],
                         ids=["flat", "sharded"])
def test_a_wrapped_solve_is_bit_identical_to_an_unwrapped_one(instance, spec):
    plain = solve(instance, spec)
    tracer = Tracer()
    with Instrumentation(tracer):
        ops = OpLog(tracer)
        with ops.op():
            wrapped = solve(instance, spec)
    assert wrapped == plain
    assert any(span.layer == "engine" for span in tracer.spans)
    assert solve(instance, spec) == plain


def test_results_and_exceptions_pass_through(instance):
    from repro.core.errors import DuplicateEventError

    def probe():
        engine = sparse().build(instance)
        engine.assign(0, 0)
        scores = engine.scores_for_interval(1, [1, 2, 3])
        with pytest.raises(DuplicateEventError) as raised:
            engine.scores_for_interval(0, [0])
        return scores, str(raised.value)

    plain_scores, plain_error = probe()
    with Instrumentation(Tracer()):
        wrapped_scores, wrapped_error = probe()
    assert np.array_equal(wrapped_scores, plain_scores)
    assert wrapped_error == plain_error


def test_every_wrapper_is_removed_on_exit(instance):
    import repro.serve.session

    instrumentation = Instrumentation(Tracer())
    with instrumentation:
        patched = list(instrumentation._patches)
        assert repro.serve.session.threading is not threading
    assert len(patched) > 30
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{owner}.{name} still wrapped"
    assert repro.serve.session.threading is threading


def test_traced_ops_account_for_all_op_time(instance):
    tracer = Tracer()
    tracer.phase = "ops"
    ops = OpLog(tracer)
    with Instrumentation(tracer) as instrumentation:
        for _ in range(2):
            with ops.op():
                solve(instance, sparse())
    rows, op_seconds = layer_table(tracer.spans)
    assert sum(seconds for _, seconds, _ in rows) == pytest.approx(op_seconds, rel=1e-9)
    metrics = per_layer_metrics(tracer.spans, instrumentation.pool_deltas)
    assert set(metrics) == set(PER_LAYER_UNITS) - {"trace.overhead_pct"}
    assert metrics["algorithms.solves"] == 2
    assert metrics["engine.cells"] == (
        metrics["algorithms.initial_scores"] + metrics["algorithms.score_updates"]
    )
    assert metrics["scoreplane.cells_filled"] == metrics["algorithms.initial_scores"]
    assert metrics["trace.ops"] == 2
