"""Integration tests: the full pipeline EBSN -> instance -> solvers -> report."""

import numpy as np
import pytest

from repro.algorithms import (
    AnnealingScheduler,
    GreedyScheduler,
    LazyGreedyScheduler,
    LocalSearchRefiner,
    RandomScheduler,
    TopKScheduler,
)
from repro.core.feasibility import is_schedule_feasible
from repro.data.serialization import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.ebsn.generator import EBSNConfig, MeetupStyleGenerator
from repro.data.meetup import InstanceBuildParams, build_instance
from repro.harness.report import format_figure
from repro.harness.runner import run_sweep
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.sweeps import sweep_k

from tests.conftest import dense_copy


@pytest.fixture(scope="module")
def pipeline_instance():
    """A mid-size instance built through the real EBSN pipeline."""
    snapshot = MeetupStyleGenerator(
        EBSNConfig(n_users=250, n_groups=20, n_events=400)
    ).generate(seed=17)
    params = InstanceBuildParams(
        n_candidate_events=30, n_intervals=20,
        mean_competing_per_interval=5.0, n_locations=8,
    )
    return build_instance(snapshot, params, seed=18)


class TestFullPipeline:
    def test_all_solvers_complete(self, pipeline_instance):
        k = 15
        solvers = [
            GreedyScheduler(),
            LazyGreedyScheduler(),
            TopKScheduler(),
            RandomScheduler(seed=0),
            AnnealingScheduler(seed=1, steps=300),
        ]
        for solver in solvers:
            result = solver.solve(pipeline_instance, k)
            assert result.achieved_k == k, solver.name
            assert is_schedule_feasible(pipeline_instance, result.schedule)
            assert result.utility > 0

    def test_refinement_chain(self, pipeline_instance):
        """RAND -> local search -> never worse; GRD -> LS -> never worse."""
        k = 12
        rand = RandomScheduler(seed=3).solve(pipeline_instance, k)
        refiner = LocalSearchRefiner(seed=4, max_rounds=5)
        improved = refiner.refine_result(pipeline_instance, rand)
        assert improved.utility >= rand.utility - 1e-9

        grd = GreedyScheduler().solve(pipeline_instance, k)
        polished = refiner.refine_result(pipeline_instance, grd)
        assert polished.utility >= grd.utility - 1e-9

    def test_serialization_through_the_pipeline(self, pipeline_instance):
        payload = instance_to_dict(pipeline_instance)
        rebuilt = instance_from_dict(payload)
        result = GreedyScheduler().solve(rebuilt, 10)
        schedule_payload = schedule_to_dict(result.schedule)
        restored = schedule_from_dict(schedule_payload, pipeline_instance)
        from repro.core.objective import total_utility

        assert total_utility(pipeline_instance, restored) == pytest.approx(
            result.utility, abs=1e-9
        )

    def test_engines_agree_at_pipeline_scale(self, pipeline_instance):
        sparse = GreedyScheduler().solve(pipeline_instance, 8)
        # the oracle reads mu one element at a time: give it dense storage
        ref = GreedyScheduler(engine="reference").solve(
            dense_copy(pipeline_instance), 8
        )
        # schedules may diverge on float-level score ties, utilities may not
        assert sparse.utility == pytest.approx(ref.utility, abs=1e-6)


class TestSweepIntegration:
    def test_mini_sweep_produces_reportable_table(self):
        base = ExperimentConfig(n_users=60)
        table = run_sweep(
            sweep_k((5, 10), base=base), x_label="k", title="mini", root_seed=2
        )
        text = format_figure(table)
        assert "mini" in text
        assert "GRD" in text
        # utilities grow with k for every method on these easy instances
        for method in table.methods():
            _, ys = table.series(method)
            assert ys[0] <= ys[1] + 1e-9

    def test_workload_generator_shares_snapshot_across_sweep(self):
        generator = WorkloadGenerator(root_seed=5)
        base = ExperimentConfig(n_users=60)
        sweep = sweep_k((5, 10), base=base)
        run_sweep(
            sweep, x_label="k", root_seed=5, workload=generator
        )
        # the largest config (k=10) sized the pool; the k=5 build reused it
        snapshot = generator.snapshot_for(sweep[0][1])
        assert snapshot.network.n_events >= sweep[0][1].required_pool_events
