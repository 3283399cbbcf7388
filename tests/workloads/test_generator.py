"""Tests of the workload generator (config -> SES instance)."""

import numpy as np
import pytest

from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def generator():
    return WorkloadGenerator(root_seed=11)


SMALL = ExperimentConfig(k=10, n_users=80)


class TestBuild:
    def test_materializes_paper_shapes(self, generator):
        instance = generator.build(SMALL)
        assert instance.n_users == 80
        assert instance.n_events == 20      # 2k
        assert instance.n_intervals == 15   # 3k/2
        assert instance.theta == 20.0

    def test_snapshot_is_reused_across_builds(self, generator):
        first = generator.snapshot_for(SMALL)
        generator.build(SMALL)
        assert generator.snapshot_for(SMALL) is first

    def test_snapshot_regenerated_when_too_small(self):
        generator = WorkloadGenerator(root_seed=3)
        small_snapshot = generator.snapshot_for(SMALL)
        big = ExperimentConfig(k=40, n_users=80)
        generator.build(big)
        assert generator.snapshot_for(big) is not small_snapshot

    def test_user_restriction_slices_population(self, generator):
        fewer = ExperimentConfig(k=10, n_users=30)
        instance = generator.build(fewer)
        assert instance.n_users == 30
        assert instance.interest.candidate.shape[0] == 30
        assert instance.activity.matrix.shape[0] == 30

    def test_root_seed_reproducibility(self):
        a = WorkloadGenerator(root_seed=21).build(SMALL)
        b = WorkloadGenerator(root_seed=21).build(SMALL)
        np.testing.assert_array_equal(
            a.interest.candidate, b.interest.candidate
        )
        assert [e.name for e in a.events] == [e.name for e in b.events]

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(root_seed=1).build(SMALL)
        b = WorkloadGenerator(root_seed=2).build(SMALL)
        assert (a.interest.candidate != b.interest.candidate).any()

    def test_explicit_seed_controls_instance_cut(self, generator):
        a = generator.build(SMALL, seed=7)
        b = generator.build(SMALL, seed=7)
        assert [e.name for e in a.events] == [e.name for e in b.events]

    def test_instances_are_solvable(self, generator):
        from repro.algorithms.greedy import GreedyScheduler

        instance = generator.build(SMALL)
        result = GreedyScheduler().solve(instance, 10)
        assert result.achieved_k == 10
        assert result.utility > 0


class TestCscBuild:
    def test_csc_storage_survives_restriction(self):
        from repro.workloads.config import ExperimentConfig
        from repro.workloads.generator import WorkloadGenerator

        config = ExperimentConfig(k=5, n_users=40)
        instance = WorkloadGenerator(root_seed=11).build(config, seed=2)
        assert instance.interest.candidate_sparse.format == "csc"
        assert instance.interest.candidate_sparse.shape[0] == 40
        assert instance.n_users == 40

    def test_explicit_sparse_config_builds_the_same_instance(self):
        """``interest_backend="sparse"`` (what existing callers still
        pass) changes nothing about the build."""
        import numpy as np

        from repro.workloads.config import ExperimentConfig
        from repro.workloads.generator import WorkloadGenerator

        default = WorkloadGenerator(root_seed=11).build(
            ExperimentConfig(k=5, n_users=40), seed=2
        )
        explicit = WorkloadGenerator(root_seed=11).build(
            ExperimentConfig(k=5, n_users=40, interest_backend="sparse"), seed=2
        )
        for side in ("candidate_sparse", "competing_sparse"):
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(getattr(explicit.interest, side), part),
                    getattr(getattr(default.interest, side), part),
                )
        np.testing.assert_array_equal(
            explicit.activity.matrix, default.activity.matrix
        )
