"""synthesize_sharded_instance: block-wise synthesis without densifying."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineSpec
from repro.workloads.generator import synthesize_sharded_instance

pytest.importorskip("scipy")

SHAPE = dict(n_events=9, n_intervals=4, density=0.05)


class TestDeterminism:
    def test_independent_of_shard_count(self):
        a = synthesize_sharded_instance(
            3000, shards=1, block_users=256, seed=3, **SHAPE
        )
        b = synthesize_sharded_instance(
            3000, shards=7, block_users=256, seed=3, **SHAPE
        )
        assert np.array_equal(a.interest.candidate, b.interest.candidate)
        assert np.array_equal(a.interest.competing, b.interest.competing)
        assert np.array_equal(a.activity.matrix, b.activity.matrix)
        assert a.events == b.events
        assert a.competing == b.competing

    def test_seed_changes_everything(self):
        a = synthesize_sharded_instance(500, block_users=128, seed=1, **SHAPE)
        b = synthesize_sharded_instance(500, block_users=128, seed=2, **SHAPE)
        assert not np.array_equal(a.interest.candidate, b.interest.candidate)
        assert not np.array_equal(a.activity.matrix, b.activity.matrix)

    def test_same_seed_reproduces(self):
        a = synthesize_sharded_instance(500, block_users=128, seed=4, **SHAPE)
        b = synthesize_sharded_instance(500, block_users=128, seed=4, **SHAPE)
        assert np.array_equal(a.interest.candidate, b.interest.candidate)


class TestShape:
    def test_instance_is_valid_and_sharded(self):
        inst = synthesize_sharded_instance(
            700, shards=3, block_users=128, seed=0, **SHAPE
        )
        assert inst.n_users == 700
        assert inst.n_events == SHAPE["n_events"]
        assert inst.n_intervals == SHAPE["n_intervals"]
        assert inst.interest.backend == "sharded"
        assert inst.interest.plan.n_blocks == 6

    def test_density_controls_nnz(self):
        inst = synthesize_sharded_instance(
            2000, block_users=512, seed=0, n_events=10, n_intervals=3,
            density=0.02,
        )
        expected = 2000 * 10 * 0.02
        assert 0.5 * expected < inst.interest.nnz_candidate() < 2 * expected

    def test_density_validation(self):
        with pytest.raises(ValueError, match="density"):
            synthesize_sharded_instance(100, density=0.0)
        with pytest.raises(ValueError, match="density"):
            synthesize_sharded_instance(100, density=1.5)

    def test_competing_round_robin_over_intervals(self):
        inst = synthesize_sharded_instance(
            300, block_users=128, seed=0, n_events=4, n_intervals=3,
            competing_per_interval=2, density=0.05,
        )
        assert len(inst.competing) == 6
        intervals = [rival.interval for rival in inst.competing]
        assert sorted(intervals) == [0, 0, 1, 1, 2, 2]

    def test_xi_capped_by_theta(self):
        inst = synthesize_sharded_instance(
            200, block_users=128, seed=0, n_events=6, n_intervals=3,
            density=0.05, theta=2.0, xi_range=(1.0, 5.0),
        )
        assert all(e.required_resources <= 2.0 for e in inst.events)


class TestStorage:
    def test_blocks_are_float64_csc(self):
        inst = synthesize_sharded_instance(
            600, shards=2, block_users=256, seed=6, **SHAPE
        )
        for index in range(inst.interest.plan.n_blocks):
            for block in (
                inst.interest.candidate_block(index),
                inst.interest.competing_block(index),
            ):
                assert block.format == "csc" and block.dtype == np.float64
        with pytest.raises(TypeError):
            synthesize_sharded_instance(600, storage="csc")

    def test_synthesized_instance_solves_with_parity(self):
        inst = synthesize_sharded_instance(
            800, shards=2, block_users=256, seed=9, **SHAPE
        )
        flat = inst.interest.to_interest("sparse")
        from repro.core.instance import SESInstance

        flat_inst = SESInstance(
            users=inst.users,
            intervals=inst.intervals,
            events=inst.events,
            competing=inst.competing,
            interest=flat,
            activity=inst.activity,
            organizer=inst.organizer,
        )
        shard_engine = EngineSpec(kind="sparse", shards=3).build(inst)
        flat_engine = EngineSpec(kind="sparse").build(flat_inst)
        np.testing.assert_allclose(
            shard_engine.scores_for_rows([0, 1, 2, 3], list(range(9))),
            flat_engine.scores_for_rows([0, 1, 2, 3], list(range(9))),
            rtol=1e-9,
            atol=1e-12,
        )
