"""Sharded primaries behind the serving PlanePool's single-writer lock."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineSpec
from repro.core.entities import CompetingEvent
from repro.core.live import LiveInstance
from repro.serve.pool import PlanePool
from repro.shard.engine import ShardedEngine

from tests.conftest import make_random_instance

FLAT = EngineSpec(kind="sparse")
SHARDED = EngineSpec(kind="sparse", shards=2, block_users=16)


@pytest.fixture
def pool():
    instance = make_random_instance(
        n_users=50, n_events=6, n_intervals=4, seed=12,
    )
    return PlanePool(LiveInstance(instance))


class TestShardedPrimaries:
    def test_replica_matrix_matches_flat_spec(self, pool):
        with pool.lease(FLAT) as flat, pool.lease(SHARDED) as shard:
            np.testing.assert_allclose(
                flat.plane.ensure(),
                shard.plane.ensure(),
                rtol=1e-9,
                atol=1e-12,
            )
            assert isinstance(shard.plane.engine, ShardedEngine)

    def test_write_keeps_sharded_primary_warm(self, pool):
        with pool.lease(SHARDED) as replica:
            before = replica.plane.ensure().copy()

        def mutate(live):
            rng = np.random.default_rng(3)
            column = rng.uniform(0, 1, live.n_users)
            return live.add_competing(
                CompetingEvent(index=live.n_competing, interval=1), column
            )

        pool.write(mutate)
        with pool.lease(FLAT) as flat, pool.lease(SHARDED) as shard:
            after_flat = flat.plane.ensure()
            after_shard = shard.plane.ensure()
        np.testing.assert_allclose(
            after_flat, after_shard, rtol=1e-9, atol=1e-12
        )
        assert not np.array_equal(before, after_shard)

    def test_replicas_fork_without_cold_cells(self, pool):
        for _ in range(3):
            with pool.lease(SHARDED):
                pass
        assert pool.stats().replica_cold_cells == 0

    def test_generation_invalidation_applies_to_sharded(self, pool):
        replica = pool.acquire(SHARDED)
        generation = replica.generation
        pool.release(replica)
        pool.write(
            lambda live: live.add_competing(
                CompetingEvent(index=live.n_competing, interval=0),
                np.zeros(live.n_users),
            )
        )
        fresh = pool.acquire(SHARDED)
        assert fresh.generation == generation + 1
        assert not fresh.pool_hit
        pool.release(fresh)


class TestPrimaryStats:
    def test_keys_and_shard_counters(self, pool):
        with pool.lease(FLAT), pool.lease(SHARDED):
            pass
        stats = pool.primary_stats()
        assert set(stats) == {"sparse", "sparse@2"}
        assert "fanouts" not in stats["sparse"]
        sharded = stats["sparse@2"]
        assert sharded["fanouts"] == 1  # one cold fill, one fan-out
        assert sharded["shards"] == 2
        assert sharded["merged_partials"] >= sharded["blocks"]
        assert sharded["cells_filled"] > 0

    def test_empty_before_any_lease(self, pool):
        assert pool.primary_stats() == {}
