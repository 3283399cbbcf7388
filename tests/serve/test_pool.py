"""PlanePool lifecycle: leases, generation invalidation, LRU bounds.

The invariant under test everywhere: a lease can observe exactly the
generation it was forked at — a mutated pool never hands back (or
silently reuses) a stale replica — while replica forks stay O(cells)
copies (``replica_cold_cells`` == 0 through arbitrary churn).
"""

import math

import numpy as np
import pytest

from repro.api import EngineSpec, solver_registry
from repro.core.entities import CompetingEvent
from repro.core.live import LiveInstance
from repro.serve import PlanePool

from tests.conftest import make_random_instance


def grd_solve(instance, k, plane):
    result = solver_registry.create("grd").solve(instance, k, plane=plane)
    return result.utility, tuple(sorted(result.schedule.as_mapping().items()))


def add_rival(pool, seed=0):
    """Commit one rival announcement through the pool's writer path."""
    rng = np.random.default_rng(seed)

    def mutate(live):
        rival = CompetingEvent(
            index=live.n_competing, interval=int(rng.integers(live.n_intervals))
        )
        return live.add_competing(rival, rng.random(live.n_users))

    return pool.write(mutate)


@pytest.fixture
def pool():
    instance = make_random_instance(
        n_users=26, n_events=7, n_intervals=5, n_competing=4, seed=2024
    )
    return PlanePool(LiveInstance(instance), max_replicas=8)


class TestLeaseEconomics:
    def test_first_lease_forks_release_then_hit(self, pool):
        replica = pool.acquire("sparse")
        assert not replica.pool_hit
        assert replica.generation == 0
        pool.release(replica)
        again = pool.acquire("sparse")
        assert again is replica
        assert again.pool_hit
        stats = pool.stats()
        assert (stats.forks, stats.hits) == (1, 1)

    def test_concurrent_leases_get_distinct_replicas(self, pool):
        a = pool.acquire("sparse")
        b = pool.acquire("sparse")
        assert a is not b
        assert a.plane is not b.plane
        assert pool.stats().forks == 2

    def test_specs_never_share_planes(self, pool):
        a = pool.acquire("sparse")
        b = pool.acquire("reference")
        assert a.plane is not b.plane
        assert type(a.plane.engine) is not type(b.plane.engine)

    def test_lease_context_manager_releases(self, pool):
        with pool.lease("sparse") as replica:
            assert replica.generation == 0
        assert pool.acquire("sparse") is replica

    def test_replicas_solve_warm_with_zero_cold_cells(self, pool):
        frozen = pool.version_instance()
        fingerprints = set()
        for _ in range(4):
            with pool.lease("sparse") as replica:
                fingerprints.add(grd_solve(replica.frozen, 3, replica.plane))
        cold = solver_registry.create("grd").solve(frozen, 3)
        assert fingerprints == {
            (
                cold.utility,
                tuple(sorted(cold.schedule.as_mapping().items())),
            )
        }
        assert pool.stats().replica_cold_cells == 0


class TestGenerationInvalidation:
    def test_fork_then_mutate_invalidates_parked_replicas(self, pool):
        replica = pool.acquire("sparse")
        pool.release(replica)
        add_rival(pool)
        stats = pool.stats()
        assert stats.generation == 1
        assert stats.invalidations == 1
        fresh = pool.acquire("sparse")
        assert fresh is not replica
        assert fresh.generation == 1
        assert not fresh.pool_hit

    def test_outstanding_lease_survives_write_then_retires(self, pool):
        replica = pool.acquire("sparse")
        before = replica.frozen
        add_rival(pool)
        # the in-flight read still solves safely against its own version
        fingerprint = grd_solve(replica.frozen, 3, replica.plane)
        assert replica.frozen is before
        cold = solver_registry.create("grd").solve(before, 3)
        assert fingerprint == (
            cold.utility,
            tuple(sorted(cold.schedule.as_mapping().items())),
        )
        pool.release(replica)  # stale on return: retired, not parked
        assert pool.stats().invalidations == 1
        assert pool.acquire("sparse") is not replica

    def test_mutated_pool_serves_the_new_version_warm(self, pool):
        with pool.lease("sparse") as replica:
            grd_solve(replica.frozen, 3, replica.plane)
        add_rival(pool, seed=9)
        with pool.lease("sparse") as replica:
            assert replica.generation == 1
            warm = grd_solve(replica.frozen, 3, replica.plane)
        cold = solver_registry.create("grd").solve(pool.version_instance(), 3)
        assert warm == (
            cold.utility,
            tuple(sorted(cold.schedule.as_mapping().items())),
        )
        assert pool.stats().replica_cold_cells == 0

    def test_version_instance_cached_per_generation(self, pool):
        first = pool.version_instance()
        assert pool.version_instance() is first
        add_rival(pool)
        second = pool.version_instance()
        assert second is not first
        assert second.n_competing == first.n_competing + 1

    def test_write_returns_the_delta(self, pool):
        delta = add_rival(pool)
        assert delta.competing == 4  # the fixture instance has 4 rivals


class TestWaitBound:
    """``max_wait_s`` fails at the boundary: NaN and negative values raise
    a ValueError naming it before the lock is taken, ``inf`` is no bound."""

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -0.5, -math.inf])
    def test_bad_wait_rejected(self, pool, bad):
        with pytest.raises(ValueError, match="max_wait_s"):
            pool.acquire("sparse", max_wait_s=bad)
        assert pool.stats().forks == 0

    def test_inf_waits_without_bound(self, pool):
        replica = pool.acquire("sparse", max_wait_s=math.inf)
        assert (replica.generation, replica.staleness) == (0, 0)
        pool.release(replica)
        with pool.lease("sparse", max_wait_s=math.inf) as again:
            assert again is replica


class TestBoundedReuse:
    def test_lru_reclaim_under_small_bound(self):
        instance = make_random_instance(
            n_users=20, n_events=5, n_intervals=4, seed=77
        )
        pool = PlanePool(LiveInstance(instance), max_replicas=2)
        leased = [pool.acquire("sparse") for _ in range(4)]
        for replica in leased:
            pool.release(replica)
        stats = pool.stats()
        assert stats.evictions == 2
        # the survivors are the two most recently released
        assert pool.acquire("sparse") is leased[3]
        assert pool.acquire("sparse") is leased[2]
        assert pool.acquire("sparse") not in leased

    def test_max_replicas_must_be_positive(self):
        instance = make_random_instance(n_users=10, n_events=3, seed=5)
        with pytest.raises(ValueError, match="positive"):
            PlanePool(LiveInstance(instance), max_replicas=0)

    def test_evicted_replicas_keep_cold_cell_accounting(self):
        instance = make_random_instance(
            n_users=20, n_events=5, n_intervals=4, seed=78
        )
        pool = PlanePool(LiveInstance(instance), max_replicas=1)
        for replica in [pool.acquire("sparse") for _ in range(3)]:
            pool.release(replica)
        assert pool.stats().evictions == 2
        assert pool.stats().replica_cold_cells == 0


class TestStats:
    def test_as_dict_roundtrips_every_counter(self, pool):
        with pool.lease("sparse"):
            pass
        payload = pool.stats().as_dict()
        assert payload["forks"] == 1
        assert set(payload) == {
            "forks",
            "hits",
            "invalidations",
            "evictions",
            "rebuilds",
            "generation",
            "freezes",
            "replica_cold_cells",
            "degraded",
            "writer_stalls",
        }

    def test_generation_zero_needs_no_freeze(self, pool):
        """The source instance doubles as generation 0's snapshot: serving
        an unmutated pool costs zero O(instance) freezes."""
        with pool.lease("sparse") as replica:
            grd_solve(replica.frozen, 3, replica.plane)
        assert pool.stats().freezes == 0

    def test_template_rebuilt_once_per_generation(self, pool):
        for _ in range(3):
            with pool.lease("sparse"):
                pass
        assert pool.stats().rebuilds == 1
        add_rival(pool)
        with pool.lease("sparse"):
            pass
        assert pool.stats().rebuilds == 2
