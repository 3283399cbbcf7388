"""ShardedEngine differential suite: P-independence and flat parity.

The two contracts under test, per the shard design:

* **bit-identical across P** — with ``block_users`` fixed, every query
  returns the *same bits* for any shard count and worker count, because
  partials always merge in ascending global block order;
* **parity with the unsharded engine** — 1e-9 relative (regrouped float
  sums over the same float64 values).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import solver_registry
from repro.core.engine import EngineSpec, SparseEngine
from repro.core.instance import SESInstance
from repro.core.scoreplane import ScorePlane
from repro.shard.engine import (
    ShardedEngine,
    _BlockInterestView,
    localize_delta,
)
from repro.shard.executor import ShardExecutor
from repro.shard.interest import ShardedInterest
from repro.shard.plan import ShardPlan

from tests.conftest import make_random_instance

pytest.importorskip("scipy")

SHARD_COUNTS = (1, 2, 7)
BLOCK_USERS = 16


def sharded(instance, shards=1, **kwargs):
    kwargs.setdefault("block_users", BLOCK_USERS)
    return ShardedEngine(instance, shards=shards, **kwargs)


@pytest.fixture(scope="module", params=["dense", "sparse"])
def instance(request) -> SESInstance:
    return make_random_instance(
        n_users=73,
        n_events=8,
        n_intervals=5,
        n_competing=6,
        seed=31,
        interest_backend=request.param,
    )


class TestBitIdenticalAcrossP:
    def test_scores_for_rows_bitwise_equal(self, instance):
        intervals, events = [0, 2, 4], list(range(8))
        baseline = sharded(instance, shards=1).scores_for_rows(
            intervals, events
        )
        for shards in SHARD_COUNTS[1:]:
            other = sharded(instance, shards=shards).scores_for_rows(
                intervals, events
            )
            assert np.array_equal(baseline, other)

    def test_all_query_surfaces_bitwise_equal(self, instance):
        engines = [sharded(instance, shards=p) for p in SHARD_COUNTS]
        for engine in engines:
            engine.assign(0, 1)
            engine.assign(3, 2)
        base = engines[0]
        for other in engines[1:]:
            assert base.score(2, 1) == other.score(2, 1)
            assert base.omega(0) == other.omega(0)
            assert base.total_utility() == other.total_utility()
            assert base.interval_utility(1) == other.interval_utility(1)
            assert base.removal_loss(0) == other.removal_loss(0)
            np.testing.assert_array_equal(
                base.removal_losses([0, 3]), other.removal_losses([0, 3])
            )
            np.testing.assert_array_equal(
                base.scores_for_event(5, [0, 1, 2]),
                other.scores_for_event(5, [0, 1, 2]),
            )
            np.testing.assert_array_equal(
                base.scores_excluding_each(2, 1, [0]),
                other.scores_excluding_each(2, 1, [0]),
            )

    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="serial"), pytest.param(3, id="thread")]
    )
    def test_executor_kind_never_changes_bits(self, instance, workers):
        baseline = sharded(instance, shards=3).scores_for_rows(
            [0, 1], list(range(8))
        )
        engine = sharded(
            instance, shards=3, executor=ShardExecutor(workers=workers)
        )
        other = engine.scores_for_rows([0, 1], list(range(8)))
        assert np.array_equal(baseline, other)

    def test_plane_fed_grd_solve_identical_across_p(self, instance):
        results = [
            solver_registry.create("grd").solve(
                instance, 4, plane=ScorePlane(sharded(instance, shards=p))
            )
            for p in SHARD_COUNTS
        ]
        for other in results[1:]:
            assert other.schedule == results[0].schedule
            assert other.utility == results[0].utility

    def test_plane_fed_grd_solve_identical_across_workers(self, instance):
        def solve(shards, workers):
            engine = sharded(
                instance, shards=shards, executor=ShardExecutor(workers=workers)
            )
            return solver_registry.create("grd").solve(
                instance, 4, plane=ScorePlane(engine)
            )

        for shards in SHARD_COUNTS:
            inline, threaded = solve(shards, 1), solve(shards, 3)
            assert threaded.schedule == inline.schedule
            assert threaded.utility == inline.utility


class TestFlatParity:
    def test_single_block_is_bit_identical_to_flat(self, instance):
        """One block == one unmodified sub-engine over all rows."""
        flat = SparseEngine(instance)
        wide = ShardedEngine(instance, shards=4, block_users=1000)
        for engine in (flat, wide):
            engine.assign(1, 0)
        intervals = [0, 1, 2, 3, 4]
        events = [e for e in range(8) if e != 1]
        assert np.array_equal(
            flat.scores_for_rows(intervals, events),
            wide.scores_for_rows(intervals, events),
        )
        assert flat.total_utility() == wide.total_utility()

    def test_multi_block_parity_1e9(self, instance):
        flat = SparseEngine(instance)
        shard = sharded(instance, shards=3)
        for engine in (flat, shard):
            engine.assign(0, 2)
            engine.assign(5, 1)
        free = [e for e in range(8) if e not in (0, 5)]
        np.testing.assert_allclose(
            flat.scores_for_rows([0, 1, 2, 3, 4], free),
            shard.scores_for_rows([0, 1, 2, 3, 4], free),
            rtol=1e-9,
            atol=1e-12,
        )
        assert flat.total_utility() == pytest.approx(
            shard.total_utility(), rel=1e-9
        )
        assert flat.omega(5) == pytest.approx(shard.omega(5), rel=1e-9)
        np.testing.assert_allclose(
            flat.removal_losses([0, 5]),
            shard.removal_losses([0, 5]),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_what_if_cycle_parity(self, instance):
        flat = SparseEngine(instance)
        shard = sharded(instance, shards=2)
        for engine in (flat, shard):
            engine.assign(0, 0)
            engine.assign(1, 0)
            engine.unassign(0)
        assert flat.total_utility() == pytest.approx(
            shard.total_utility(), rel=1e-9
        )
        assert flat.score(0, 0) == pytest.approx(shard.score(0, 0), rel=1e-9)
        shard.reset()
        flat.reset()
        assert shard.total_utility() == flat.total_utility() == 0.0


class TestShardedInterestBacked:
    @pytest.fixture(scope="class")
    def pair(self):
        flat_instance = make_random_instance(
            n_users=80, n_events=7, n_intervals=4, seed=8,
            interest_backend="sparse",
        )
        plan = ShardPlan(n_users=80, n_shards=2, block_users=BLOCK_USERS)
        interest = ShardedInterest.from_interest(flat_instance.interest, plan)
        sharded_instance = SESInstance(
            users=flat_instance.users,
            intervals=flat_instance.intervals,
            events=flat_instance.events,
            competing=flat_instance.competing,
            interest=interest,
            activity=flat_instance.activity,
            organizer=flat_instance.organizer,
        )
        return flat_instance, sharded_instance

    def test_engine_adopts_the_interest_plan(self, pair):
        _, inst = pair
        engine = ShardedEngine(inst, shards=5)
        assert engine.plan.block_users == BLOCK_USERS
        assert engine.plan.n_shards == 5

    def test_block_users_conflict_rejected(self, pair):
        _, inst = pair
        with pytest.raises(ValueError, match="cannot override"):
            ShardedEngine(inst, block_users=BLOCK_USERS + 1)

    def test_parity_1e9(self, pair):
        flat_instance, inst = pair
        flat = SparseEngine(flat_instance)
        shard = ShardedEngine(inst, shards=3)
        for engine in (flat, shard):
            engine.assign(2, 1)
        free = [e for e in range(7) if e != 2]
        np.testing.assert_allclose(
            flat.scores_for_rows([0, 1, 2, 3], free),
            shard.scores_for_rows([0, 1, 2, 3], free),
            rtol=1e-9,
            atol=1e-12,
        )
        assert flat.total_utility() == pytest.approx(
            shard.total_utility(), rel=1e-9
        )

    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="serial"), pytest.param(3, id="thread")]
    )
    def test_bit_identical_across_p(self, pair, workers):
        _, inst = pair
        executor = ShardExecutor(workers=workers)
        results = [
            ShardedEngine(inst, shards=p, executor=executor).scores_for_rows(
                [0, 1, 2, 3], list(range(7))
            )
            for p in SHARD_COUNTS
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


class TestStorageParity:
    def test_dense_and_sparse_storage_answer_the_same_bits(self):
        """Block sub-engines gather the same nonzeros in the same order
        from either storage, so a sharded engine over dense ``mu``
        answers exactly what it answers over CSC ``mu``."""
        engines = {}
        for storage in ("dense", "sparse"):
            instance = make_random_instance(
                n_users=73, n_events=8, n_intervals=5, n_competing=6,
                seed=31, interest_backend=storage,
            )
            engine = sharded(instance, shards=3)
            engine.assign(0, 1)
            engine.assign(3, 2)
            engines[storage] = engine
        dense, csc = engines["dense"], engines["sparse"]
        free = [1, 2, 4, 5, 6, 7]
        np.testing.assert_array_equal(
            dense.scores_for_rows(range(5), free),
            csc.scores_for_rows(range(5), free),
        )
        np.testing.assert_array_equal(
            dense.scores_for_event(5, range(5)), csc.scores_for_event(5, range(5))
        )
        np.testing.assert_array_equal(
            dense.removal_losses([0, 3]), csc.removal_losses([0, 3])
        )
        np.testing.assert_array_equal(
            dense.scores_excluding_each(2, 1, [0]),
            csc.scores_excluding_each(2, 1, [0]),
        )
        assert dense.total_utility() == csc.total_utility()


class TestEngineSpecIntegration:
    def test_spec_builds_sharded_engine(self, instance):
        spec = EngineSpec(kind="sparse", shards=3, block_users=BLOCK_USERS)
        engine = spec.build(instance)
        assert isinstance(engine, ShardedEngine)
        assert engine.plan.n_shards == 3
        assert all(
            isinstance(block, SparseEngine) for block in engine.block_engines
        )

    def test_workers_without_shards_rejected(self):
        with pytest.raises(ValueError, match="sharding parameters"):
            EngineSpec(kind="sparse", workers=4)
        with pytest.raises(ValueError, match="sharding parameters"):
            EngineSpec(kind="sparse", block_users=64)

    def test_reference_kind_cannot_shard(self):
        with pytest.raises(ValueError):
            EngineSpec(kind="reference", shards=2)

    def test_plain_spec_unchanged(self, instance):
        assert isinstance(EngineSpec(kind="sparse").build(instance), SparseEngine)

    def test_spec_equality_distinguishes_sharding(self):
        assert EngineSpec(kind="sparse") != EngineSpec(kind="sparse", shards=2)
        assert EngineSpec(kind="sparse", shards=2) == EngineSpec(
            kind="sparse", shards=2
        )


class TestPlaneFastPath:
    def test_cold_fill_is_one_fanout(self, instance):
        engine = sharded(instance, shards=3)
        plane = ScorePlane(engine)
        plane.ensure()
        stats = engine.stats()
        assert stats["fanouts"] == 1
        assert stats["merged_partials"] == engine.plan.n_blocks
        assert stats["blocks"] == engine.plan.n_blocks
        assert stats["shards"] == 3

    def test_cold_fill_gathers_each_column_once_per_block(
        self, instance, monkeypatch
    ):
        engine = sharded(instance, shards=2)
        gathered = []
        original = _BlockInterestView.event_column_entries

        def counting(self, event):
            gathered.append((self._block, event))
            return original(self, event)

        monkeypatch.setattr(_BlockInterestView, "event_column_entries", counting)
        ScorePlane(engine).ensure()
        assert sorted(gathered) == [
            (block, event)
            for block in range(engine.plan.n_blocks)
            for event in range(instance.n_events)
        ]

    def test_plane_matches_flat_fill(self, instance):
        flat_plane = ScorePlane(SparseEngine(instance))
        shard_plane = ScorePlane(sharded(instance, shards=2))
        np.testing.assert_allclose(
            flat_plane.ensure(), shard_plane.ensure(), rtol=1e-9, atol=1e-12
        )

    def test_dirty_refresh_is_one_more_fanout(self, instance):
        engine = sharded(instance, shards=2)
        plane = ScorePlane(engine)
        plane.ensure()
        plane.mark_dirty(1)
        plane.mark_dirty(3)
        plane.ensure()
        assert engine.stats()["fanouts"] == 2

    def test_clone_shares_layout_but_not_counters(self, instance):
        engine = sharded(instance, shards=2)
        engine.assign(0, 1)
        ScorePlane(engine).ensure()
        clone = engine.clone()
        assert clone.stats()["fanouts"] == 0
        assert clone.plan == engine.plan
        assert clone.schedule.as_mapping() == engine.schedule.as_mapping()
        assert clone.total_utility() == engine.total_utility()
        # divergence after cloning stays private
        clone.assign(4, 0)
        assert 4 not in engine.schedule.as_mapping()


class TestLocalizeDelta:
    def test_unknown_delta_type_rejected(self):
        class Rogue:
            pass

        with pytest.raises(TypeError, match="unknown live delta"):
            localize_delta(Rogue(), 0, 10)
