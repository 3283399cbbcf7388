"""ShardExecutor: inline and thread-pool dispatch equivalence."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.shard.executor import ShardExecutor


def make_thunks(n=6, size=32):
    rngs = [np.random.default_rng(1000 + i) for i in range(n)]
    return [lambda rng=rng: rng.standard_normal(size) for rng in rngs]


class TestConstruction:
    def test_kind_is_not_an_option(self):
        with pytest.raises(TypeError):
            ShardExecutor(workers=2, kind="thread")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            ShardExecutor(workers=0)

    def test_single_worker_collapses_to_serial(self):
        assert ShardExecutor(workers=1).kind == "serial"
        assert ShardExecutor().kind == "serial"

    def test_kind_and_workers_exposed(self):
        executor = ShardExecutor(workers=3)
        assert executor.kind == "thread"
        assert executor.workers == 3
        assert "thread" in repr(executor)


class TestMapEquivalence:
    def test_parallel_matches_serial_in_order(self):
        serial = ShardExecutor(workers=1).map(make_thunks())
        parallel = ShardExecutor(workers=3).map(make_thunks())
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_single_thunk_runs_inline(self):
        executor = ShardExecutor(workers=4)
        main = threading.get_ident()
        assert executor.map([lambda: threading.get_ident()]) == [main]

    def test_thread_map_actually_uses_the_pool(self):
        executor = ShardExecutor(workers=2)
        main = threading.get_ident()
        idents = executor.map([threading.get_ident for _ in range(4)])
        assert all(ident != main for ident in idents)

    def test_serial_map_runs_inline(self):
        executor = ShardExecutor(workers=1)
        main = threading.get_ident()
        idents = executor.map([threading.get_ident for _ in range(4)])
        assert idents == [main] * 4

    def test_empty_thunks(self):
        assert ShardExecutor(workers=3).map([]) == []

    def test_thread_pools_are_shared_per_worker_count(self):
        from repro.shard.executor import _shared_thread_pool

        assert _shared_thread_pool(2) is _shared_thread_pool(2)
        assert _shared_thread_pool(2) is not _shared_thread_pool(3)
