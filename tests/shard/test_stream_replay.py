"""Live-delta replays and golden traces through the sharded engine.

Replays full delta streams (arrivals, removals, drift, rivals) against
sharded engines at P in {1, 2, 7} and checks three things: trajectories
are bit-identical across P, they match the unsharded engine to 1e-9, and
the committed golden traces replay exactly on the single-block layout
with zero hot-path freezes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineSpec
from repro.core.entities import CandidateEvent, CompetingEvent
from repro.core.live import LiveInstance
from repro.core.scoreplane import ScorePlane
from repro.stream import StreamDriver, Trace

from tests.conftest import INTEREST_INPUTS, make_random_instance
from tests.stream.golden.regenerate import CASES, build_case

GOLDEN_DIR = Path(__file__).parents[1] / "stream" / "golden"
SHARD_COUNTS = (1, 2, 7)
BLOCK_USERS = 16


def delta_script(live: LiveInstance, seed: int):
    """Apply one of each structural op; yield the deltas in order."""
    rng = np.random.default_rng(seed)
    n_users = live.n_users
    column = rng.uniform(0, 1, n_users) * (rng.random(n_users) < 0.4)
    yield live.add_event(
        CandidateEvent(
            index=live.n_events, location=0, required_resources=1.0
        ),
        column,
    )
    drift = rng.uniform(0, 1, n_users) * (rng.random(n_users) < 0.4)
    yield live.replace_event_interest(1, drift)
    rival = rng.uniform(0, 1, n_users) * (rng.random(n_users) < 0.4)
    yield live.add_competing(
        CompetingEvent(index=live.n_competing, interval=1), rival
    )
    yield live.remove_event(0)


@pytest.mark.parametrize("form", INTEREST_INPUTS)
class TestDeltaStreamParity:
    def trajectory(self, form, spec_kwargs, seed=17):
        instance = make_random_instance(
            n_users=60, n_events=6, n_intervals=4, seed=seed,
            interest_input=form,
        )
        live = LiveInstance(instance)
        spec = EngineSpec(kind="sparse", **spec_kwargs)
        engine = spec.build(live)
        engine.assign(1, 0)
        engine.assign(2, 1)
        plane = ScorePlane(engine, auto_reset=False)
        plane.ensure()
        snapshots = [plane.ensure().copy()]
        utilities = [engine.total_utility()]
        for delta in delta_script(live, seed):
            plane.apply_delta(delta)
            snapshots.append(plane.ensure().copy())
            utilities.append(engine.total_utility())
        return snapshots, utilities, live.freezes

    def test_bit_identical_across_p(self, form):
        base_snaps, base_utils, _ = self.trajectory(
            form, dict(shards=1, block_users=BLOCK_USERS)
        )
        for shards in SHARD_COUNTS[1:]:
            snaps, utils, _ = self.trajectory(
                form, dict(shards=shards, block_users=BLOCK_USERS)
            )
            assert utils == base_utils
            for a, b in zip(base_snaps, snaps):
                assert np.array_equal(a, b)

    def test_matches_unsharded_to_1e9(self, form):
        flat_snaps, flat_utils, flat_freezes = self.trajectory(form, {})
        snaps, utils, freezes = self.trajectory(
            form, dict(shards=3, block_users=BLOCK_USERS)
        )
        assert utils == pytest.approx(flat_utils, rel=1e-9, abs=1e-12)
        for a, b in zip(flat_snaps, snaps):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        assert freezes == flat_freezes == 0

    def test_single_block_replay_is_bit_identical_to_unsharded(self, form):
        flat_snaps, flat_utils, _ = self.trajectory(form, {})
        snaps, utils, _ = self.trajectory(
            form, dict(shards=2, block_users=1000)
        )
        assert utils == flat_utils
        for a, b in zip(flat_snaps, snaps):
            assert np.array_equal(a, b)


class TestGoldenReplaysSharded:
    """The committed golden traces replayed through sharded engines."""

    with (GOLDEN_DIR / "expected.json").open() as handle:
        EXPECTED = json.load(handle)

    def replay(self, name: str, shards: int, block_users: int):
        instance, _, flat_spec = build_case(name)
        trace = Trace.load(GOLDEN_DIR / f"{name}.jsonl")
        spec = EngineSpec(
            kind=flat_spec.kind, shards=shards, block_users=block_users
        )
        driver = StreamDriver(instance, policy="incremental", engine=spec)
        return driver.run(trace)

    @pytest.mark.parametrize("name", list(CASES))
    def test_single_block_matches_golden_exactly(self, name):
        result = self.replay(name, shards=2, block_users=10**6)
        expected = self.EXPECTED[name]["policies"]["incremental"]
        assert list(result.utilities) == expected["utilities"]
        assert result.final_utility == expected["final_utility"]
        assert result.final_k == expected["final_k"]
        assert result.freezes == 0

    @pytest.mark.parametrize("name", list(CASES))
    def test_multi_block_replay_p_independent_and_close(self, name):
        results = [
            self.replay(name, shards=p, block_users=BLOCK_USERS)
            for p in SHARD_COUNTS
        ]
        for other in results[1:]:
            assert list(results[0].utilities) == list(other.utilities)
            assert results[0].final_schedule == other.final_schedule
        expected = self.EXPECTED[name]["policies"]["incremental"]
        assert list(results[0].utilities) == pytest.approx(
            expected["utilities"], rel=1e-9
        )
        assert all(result.freezes == 0 for result in results)

    def test_stream_result_records_sharding(self):
        name = "sparse_a"
        payload = self.replay(name, shards=2, block_users=BLOCK_USERS).as_dict()
        assert payload["shards"] == 2
        assert payload["workers"] is None
