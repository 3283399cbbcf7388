"""Crash recovery: kill-point differential tests on the golden traces.

The contract under test: kill a durable replay after *any* number of
ops, recover from the durability directory, resume the same trace — and
the final utility, schedule, and per-op trajectory must be bit-identical
to an uninterrupted run.  No float tolerance anywhere: recovery replays
deltas through the same code path, so the answer is the same bits.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import EngineSpec
from repro.core.errors import RecoveryError
from repro.resilience import CheckpointStore, Durability, recover
from repro.resilience.stream import engine_spec_from_dict, engine_spec_to_dict
from repro.serve import ServingSession
from repro.stream import StreamDriver

from tests.conftest import make_random_instance
from tests.resilience.conftest import (
    ENGINE,
    GOLDEN_CASES,
    POLICY_PARAMS,
    golden_instance,
    golden_trace,
    mutate_serving,
    restamp_engine,
)


def _run_clean(name, policy, oracle_every=None):
    driver = StreamDriver(
        golden_instance(name),
        policy=policy,
        engine=ENGINE,
        oracle_every=oracle_every,
        **POLICY_PARAMS.get(policy, {}),
    )
    return driver.run(golden_trace(name))


def _run_killed_then_recovered(
    name, policy, kill_at, tmp_path, oracle_every=None
):
    durability = Durability(tmp_path / f"{name}-{policy}-{kill_at}")
    driver = StreamDriver(
        golden_instance(name),
        policy=policy,
        engine=ENGINE,
        oracle_every=oracle_every,
        durability=durability,
        **POLICY_PARAMS.get(policy, {}),
    )
    trace = golden_trace(name)
    driver.run(trace, stop_after=kill_at)
    recovered = recover(durability)
    return recovered.resume(golden_trace(name))


def _assert_identical(clean, resumed):
    assert resumed.freezes == 0  # resuming never freezes the live instance
    assert resumed.final_utility == clean.final_utility
    assert resumed.final_schedule == clean.final_schedule
    assert resumed.final_k == clean.final_k
    assert len(resumed.records) == len(clean.records)
    for a, b in zip(clean.records, resumed.records):
        assert a.index == b.index
        assert a.label == b.label
        assert a.utility == b.utility  # exact, not approx
        assert a.schedule_size == b.schedule_size


class TestKillPointsEveryOp:
    """Incremental policy, every kill point, all three golden cases."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_every_kill_point_recovers_bit_identical(self, name, tmp_path):
        clean = _run_clean(name, "incremental")
        for kill_at in range(GOLDEN_CASES[name]["n_ops"] + 1):
            resumed = _run_killed_then_recovered(
                name, "incremental", kill_at, tmp_path
            )
            _assert_identical(clean, resumed)


class TestKillPointsOtherPolicies:
    """Stateful policies (rebuild counters, pressure) at strided kills."""

    @pytest.mark.parametrize("policy", ["periodic-rebuild", "hybrid"])
    @pytest.mark.parametrize("name", ["dense_a", "sparse_a"])
    def test_strided_kill_points(self, name, policy, tmp_path):
        clean = _run_clean(name, policy)
        n_ops = GOLDEN_CASES[name]["n_ops"]
        for kill_at in [*range(0, n_ops, 4), n_ops - 1]:
            resumed = _run_killed_then_recovered(
                name, policy, kill_at, tmp_path
            )
            _assert_identical(clean, resumed)


class TestRecoveredSessionShape:
    def test_recovered_metadata_and_offsets(self, tmp_path):
        durability = Durability(tmp_path / "ses", checkpoint_every=4)
        driver = StreamDriver(
            golden_instance("dense_b"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        )
        driver.run(golden_trace("dense_b"), stop_after=7)
        recovered = recover(durability)
        assert recovered.metadata["kind"] == "stream"
        assert recovered.offset <= 7  # buffered appends may be lost
        assert recovered.checkpoint_offset <= recovered.offset
        assert recovered.checkpoint_offset % 4 == 0
        # utility at the recovery point matches the checkpoint+tail replay
        assert recovered.utility() == recovered.policy.utility()
        recovered.writer.abandon()

    def test_recover_accepts_path_string(self, tmp_path):
        durability = Durability(tmp_path / "ses")
        StreamDriver(
            golden_instance("dense_b"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        ).run(golden_trace("dense_b"), stop_after=3)
        recovered = recover(str(tmp_path / "ses"))
        assert recovered.offset <= 3
        recovered.writer.abandon()

    def test_resume_rejects_divergent_trace(self, tmp_path):
        durability = Durability(tmp_path / "ses")
        StreamDriver(
            golden_instance("dense_a"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        ).run(golden_trace("dense_a"), stop_after=8)
        recovered = recover(durability)
        if recovered.offset == 0:
            pytest.skip("no surviving prefix to diverge from")
        with pytest.raises(RecoveryError):
            recovered.resume(golden_trace("dense_b"))
        recovered.writer.abandon()

    def test_resume_is_single_shot(self, tmp_path):
        durability = Durability(tmp_path / "ses")
        StreamDriver(
            golden_instance("dense_b"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        ).run(golden_trace("dense_b"), stop_after=3)
        recovered = recover(durability)
        recovered.resume(golden_trace("dense_b"))
        with pytest.raises(RecoveryError):
            recovered.resume(golden_trace("dense_b"))


class TestDamagedArtifacts:
    def _killed_session(self, tmp_path, stop_after=9):
        durability = Durability(tmp_path / "ses", checkpoint_every=4)
        StreamDriver(
            golden_instance("dense_a"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        ).run(golden_trace("dense_a"), stop_after=stop_after)
        return durability

    def test_newest_checkpoint_damaged_falls_back(self, tmp_path):
        durability = self._killed_session(tmp_path)
        ckpts = sorted(durability.checkpoint_directory.glob("ckpt-*.json"))
        assert len(ckpts) >= 2
        ckpts[-1].write_text(ckpts[-1].read_text()[:20])
        recovered = recover(durability)
        # still lands on a consistent state and can resume to the clean end
        clean = _run_clean("dense_a", "incremental")
        _assert_identical(clean, recovered.resume(golden_trace("dense_a")))

    def test_torn_journal_tail_is_repaired(self, tmp_path):
        durability = self._killed_session(tmp_path)
        raw = durability.journal_path.read_bytes()
        durability.journal_path.write_bytes(raw[:-5])
        recovered = recover(durability)
        clean = _run_clean("dense_a", "incremental")
        _assert_identical(clean, recovered.resume(golden_trace("dense_a")))

    def test_all_checkpoints_destroyed_raises(self, tmp_path):
        durability = self._killed_session(tmp_path)
        for path in durability.checkpoint_directory.glob("ckpt-*.json"):
            path.unlink()
        with pytest.raises(RecoveryError, match="checkpoint"):
            recover(durability)


class TestDamagedServingArtifacts:
    """The damaged-artifact cases above, against a durable serving
    session: it recovers through the same routine as a stream replay, so
    it must fall back, repair and fail the same way."""

    def _killed_session(self, tmp_path, kill_at=9):
        durability = Durability(tmp_path / "ses", checkpoint_every=4)
        crashed = ServingSession(
            make_random_instance(seed=42), durability=durability
        )
        mutate_serving(crashed, kill_at)
        crashed._writer.abandon()  # the crash simulator
        return durability

    def _assert_uninterrupted(self, recovered, n_mutations):
        reference = ServingSession(make_random_instance(seed=42))
        mutate_serving(reference, n_mutations)
        # and both keep going alike: the recovered one journals on
        for session in (reference, recovered):
            mutate_serving(session, 2, seed=100)
        assert recovered.version == reference.version == n_mutations + 2
        expected, got = reference.solve(k=4), recovered.solve(k=4)
        assert got.utility == expected.utility
        assert got.schedule.as_mapping() == expected.schedule.as_mapping()
        assert got.version == expected.version
        recovered.close()

    def test_newest_checkpoint_damaged_falls_back(self, tmp_path):
        durability = self._killed_session(tmp_path)
        ckpts = sorted(durability.checkpoint_directory.glob("ckpt-*.json"))
        assert len(ckpts) >= 2
        ckpts[-1].write_text(ckpts[-1].read_text()[:20])
        self._assert_uninterrupted(ServingSession.recover(durability), 9)

    def test_unrestorable_newest_checkpoint_falls_back(self, tmp_path):
        durability = self._killed_session(tmp_path)
        store = CheckpointStore(durability.checkpoint_directory)
        newest = store.offsets()[-1]
        store.write(newest, dict(store.load(newest), kind="stream"))
        self._assert_uninterrupted(ServingSession.recover(durability), 9)

    def test_torn_journal_tail_is_repaired(self, tmp_path):
        durability = self._killed_session(tmp_path)
        raw = durability.journal_path.read_bytes()
        durability.journal_path.write_bytes(raw[:-5])
        recovered = ServingSession.recover(durability)
        assert recovered.journal_offset == 8
        self._assert_uninterrupted(recovered, 8)

    def test_all_checkpoints_destroyed_raises(self, tmp_path):
        durability = self._killed_session(tmp_path)
        for path in durability.checkpoint_directory.glob("ckpt-*.json"):
            path.unlink()
        with pytest.raises(RecoveryError, match="checkpoint"):
            ServingSession.recover(durability)


class TestRemovedEngineKind:
    """Durability directories outlive the engines that wrote them: a
    stream journaled on a since-removed engine kind must fail recovery
    with a typed error naming the journal and the kind, not a bare
    ValueError from deep inside spec construction."""

    def test_recover_raises_recovery_error(self, tmp_path):
        durability = Durability(tmp_path / "ses", checkpoint_every=4)
        StreamDriver(
            golden_instance("dense_a"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        ).run(golden_trace("dense_a"), stop_after=9)
        restamp_engine(durability, kind="vectorized")
        with pytest.raises(RecoveryError, match="engine kind 'vectorized'") as info:
            recover(durability)
        assert str(durability.journal_path) in str(info.value)
        # the failed recovery left the journal intact and re-openable
        restamp_engine(durability, kind="sparse")
        recovered = recover(durability)
        clean = _run_clean("dense_a", "incremental")
        _assert_identical(clean, recovered.resume(golden_trace("dense_a")))


SPECS = {
    "default": EngineSpec(),
    "reference": EngineSpec("reference"),
    "sharded": EngineSpec(shards=2, workers=1, block_users=64),
}

UNDECODABLE = {
    "removed-kind": {"kind": "vectorized", "backend": None, "shards": None,
                     "workers": None, "block_users": None},
    # ``backend`` is the field specs recorded while ``mu`` had two storages
    "recorded-backend-null": {"kind": "sparse", "backend": None,
                              "shards": None, "workers": None,
                              "block_users": None},
    "recorded-backend-dense": {"kind": "sparse", "backend": "dense"},
    "recorded-backend-sparse": {"kind": "sparse", "backend": "sparse"},
    "unknown-backend": {"kind": "sparse", "backend": "csr"},
    "sharded-oracle": {"kind": "reference", "shards": 2},
    "unknown-option": {"kind": "sparse", "chunk_elements": 4096},
    "not-an-object": ["sparse"],
}


class TestEngineSpecCodec:
    """Journal headers and checkpoints record the engine spec as JSON;
    recovery must rebuild exactly that spec, or fail typed."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_round_trip_through_json(self, name, tmp_path):
        spec = SPECS[name]
        payload = json.loads(json.dumps(engine_spec_to_dict(spec)))
        assert engine_spec_from_dict(payload, tmp_path / "journal") == spec

    @pytest.mark.parametrize("name", sorted(UNDECODABLE))
    def test_undecodable_spec_is_a_recovery_error(self, name, tmp_path):
        journal = tmp_path / "journal"
        with pytest.raises(RecoveryError) as info:
            engine_spec_from_dict(UNDECODABLE[name], journal)
        assert str(journal) in str(info.value)


class TestAccumulationDrift:
    """Dense multi-event-per-interval workloads, where adopt-order drift
    is real: rebuilding engine mass by sorted re-assignment lands an ulp
    away from the live accumulation.  Checkpoints carry the float state
    bitwise, so the newest-checkpoint fast path stays exact; without
    that state recovery must fall back (ultimately to the offset-0
    full-replay floor) rather than resume from drifted bits."""

    def _dense_workload(self):
        from repro.workloads.config import ExperimentConfig
        from repro.workloads.generator import WorkloadGenerator
        from repro.workloads.traces import TraceConfig, TraceGenerator

        config = ExperimentConfig(k=24, n_users=200)
        instance = WorkloadGenerator(root_seed=2018).build(config)
        trace = TraceGenerator(
            config, TraceConfig(n_ops=12), root_seed=2018
        ).generate()
        return instance, trace, ENGINE

    def _clean(self, instance, trace, engine):
        return StreamDriver(
            instance, policy="incremental", engine=engine
        ).run(trace)

    def test_newest_checkpoint_restores_bit_exact(self, tmp_path):
        instance, trace, engine = self._dense_workload()
        clean = self._clean(instance, trace, engine)
        for kill_at in (4, 7, 8):
            durability = Durability(tmp_path / f"k{kill_at}", checkpoint_every=4)
            StreamDriver(
                instance,
                policy="incremental",
                engine=engine,
                durability=durability,
            ).run(trace, stop_after=kill_at)
            recovered = recover(durability)
            # the float-state snapshot keeps the newest checkpoint usable
            assert recovered.checkpoint_offset == (kill_at // 4) * 4
            _assert_identical(clean, recovered.resume(trace))

    def test_checkpoint_without_float_state_falls_back(self, tmp_path):
        from repro.resilience.checkpoint import CheckpointStore

        instance, trace, engine = self._dense_workload()
        clean = self._clean(instance, trace, engine)
        durability = Durability(tmp_path / "ses", checkpoint_every=4)
        StreamDriver(
            instance, policy="incremental", engine=engine, durability=durability
        ).run(trace, stop_after=8)
        # rewrite every non-floor checkpoint as an old-format one (no
        # bitwise float state): verification must reject the drifted
        # restores and recovery must land on the offset-0 floor
        store = CheckpointStore(durability.checkpoint_directory)
        for offset in store.offsets():
            if offset == 0:
                continue
            body = store.load(offset)
            body.pop("float_state")
            store.write(offset, body)
        recovered = recover(durability)
        assert recovered.checkpoint_offset == 0
        _assert_identical(clean, recovered.resume(trace))


class TestOracleSampling:
    def test_resumed_oracle_regret_matches_clean(self, tmp_path):
        clean = _run_clean("dense_b", "incremental", oracle_every=4)
        durability = Durability(tmp_path / "ses")
        StreamDriver(
            golden_instance("dense_b"),
            policy="incremental",
            engine=ENGINE,
            oracle_every=4,
            durability=durability,
        ).run(golden_trace("dense_b"), stop_after=6)
        resumed = recover(durability).resume(golden_trace("dense_b"))
        assert [r.regret for r in resumed.records] == [
            r.regret for r in clean.records
        ]
