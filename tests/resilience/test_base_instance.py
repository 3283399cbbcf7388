"""Instance-free checkpoints: the base instance is written once and every
checkpoint's instance is derived from it and the journal prefix.

Covers the directory layout (``instance.npz`` stamped in the journal
header, checkpoints without an instance), the typed failures of the new
floor on both ``recover()`` and ``ServingSession.recover()``, and the
counters that prove checkpoints no longer freeze the live instance.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.core.errors import JournalError, RecoveryError
from repro.data.serialization import instance_to_dict, load_instance_npz
from repro.resilience import CheckpointStore, DeltaJournal, Durability, recover
from repro.resilience.base import derive_instance, load_base
from repro.serve import ServingSession
from repro.stream import StreamDriver
from repro.stream.policies import make_policy

from tests.conftest import make_random_instance
from tests.resilience.conftest import (
    ENGINE,
    GOLDEN_CASES,
    POLICY_PARAMS,
    assert_same_instance,
    golden_instance,
    golden_trace,
    mutate_serving,
    rewrite_journal,
)

KINDS = ("stream", "serve")
RECOVER = {"stream": recover, "serve": ServingSession.recover}
POLICIES = ("incremental", "periodic-rebuild", "hybrid")


def _crashed(kind, tmp_path, stop_after=9):
    """A durability directory left by a crash after ``stop_after`` records
    (checkpoints at 0, 4 and 8)."""
    durability = Durability(tmp_path / kind, checkpoint_every=4)
    if kind == "stream":
        StreamDriver(
            golden_instance("dense_a"),
            policy="incremental",
            engine=ENGINE,
            durability=durability,
        ).run(golden_trace("dense_a"), stop_after=stop_after)
    else:
        session = ServingSession(
            make_random_instance(seed=42), durability=durability
        )
        mutate_serving(session, stop_after)
        session._writer.abandon()  # the crash simulator
    return durability


def _as_previous_format(body):
    """A checkpoint body as the previous build (``ses-ckpt/2``) wrote it:
    the engine mass as ``[interval, rows, values, counts]`` number lists."""
    if "float_state" not in body:
        return body
    mass = body["float_state"]["engine"]
    stops = np.cumsum(mass["lengths"]).tolist()
    engine = [
        [interval, *(mass[name][stop - size:stop].tolist()
                     for name in ("rows", "values", "counts"))]
        for interval, size, stop in zip(
            mass["intervals"].tolist(), mass["lengths"].tolist(), stops
        )
    ]
    return dict(body, float_state=dict(body["float_state"], engine=engine))


def _recover_error(kind, durability) -> str:
    with pytest.raises(RecoveryError) as info:
        RECOVER[kind](durability)
    return str(info.value)


class TestLayout:
    @pytest.mark.parametrize("kind", KINDS)
    def test_base_is_stamped_in_the_journal_header(self, kind, tmp_path):
        durability = _crashed(kind, tmp_path)
        raw = durability.instance_path.read_bytes()
        header = DeltaJournal.scan(durability.journal_path).metadata
        assert header["base"] == {
            "bytes": len(raw),
            "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
        }
        expected = (
            golden_instance("dense_a")
            if kind == "stream"
            else make_random_instance(seed=42)
        )
        assert_same_instance(
            load_instance_npz(durability.instance_path), expected
        )

    @pytest.mark.parametrize(
        "kind, keys",
        [
            ("stream", {"kind", "offset", "schedule", "k", "locks", "engine",
                        "float_state", "policy"}),
            ("serve", {"kind", "offset", "generation"}),
        ],
    )
    def test_checkpoint_bodies_carry_no_instance(self, kind, keys, tmp_path):
        store = CheckpointStore(_crashed(kind, tmp_path).checkpoint_directory)
        assert store.offsets() == [0, 4, 8]
        for offset in store.offsets():
            assert set(store.load(offset)) == keys

    @pytest.mark.parametrize("kind", KINDS)
    def test_existing_journal_refused_before_base_is_touched(
        self, kind, tmp_path
    ):
        durability = _crashed(kind, tmp_path)
        before = durability.instance_path.read_bytes()
        with pytest.raises(JournalError, match="already exists"):
            if kind == "stream":
                StreamDriver(
                    golden_instance("dense_b"),
                    policy="incremental",
                    engine=ENGINE,
                    durability=durability,
                ).run(golden_trace("dense_b"))
            else:
                ServingSession(
                    make_random_instance(seed=7), durability=durability
                )
        assert durability.instance_path.read_bytes() == before


class TestTypedFailures:
    """Every way the base floor can fail is a RecoveryError naming it."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_base(self, kind, tmp_path):
        durability = _crashed(kind, tmp_path)
        durability.instance_path.unlink()
        message = _recover_error(kind, durability)
        assert str(durability.instance_path) in message
        assert "missing" in message

    @pytest.mark.parametrize("kind", KINDS)
    def test_flipped_byte(self, kind, tmp_path):
        durability = _crashed(kind, tmp_path)
        raw = bytearray(durability.instance_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        durability.instance_path.write_bytes(bytes(raw))
        message = _recover_error(kind, durability)
        assert str(durability.instance_path) in message
        assert "CRC32" in message

    @pytest.mark.parametrize("kind", KINDS)
    def test_truncated_base(self, kind, tmp_path):
        durability = _crashed(kind, tmp_path)
        raw = durability.instance_path.read_bytes()
        durability.instance_path.write_bytes(raw[:-10])
        message = _recover_error(kind, durability)
        assert str(durability.instance_path) in message
        assert f"{len(raw) - 10} bytes" in message

    @pytest.mark.parametrize("kind", KINDS)
    def test_directory_of_the_previous_format(self, kind, tmp_path):
        """The previous format had no instance.npz, no base stamp, and
        ``ses-ckpt/1`` checkpoints that embedded the instance."""
        durability = _crashed(kind, tmp_path)
        base = instance_to_dict(load_instance_npz(durability.instance_path))
        durability.instance_path.unlink()
        header = DeltaJournal.scan(durability.journal_path).metadata
        del header["base"]
        rewrite_journal(durability, header=header)
        for path in durability.checkpoint_directory.glob("ckpt-*.json"):
            envelope = json.loads(path.read_text())
            body = dict(envelope["body"], instance=base)
            encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
            envelope.update(
                format="ses-ckpt/1",
                body=body,
                crc=zlib.crc32(encoded.encode()) & 0xFFFFFFFF,
            )
            path.write_text(json.dumps(envelope))
        message = _recover_error(kind, durability)
        assert str(durability.instance_path) in message
        assert "ses-ckpt/1" in message

    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpoints_of_the_previous_format(self, kind, tmp_path):
        """The previous build wrote ``ses-ckpt/2`` checkpoints, float
        state as JSON numbers; recovery names the format of each one it
        skipped."""
        durability = _crashed(kind, tmp_path)
        store = CheckpointStore(durability.checkpoint_directory)
        for offset in store.offsets():
            body = _as_previous_format(store.load(offset))
            encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
            envelope = {
                "body": body,
                "crc": zlib.crc32(encoded.encode()) & 0xFFFFFFFF,
                "format": "ses-ckpt/2",
                "offset": offset,
            }
            (store.directory / f"ckpt-{offset:08d}.json").write_text(
                json.dumps(envelope)
            )
        message = _recover_error(kind, durability)
        assert "could be restored" in message
        assert message.count("has format 'ses-ckpt/2'; expected 'ses-ckpt/3'") == 3
        for offset in store.offsets():
            assert f"ckpt-{offset:08d}.json" in message

    @pytest.mark.parametrize("kind", KINDS)
    def test_damaged_checkpoints_report_why(self, kind, tmp_path):
        durability = _crashed(kind, tmp_path)
        for path in durability.checkpoint_directory.glob("ckpt-*.json"):
            raw = path.read_text()
            path.write_text(raw[: len(raw) // 2])
        message = _recover_error(kind, durability)
        assert message.count("is not valid JSON") == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_prefix_record_that_does_not_apply(self, kind, tmp_path):
        durability = _crashed(kind, tmp_path)
        records = DeltaJournal.scan(durability.journal_path).records
        op = {"op": "cancel", "time": records[2]["op"]["time"], "event": 999}
        records[2] = dict(records[2], op=op)
        rewrite_journal(durability, records=records)
        message = _recover_error(kind, durability)
        assert str(durability.journal_path) in message
        assert "record 2 " in message


class TestNoCheckpointFreezes:
    """A checkpoint never materializes the live instance."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_durable_replay_reports_zero_freezes(self, name, policy, tmp_path):
        result = StreamDriver(
            golden_instance(name),
            policy=policy,
            engine=ENGINE,
            durability=Durability(tmp_path / "ses", checkpoint_every=4),
            **POLICY_PARAMS.get(policy, {}),
        ).run(golden_trace(name))
        assert result.freezes == 0


class TestDerivedInstance:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_uninterrupted_run_at_every_checkpoint(self, name, tmp_path):
        instance, trace = golden_instance(name), golden_trace(name)
        durability = Durability(tmp_path / "ses", checkpoint_every=3)
        StreamDriver(
            instance, policy="incremental", engine=ENGINE, durability=durability
        ).run(trace)
        offsets = CheckpointStore(durability.checkpoint_directory).offsets()
        assert offsets == sorted({*range(0, len(trace) + 1, 3), len(trace)})

        # the uninterrupted run's own frozen instance at each offset
        policy = make_policy("incremental")
        policy.bind(instance, trace.initial_k, engine=ENGINE)
        expected = {0: policy.scheduler.instance}
        for index, op in enumerate(trace):
            policy.apply(op)
            expected[index + 1] = policy.scheduler.instance

        scan = DeltaJournal.scan(durability.journal_path)
        base = load_base(durability, scan.metadata)
        for offset in offsets:
            derived = derive_instance(
                base, scan.records[:offset], durability.journal_path
            )
            assert_same_instance(derived, expected[offset])


class TestRecoveredServingInstance:
    @pytest.mark.parametrize("kill_at", range(9))
    def test_matches_uninterrupted_session(self, kill_at, tmp_path):
        reference = ServingSession(make_random_instance(seed=42))
        mutate_serving(reference, kill_at)
        durability = Durability(tmp_path / "ses", checkpoint_every=3)
        crashed = ServingSession(
            make_random_instance(seed=42), durability=durability
        )
        mutate_serving(crashed, kill_at)
        crashed._writer.abandon()

        recovered = ServingSession.recover(durability)
        assert recovered.version == reference.version
        assert_same_instance(
            recovered.version_instance(), reference.version_instance()
        )
        recovered.close()
