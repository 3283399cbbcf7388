"""CheckpointStore: atomic publish, CRC verification, newest-valid-wins."""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CheckpointError
from repro.resilience import CHECKPOINT_FORMAT, CheckpointStore


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        body = {"kind": "test", "offset": 3, "values": [0.25, 0.5]}
        path = store.write(3, body)
        assert path.name == "ckpt-00000003.json"
        assert store.load(3) == body

    def test_no_tmp_litter(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.write(0, {"a": 1})
        assert not list(store.directory.glob("*.tmp-*"))

    def test_negative_offset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=">= 0"):
            CheckpointStore(tmp_path / "ckpt").write(-1, {})

    def test_missing_offset(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointStore(tmp_path / "ckpt").load(5)

    def test_file_is_the_canonical_envelope(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        body = {
            "kind": "test",
            "values": [0.1, 1e-300, 2.5],
            "nested": {"b": 1, "a": [None, "é"]},
        }
        path = store.write(11, body)
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        envelope = {
            "format": CHECKPOINT_FORMAT,
            "offset": 11,
            "crc": zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF,
            "body": body,
        }
        assert path.read_bytes() == json.dumps(
            envelope, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def test_publish_fsyncs_the_directory(self, tmp_path, fsynced_inodes):
        store = CheckpointStore(tmp_path / "ckpt")
        path = store.write(2, {"a": 1})
        assert path.stat().st_ino in fsynced_inodes
        assert store.directory.stat().st_ino in fsynced_inodes

    def test_failed_fsync_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        import os

        store = CheckpointStore(tmp_path / "ckpt")

        def broken(fd):
            raise OSError("injected fsync failure")

        monkeypatch.setattr(os, "fsync", broken)
        with pytest.raises(OSError, match="injected"):
            store.write(4, {"a": 1})
        assert list(store.directory.iterdir()) == []

    def test_envelope_fields(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        path = store.write(7, {"x": 1})
        envelope = json.loads(path.read_text())
        assert envelope["format"] == CHECKPOINT_FORMAT
        assert envelope["offset"] == 7
        assert isinstance(envelope["crc"], int)


class TestVerification:
    def _damage(self, store, offset, mutate):
        path = store.directory / f"ckpt-{offset:08d}.json"
        path.write_text(mutate(path.read_text()))

    def test_truncated_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.write(1, {"x": 1})
        self._damage(store, 1, lambda raw: raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="JSON"):
            store.load(1)

    def test_crc_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.write(1, {"x": 1})

        def corrupt(raw):
            envelope = json.loads(raw)
            envelope["body"]["x"] = 2  # body edited, crc stale
            return json.dumps(envelope)

        self._damage(store, 1, corrupt)
        with pytest.raises(CheckpointError, match="CRC"):
            store.load(1)

    def test_wrong_format(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.write(1, {"x": 1})

        def retag(raw):
            envelope = json.loads(raw)
            envelope["format"] = "ses-ckpt/999"
            return json.dumps(envelope)

        self._damage(store, 1, retag)
        with pytest.raises(CheckpointError, match="format"):
            store.load(1)

    def test_offset_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        path = store.write(1, {"x": 1})
        (store.directory / "ckpt-00000009.json").write_text(path.read_text())
        with pytest.raises(CheckpointError, match="claims offset"):
            store.load(9)


class TestNewestValid:
    def test_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path / "ckpt").newest_valid() is None

    def test_newest_wins(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        for offset in (0, 4, 8):
            store.write(offset, {"at": offset})
        assert store.newest_valid() == (8, {"at": 8})
        assert store.offsets() == [0, 4, 8]

    def test_max_offset_filters_future_checkpoints(self, tmp_path):
        """A checkpoint past the surviving journal prefix is ignored."""
        store = CheckpointStore(tmp_path / "ckpt")
        for offset in (0, 4, 8):
            store.write(offset, {"at": offset})
        assert store.newest_valid(max_offset=6) == (4, {"at": 4})
        assert store.newest_valid(max_offset=0) == (0, {"at": 0})

    def test_damaged_newest_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.write(0, {"at": 0})
        path = store.write(4, {"at": 4})
        path.write_text(path.read_text()[:10])
        assert store.newest_valid() == (0, {"at": 0})

    @settings(max_examples=40, deadline=None)
    @given(
        offsets=st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True),
        bound=st.integers(0, 50),
    )
    def test_newest_valid_matches_spec(self, tmp_path_factory, offsets, bound):
        store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
        for offset in offsets:
            store.write(offset, {"at": offset})
        eligible = [o for o in offsets if o <= bound]
        expected = (
            None if not eligible else (max(eligible), {"at": max(eligible)})
        )
        assert store.newest_valid(max_offset=bound) == expected
