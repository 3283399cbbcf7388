"""CheckpointStore: atomic publish, CRC verification, binary arrays,
newest-valid-wins."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CheckpointError
from repro.resilience import CHECKPOINT_FORMAT, CheckpointStore

from tests.core.test_engine import residue_engines


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload) -> int:
    return zlib.crc32(_canonical(payload).encode("utf-8")) & 0xFFFFFFFF


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


class TestBinaryArrays:
    """Body arrays are stored as dtype + base64 inside the canonical
    envelope, and come back bit for bit."""

    def _assert_same_bits(self, loaded, original):
        little = original.dtype.newbyteorder("<")
        assert loaded.dtype == little
        assert loaded.shape == original.shape
        assert loaded.tobytes() == original.astype(little).tobytes()

    def test_arrays_round_trip_bit_for_bit(self, tmp_path):
        residue, _ = residue_engines()
        subnormal = np.nextafter(0.0, 1.0)
        edges = np.array([-0.0, 0.0, 1e-300, subnormal, -subnormal, np.inf])
        body = {
            "mass": residue.export_mass_state(),
            "edges": edges,
            "nested": [{"flags": np.array([True, False])}, 7],
            "matrix": np.arange(6, dtype=np.int64).reshape(2, 3),
            "big_endian": np.array([1.5, -2.25, -0.0], dtype=">f8"),
        }
        assert body["mass"]["values"][0] < 0.0  # the negative residue
        store = CheckpointStore(tmp_path / "ckpt")
        store.write(5, body)
        loaded = store.load(5)
        for name, array in body["mass"].items():
            self._assert_same_bits(loaded["mass"][name], array)
        self._assert_same_bits(loaded["edges"], edges)
        assert np.signbit(loaded["edges"][0])
        self._assert_same_bits(loaded["nested"][0]["flags"], body["nested"][0]["flags"])
        assert loaded["nested"][1] == 7
        self._assert_same_bits(loaded["matrix"], body["matrix"])
        self._assert_same_bits(loaded["big_endian"], body["big_endian"])
        np.testing.assert_array_equal(loaded["big_endian"], body["big_endian"])

    def test_arrays_are_binary_inside_the_canonical_envelope(self, tmp_path):
        values = np.array([0.1, 1e-300, -2.5])
        path = CheckpointStore(tmp_path / "ckpt").write(3, {"values": values})
        envelope = json.loads(path.read_text())
        stored = envelope["body"]["values"]["__ndarray__"]
        assert stored["dtype"] == "<f8" and stored["shape"] == [3]
        assert envelope["crc"] == _crc(envelope["body"])
        assert path.read_bytes() == _canonical(envelope).encode("utf-8")

    def test_flipped_base64_character_fails_the_crc(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        path = store.write(1, {"values": np.linspace(0.0, 1.0, 32)})
        raw = path.read_text()
        payload = json.loads(raw)["body"]["values"]["__ndarray__"]["base64"]
        at = raw.index(payload) + len(payload) // 2
        flipped = "B" if raw[at] == "A" else "A"
        path.write_text(raw[:at] + flipped + raw[at + 1:])
        with pytest.raises(CheckpointError, match="CRC"):
            store.load(1)

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("base64", lambda data: data[:-4]),  # 15 bytes: no whole float64s
            ("dtype", lambda dtype: "|O"),  # pointers, not values
            ("shape", lambda shape: [3]),
        ],
        ids=["truncated", "object-dtype", "shape"],
    )
    def test_undecodable_array_with_a_valid_crc(self, field, damage, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        path = store.write(2, {"values": np.array([0.25, 0.5])})
        envelope = json.loads(path.read_text())
        stored = envelope["body"]["values"]["__ndarray__"]
        stored[field] = damage(stored[field])
        envelope["crc"] = _crc(envelope["body"])
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="undecodable array"):
            store.load(2)

    @pytest.mark.parametrize("array", [np.array(["a"]), np.array([None])])
    def test_non_numeric_arrays_are_refused(self, array, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(TypeError, match="numeric arrays"):
            store.write(0, {"x": array})
        assert store.offsets() == []

    def test_previous_format_is_refused_by_name(self, tmp_path):
        """A ``ses-ckpt/2`` file, float state as JSON number lists."""
        store = CheckpointStore(tmp_path / "ckpt")
        body = {"float_state": {"engine": [[0, [0], [-1.1e-16], [1]]]}}
        envelope = {
            "body": body, "crc": _crc(body), "format": "ses-ckpt/2", "offset": 4,
        }
        (store.directory / "ckpt-00000004.json").write_text(_canonical(envelope))
        with pytest.raises(CheckpointError, match="'ses-ckpt/2'.*'ses-ckpt/3'"):
            store.load(4)


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

    def test_skipped_checkpoints_report_why(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.write(0, {"at": 0})
        path = store.write(4, {"at": 4})
        path.write_text(path.read_text()[:10])
        store.write(9, {"at": 9})
        skipped: list[str] = []
        assert store.newest_valid(max_offset=8, skipped=skipped) == (0, {"at": 0})
        [reason] = skipped
        assert "ckpt-00000004.json" in reason and "JSON" in reason

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
