"""DeltaJournal framing, torn-tail repair and corruption detection."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import JournalError
from repro.resilience import FSYNC_POLICIES, JOURNAL_FORMAT, DeltaJournal
from repro.resilience.journal import _frame, _parse_frame


class TestFraming:
    def test_frame_is_length_crc_json_line(self):
        line = _frame({"b": 2, "a": 1})
        length, crc, body = line.rstrip(b"\n").split(b":", 2)
        assert int(length) == len(body)
        assert len(crc) == 8
        # canonical JSON: sorted keys, no spaces
        assert body == b'{"a":1,"b":2}'

    def test_round_trip(self):
        payload = {"op": "add_event", "interest": [0.25, 0.5], "index": 3}
        assert _parse_frame(_frame(payload).rstrip(b"\n")) == payload

    def test_same_payload_same_bytes(self):
        assert _frame({"x": 1, "y": 2}) == _frame({"y": 2, "x": 1})

    @pytest.mark.parametrize(
        "line",
        [
            b"",
            b"junk",
            b"5:0000abcd",            # no body separator
            b"3:zzzzzzzz:abc",        # bad crc hex
            b"9:00000000:abc",        # wrong length
            b"3:00000000:abc",        # wrong crc
        ],
    )
    def test_bad_frames_parse_to_none(self, line):
        assert _parse_frame(line) is None

    def test_crc_mismatch_rejected(self):
        line = bytearray(_frame({"a": 1}).rstrip(b"\n"))
        line[-2] ^= 0x01  # flip a payload bit; crc no longer matches
        assert _parse_frame(bytes(line)) is None


class TestLifecycle:
    def test_create_refuses_existing(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        DeltaJournal.create(path).close()
        with pytest.raises(JournalError, match="already exists"):
            DeltaJournal.create(path)

    def test_create_fsyncs_file_and_directory(self, tmp_path, fsynced_inodes):
        path = tmp_path / "wal.jsonl"
        DeltaJournal.create(path, {"kind": "test"}).close()
        assert path.stat().st_ino in fsynced_inodes
        assert tmp_path.stat().st_ino in fsynced_inodes

    def test_direct_construction_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="create"):
            DeltaJournal(tmp_path / "wal.jsonl")

    def test_bad_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            DeltaJournal.create(tmp_path / "wal.jsonl", fsync="sometimes")
        assert FSYNC_POLICIES == ("always", "interval", "never")

    @pytest.mark.parametrize(
        "metadata, options, error",
        [
            (None, {"fsync": "sometimes"}, ValueError),
            (None, {"fsync_every": 0}, ValueError),
            ({"kind": object()}, {}, TypeError),
        ],
        ids=["fsync", "fsync_every", "header"],
    )
    def test_failed_create_leaves_no_file(
        self, tmp_path, metadata, options, error
    ):
        path = tmp_path / "wal.jsonl"
        with pytest.raises(error):
            DeltaJournal.create(path, metadata, **options)
        assert not path.exists()
        DeltaJournal.create(path, {"kind": "test"}).close()
        assert DeltaJournal.scan(path).metadata["kind"] == "test"

    def test_failure_after_open_removes_the_file(self, tmp_path, monkeypatch):
        from repro.resilience import journal as journal_module

        def unwritable(directory):
            raise OSError("directory fsync failed")

        monkeypatch.setattr(journal_module, "_fsync_directory", unwritable)
        path = tmp_path / "wal.jsonl"
        with pytest.raises(OSError, match="directory fsync"):
            DeltaJournal.create(path)
        assert not path.exists()
        monkeypatch.undo()
        DeltaJournal.create(path).close()

    def test_append_and_scan(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = DeltaJournal.create(path, {"kind": "test", "n": 7})
        assert journal.offset == 0
        for index in range(5):
            assert journal.append({"index": index}) == index + 1
        journal.close()
        scan = DeltaJournal.scan(path)
        assert scan.metadata["format"] == JOURNAL_FORMAT
        assert scan.metadata["kind"] == "test"
        assert scan.offset == 5
        assert scan.records == [{"index": i} for i in range(5)]
        assert scan.truncated_bytes == 0

    def test_append_after_close_raises(self, tmp_path):
        journal = DeltaJournal.create(tmp_path / "wal.jsonl")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append({"a": 1})

    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            DeltaJournal.scan(tmp_path / "nope.jsonl")
        with pytest.raises(JournalError, match="does not exist"):
            DeltaJournal.open(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalError, match="empty"):
            DeltaJournal.scan(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(_frame({"format": "ses-wal/999"}))
        with pytest.raises(JournalError, match="format"):
            DeltaJournal.scan(path)


class TestTornTail:
    def _write(self, path, n_records=4):
        journal = DeltaJournal.create(path, {"kind": "test"})
        for index in range(n_records):
            journal.append({"index": index})
        journal.close()
        return path.read_bytes()

    def test_truncated_tail_repaired_on_open(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        raw = self._write(path)
        path.write_bytes(raw[:-7])  # tear the last record mid-frame
        journal, scan = DeltaJournal.open(path)
        assert scan.offset == 3
        assert scan.truncated_bytes > 0
        # the file is physically repaired and appendable again
        journal.append({"index": 99})
        journal.close()
        rescan = DeltaJournal.scan(path)
        assert [r["index"] for r in rescan.records] == [0, 1, 2, 99]

    def test_abandon_simulates_crash(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = DeltaJournal.create(path, {"kind": "test"}, fsync="never")
        journal.append({"index": 0})
        journal.abandon()
        assert journal.closed
        reopened, scan = DeltaJournal.open(path)
        reopened.close()
        assert scan.offset == 1

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        raw = self._write(path)
        lines = raw.split(b"\n")
        lines[2] = b"XX" + lines[2]  # damage a middle record
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError, match="mid-file"):
            DeltaJournal.scan(path)

    def test_corrupt_header_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        raw = self._write(path)
        path.write_bytes(b"??" + raw)
        with pytest.raises(JournalError, match="header|mid-file"):
            DeltaJournal.scan(path)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        payloads=st.lists(
            st.dictionaries(
                st.text(min_size=1, max_size=6),
                st.one_of(
                    st.integers(-10**9, 10**9),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=8),
                ),
                max_size=4,
            ),
            max_size=8,
        )
    )
    def test_scan_inverts_append(self, tmp_path_factory, payloads):
        path = tmp_path_factory.mktemp("wal") / "wal.jsonl"
        journal = DeltaJournal.create(path, {"kind": "prop"})
        for payload in payloads:
            journal.append(payload)
        journal.close()
        scan = DeltaJournal.scan(path)
        assert scan.offset == len(payloads)
        # floats round-trip exactly through canonical JSON
        assert scan.records == [json.loads(json.dumps(p)) for p in payloads]

    @settings(max_examples=60, deadline=None)
    @given(
        n_records=st.integers(1, 6),
        cut=st.integers(1, 200),
    )
    def test_any_tail_truncation_is_recoverable(
        self, tmp_path_factory, n_records, cut
    ):
        """Chopping N bytes off the end never yields mid-file corruption."""
        path = tmp_path_factory.mktemp("wal") / "wal.jsonl"
        journal = DeltaJournal.create(path, {"kind": "prop"})
        for index in range(n_records):
            journal.append({"index": index, "pad": "x" * 20})
        journal.close()
        raw = path.read_bytes()
        cut = min(cut, len(raw) - 1)  # keep at least one header byte
        path.write_bytes(raw[: len(raw) - cut])
        try:
            scan = DeltaJournal.scan(path)
        except JournalError as error:
            # acceptable only when the header itself was destroyed
            assert "header" in str(error)
            return
        assert scan.offset <= n_records
        assert [r["index"] for r in scan.records] == list(range(scan.offset))
