"""DeltaJournal: an append-only, CRC-framed write-ahead log (``ses-wal/1``).

Durable sessions journal every applied change op *after* it commits to
the in-memory live state and *before* the caller is acknowledged; replay
of the journal through the normal delta path is therefore exactly a
replay of the acknowledged history.  The on-disk format is length- and
CRC-framed JSONL, one record per line::

    <payload-bytes>:<crc32-hex>:<canonical-json-payload>\n

where ``payload-bytes`` is the UTF-8 byte length of the JSON part and
the CRC32 is computed over those same bytes.  The first record is the
header (format tag ``ses-wal/1`` plus session metadata); every later
record is one journal entry.  Canonical JSON (sorted keys, minimal
separators) keeps the encoding deterministic: the same history always
produces byte-identical journals.

Torn tails vs. corruption
-------------------------
A crash mid-append leaves at most one partial record at the *end* of the
file.  :meth:`DeltaJournal.open` scans the frame chain and truncates
that torn tail in place — an expected, silent repair.  A record that
fails its frame or CRC while *later* records still decode is a different
animal entirely (bit rot, concurrent writers, a seek bug) and raises
:class:`~repro.core.errors.JournalError` instead of guessing.

Fsync policy
------------
``"always"`` fsyncs after every append (each acknowledged op survives a
power cut), ``"interval"`` fsyncs every ``fsync_every`` appends and on
:meth:`sync`/:meth:`close` (bounded loss window, much cheaper), and
``"never"`` leaves flushing to the OS (benchmarks).

The commit protocol
-------------------
:class:`DurableWriter` is the one writer of every durable session's
journal and checkpoints.  A session applies a change, then appends its
record, then acknowledges the caller: *apply -> journal -> ack*.  Every
``checkpoint_every`` records the writer syncs the journal before it
publishes a checkpoint, so no checkpoint outruns the durable journal.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.errors import JournalError
from repro.data.serialization import _fsync_directory
from repro.resilience.checkpoint import CheckpointStore

if TYPE_CHECKING:
    from repro.resilience.config import Durability

__all__ = [
    "JOURNAL_FORMAT",
    "FSYNC_POLICIES",
    "DeltaJournal",
    "DurableWriter",
    "JournalScan",
]

#: Format tag written into every journal header.
JOURNAL_FORMAT = "ses-wal/1"

#: Accepted fsync policies, strictest first.
FSYNC_POLICIES = ("always", "interval", "never")


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _frame(payload: dict[str, Any]) -> bytes:
    body = _canonical(payload).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%d:%08x:%s\n" % (len(body), crc, body)


def _check_fsync(fsync: str, fsync_every: int) -> None:
    if fsync not in FSYNC_POLICIES:
        raise ValueError(
            f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
        )
    if fsync_every < 1:
        raise ValueError(f"fsync_every must be positive, got {fsync_every}")


def _parse_frame(line: bytes) -> dict[str, Any] | None:
    """Decode one framed line; ``None`` when the frame is invalid/torn."""
    head, sep, rest = line.partition(b":")
    if not sep:
        return None
    crc_hex, sep, body = rest.partition(b":")
    if not sep or len(crc_hex) != 8:
        return None
    try:
        length = int(head)
        crc = int(crc_hex, 16)
    except ValueError:
        return None
    if length != len(body) or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


class JournalScan:
    """Read-only decode of a journal file (see :meth:`DeltaJournal.scan`)."""

    __slots__ = ("metadata", "records", "valid_bytes", "truncated_bytes")

    def __init__(
        self,
        metadata: dict[str, Any],
        records: list[dict[str, Any]],
        valid_bytes: int,
        truncated_bytes: int,
    ) -> None:
        self.metadata = metadata
        self.records = records
        #: Byte length of the valid header+records prefix.
        self.valid_bytes = valid_bytes
        #: Bytes of torn tail found after the valid prefix (0 when clean).
        self.truncated_bytes = truncated_bytes

    @property
    def offset(self) -> int:
        """Number of decoded journal records (the journal offset)."""
        return len(self.records)


def _scan_bytes(raw: bytes, path: Path) -> JournalScan:
    if not raw:
        raise JournalError(f"journal {path} is empty (no header record)")
    offset = 0
    frames: list[dict[str, Any]] = []
    torn_at: int | None = None
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            torn_at = offset  # unterminated final line: torn append
            break
        payload = _parse_frame(raw[offset:newline])
        if payload is None:
            torn_at = offset
            break
        frames.append(payload)
        offset = newline + 1
    if torn_at is not None:
        # only the *tail* may be torn: any decodable record after the
        # damaged line means mid-file corruption, which repair must not
        # eat.  The damaged line itself is excluded — an unterminated
        # final frame can still parse (the crash ate only the newline)
        # yet remains a torn tail
        for line in raw[torn_at:].split(b"\n")[1:]:
            if line and _parse_frame(line) is not None:
                raise JournalError(
                    f"journal {path} has a corrupt record at byte {torn_at} "
                    f"followed by valid records; refusing to truncate "
                    f"mid-file damage"
                )
    valid_bytes = offset if torn_at is None else torn_at
    if not frames:
        raise JournalError(
            f"journal {path} has no intact header record"
        )
    header = frames[0]
    if header.get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"journal {path} has format {header.get('format')!r}; "
            f"expected {JOURNAL_FORMAT!r}"
        )
    return JournalScan(
        metadata=header,
        records=frames[1:],
        valid_bytes=valid_bytes,
        truncated_bytes=len(raw) - valid_bytes,
    )


class DeltaJournal:
    """Append-only WAL of change-op payloads with torn-tail repair.

    Use :meth:`create` for a fresh journal and :meth:`open` to re-attach
    after a crash (tail repair happens there).  ``offset`` counts
    appended records, excluding the header — the same coordinate
    checkpoints are stamped with.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 8,
        _handle: Any = None,
        _metadata: dict[str, Any] | None = None,
        _offset: int = 0,
    ) -> None:
        if _handle is None:
            raise TypeError(
                "construct journals through DeltaJournal.create() or "
                "DeltaJournal.open(), not directly"
            )
        self._path = Path(path)
        self._fsync = fsync
        self._fsync_every = fsync_every
        self._handle = _handle
        self._metadata = dict(_metadata or {})
        self._offset = _offset
        self._unsynced = 0

    # -- constructors ----------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        metadata: dict[str, Any] | None = None,
        *,
        fsync: str = "interval",
        fsync_every: int = 8,
    ) -> "DeltaJournal":
        """Start a fresh journal; refuses to clobber an existing one.

        The header is fsynced, and so is the directory entry of the new
        file, so a journal that ``create`` returned survives a power cut.
        A bad policy or a header JSON cannot encode fails before the
        file is made, and any later failure removes it, so the directory
        takes a fresh ``create`` afterwards.
        """
        path = Path(path)
        cls.refuse_existing(path)
        _check_fsync(fsync, fsync_every)
        header = {"format": JOURNAL_FORMAT}
        header.update(metadata or {})
        frame = _frame(header)
        handle = open(path, "xb")  # "x": the file unlinked below is ours
        try:
            journal = cls(
                path, fsync=fsync, fsync_every=fsync_every,
                _handle=handle, _metadata=header, _offset=0,
            )
            handle.write(frame)
            journal.sync()
            _fsync_directory(path.parent)
        except BaseException:
            handle.close()
            path.unlink(missing_ok=True)
            raise
        return journal

    @staticmethod
    def refuse_existing(path: str | Path) -> None:
        """Raise :class:`JournalError` when ``path`` already holds a journal."""
        path = Path(path)
        if path.exists():
            raise JournalError(
                f"journal {path} already exists; recover() from it or "
                f"choose a fresh durability directory"
            )

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 8,
    ) -> tuple["DeltaJournal", JournalScan]:
        """Re-attach for append after a crash, repairing any torn tail.

        Returns the journal (positioned after the last intact record)
        plus the scan of the surviving records, so recovery can replay
        them without reading the file twice.
        """
        path = Path(path)
        _check_fsync(fsync, fsync_every)
        scan = cls.scan(path)
        if scan.truncated_bytes:
            with open(path, "r+b") as repair:
                repair.truncate(scan.valid_bytes)
                repair.flush()
                os.fsync(repair.fileno())
        handle = open(path, "ab")
        journal = cls(
            path, fsync=fsync, fsync_every=fsync_every,
            _handle=handle, _metadata=scan.metadata, _offset=scan.offset,
        )
        return journal, scan

    @classmethod
    def scan(cls, path: str | Path) -> JournalScan:
        """Decode a journal read-only (no repair, no file modification)."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError as exc:
            raise JournalError(f"journal {path} does not exist") from exc
        return _scan_bytes(raw, path)

    # -- introspection ---------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def offset(self) -> int:
        """Records appended so far (the checkpoint coordinate)."""
        return self._offset

    @property
    def metadata(self) -> dict[str, Any]:
        return dict(self._metadata)

    @property
    def closed(self) -> bool:
        return self._handle is None

    # -- the append path -------------------------------------------------
    def append(self, payload: dict[str, Any]) -> int:
        """Append one record; returns the new offset."""
        if self._handle is None:
            raise JournalError(f"journal {self._path} is closed")
        self._handle.write(_frame(payload))
        self._offset += 1
        self._unsynced += 1
        if self._fsync == "always" or (
            self._fsync == "interval" and self._unsynced >= self._fsync_every
        ):
            self.sync()
        return self._offset

    def sync(self) -> None:
        """Flush and fsync everything appended so far."""
        if self._handle is None:
            return
        self._handle.flush()
        if self._fsync != "never":
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        if self._handle is None:
            return
        self.sync()
        self._handle.close()
        self._handle = None

    def abandon(self) -> None:
        """Drop the handle without the final fsync — the crash simulator.

        Buffered appends are flushed to the OS (a process crash loses
        user-space buffers, not the page cache) but never fsynced, and no
        clean shutdown marker of any kind is written; :meth:`open` on the
        same path afterwards exercises exactly the post-crash repair
        path.  Used by ``stop_after`` kill-point replays.
        """
        if self._handle is None:
            return
        self._handle.flush()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "DeltaJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else f"offset={self._offset}"
        return f"DeltaJournal({str(self._path)!r}, {state})"


class DurableWriter:
    """The commit side of a durable session: its journal and checkpoints.

    ``snapshot(offset)`` returns the checkpoint body of the session's
    state after ``offset`` journal records.
    """

    def __init__(
        self,
        config: "Durability",
        journal: DeltaJournal,
        snapshot: Callable[[int], dict[str, Any]],
    ) -> None:
        self._journal = journal
        self._store = CheckpointStore(config.checkpoint_directory)
        self._checkpoint_every = config.checkpoint_every
        self._snapshot = snapshot

    @property
    def offset(self) -> int:
        """Records journaled so far."""
        return self._journal.offset

    @property
    def closed(self) -> bool:
        return self._journal.closed

    def checkpoint(self) -> None:
        """Sync the journal, then publish a checkpoint at its offset."""
        # journal first: a published checkpoint must never claim records
        # the journal could still lose to a crash
        self._journal.sync()
        offset = self._journal.offset
        self._store.write(offset, self._snapshot(offset))

    def append(self, payload: dict[str, Any]) -> None:
        """Journal one applied change; checkpoint when the cadence comes due."""
        if self._journal.append(payload) % self._checkpoint_every == 0:
            self.checkpoint()

    def close(self) -> None:
        """Seal the session: a final checkpoint, then close the journal."""
        if self._journal.closed:
            return
        self.checkpoint()
        self._journal.close()

    def abandon(self) -> None:
        """Drop the journal as a process crash would (see
        :meth:`DeltaJournal.abandon`): no checkpoint, no fsync."""
        self._journal.abandon()
