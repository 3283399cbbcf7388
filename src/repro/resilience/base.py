"""Opening a durable session's directory: fresh, or after a crash.

Both session kinds open their directories here — :func:`begin_session`
for a fresh one, :func:`recover_session` for one a crash left behind —
and then commit through the
:class:`~repro.resilience.journal.DurableWriter` they hold.  The
recovery contract is the same for stream replays and serving sessions:
the newest checkpoint the surviving journal covers that restores
cleanly wins, older ones are the fallback, and the recovered session
equals an uninterrupted one after the same journaled records.

Both kinds journal the same records: each carries one change op
(:mod:`repro.stream.trace`) under ``"op"``, in its
:meth:`~repro.stream.trace.ChangeOp.to_dict` form, interest as sparse
entries.  The instance a session was bound on is written once, as
``instance.npz``, and the journal header stamps its byte length and
CRC32; checkpoints carry no instance.  Recovery verifies the base once,
then derives the instance at a checkpoint's offset by applying each
prefix record's :meth:`~repro.stream.trace.ChangeOp.apply_structure` to
a :class:`~repro.core.live.LiveInstance` — the structural step the live
session took, with no scheduling — and freezes the result once.  This
module sits outside the per-op modules the ``freeze-ban`` lint rule
guards: that freeze is the only one a durable session pays.
"""

from __future__ import annotations

import io
import zlib
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.core.errors import RecoveryError, SESError
from repro.core.instance import SESInstance
from repro.core.live import LiveInstance
from repro.data.serialization import load_instance_npz, save_instance_npz
from repro.resilience.checkpoint import CHECKPOINT_FORMAT, CheckpointStore
from repro.resilience.config import Durability
from repro.resilience.journal import DeltaJournal, DurableWriter, JournalScan
from repro.stream.trace import ChangeOp

__all__ = [
    "begin_session",
    "derive_instance",
    "journal_op",
    "load_base",
    "recover_session",
]

#: A snapshot of a session's state after ``offset`` records: a checkpoint body.
Snapshot = Callable[[int], dict[str, Any]]

#: A checkpoint's restore step: ``(offset, body, instance at offset)`` ->
#: the restored session and its :data:`Snapshot`.  It raises
#: :class:`RecoveryError` when the checkpoint does not restore.
Restore = Callable[[int, dict[str, Any], SESInstance], tuple[Any, Snapshot]]


def _stamp(raw: bytes) -> dict[str, int]:
    return {"bytes": len(raw), "crc32": zlib.crc32(raw) & 0xFFFFFFFF}


def begin_session(
    config: Durability,
    instance: SESInstance,
    metadata: dict[str, Any],
    snapshot: Snapshot,
) -> DurableWriter:
    """Start a fresh durability directory for a session bound on ``instance``.

    Refuses a directory that already holds a journal, then writes the
    base instance, the journal header (``metadata`` plus the base file's
    ``{"bytes", "crc32"}`` stamp) and the offset-0 checkpoint — the
    floor recovery stands on.  Returns the session's writer.
    """
    config.directory.mkdir(parents=True, exist_ok=True)
    DeltaJournal.refuse_existing(config.journal_path)
    save_instance_npz(instance, config.instance_path)
    header = dict(metadata, base=_stamp(config.instance_path.read_bytes()))
    journal = DeltaJournal.create(
        config.journal_path,
        header,
        fsync=config.fsync,
        fsync_every=config.fsync_every,
    )
    writer = DurableWriter(config, journal, snapshot)
    writer.checkpoint()
    return writer


def recover_session(
    config: Durability,
    kind: str,
    restorer: Callable[[JournalScan], Restore],
) -> tuple[Any, int, DurableWriter, JournalScan]:
    """Re-open the durable ``kind`` session a crash left in ``config``'s directory.

    Opens the journal (repairing a torn tail), checks its kind and
    verifies the base instance.  ``restorer(scan)`` decodes what the
    caller needs from the journal (a failure there is fatal) and returns
    its :data:`Restore` step.  Checkpoints the journal covers are tried
    newest-first: each one's instance is derived from the journal prefix
    (:func:`derive_instance`) and the restore step runs on it.  A
    damaged checkpoint (or one of another format), one of another kind,
    or a restore step raising :class:`RecoveryError` falls back to the
    next older one; when none restores, the error names why the last
    ones were skipped.  On any failure the journal is abandoned.

    Returns the restored session, its checkpoint's offset, the writer it
    commits through from here on (appending after the last intact
    journal record) and the journal's scan.
    """
    journal, scan = DeltaJournal.open(
        config.journal_path, fsync=config.fsync, fsync_every=config.fsync_every
    )
    try:
        recorded = scan.metadata.get("kind")
        if recorded != kind:
            raise RecoveryError(
                f"journal {config.journal_path} holds a {recorded!r} session, "
                f"not a {kind!r} session"
            )
        base = load_base(config, scan.metadata)
        restore = restorer(scan)
        store = CheckpointStore(config.checkpoint_directory)
        failures: list[str] = []
        bound = scan.offset
        while (
            found := store.newest_valid(max_offset=bound, skipped=failures)
        ) is not None:
            offset, body = found
            bound = offset - 1
            if body.get("kind") != kind:
                failures.append(
                    f"checkpoint at offset {offset} is not a {kind!r} checkpoint"
                )
                continue
            instance = derive_instance(
                base, scan.records[:offset], config.journal_path
            )
            try:
                session, snapshot = restore(offset, body, instance)
            except RecoveryError as error:
                failures.append(str(error))
                continue
            return session, offset, DurableWriter(config, journal, snapshot), scan
        detail = f" ({'; '.join(failures[-3:])})" if failures else ""
        raise RecoveryError(
            f"no checkpoint at or below journal offset {scan.offset} in "
            f"{config.checkpoint_directory} could be restored{detail}"
        )
    except BaseException:
        journal.abandon()
        raise


def load_base(config: Durability, metadata: dict[str, Any]) -> SESInstance:
    """Load ``instance.npz`` after checking it against the header's stamp.

    Raises :class:`RecoveryError` naming the file when the journal
    header stamps no base (a directory written before
    :data:`~repro.resilience.checkpoint.CHECKPOINT_FORMAT`), when the
    file is missing, or when its length or CRC32 differs from the stamp.
    """
    path = config.instance_path
    stamp = metadata.get("base")
    if stamp is None:
        raise RecoveryError(
            f"journal {config.journal_path} stamps no base instance "
            f"{path}: the directory was written in checkpoint format "
            f"'ses-ckpt/1', whose checkpoints embedded the instance; "
            f"this build reads only {CHECKPOINT_FORMAT!r} directories"
        )
    try:
        raw = path.read_bytes()
    except FileNotFoundError as error:
        raise RecoveryError(
            f"base instance {path} is missing; every checkpoint in "
            f"{config.directory} depends on it"
        ) from error
    found = _stamp(raw)
    if found != stamp:
        raise RecoveryError(
            f"base instance {path} fails verification: {found['bytes']} "
            f"bytes with CRC32 {found['crc32']:08x}, but the journal "
            f"header records {stamp['bytes']} bytes with CRC32 "
            f"{stamp['crc32']:08x}"
        )
    return load_instance_npz(io.BytesIO(raw))


def journal_op(record: dict[str, Any], index: int, journal: Path) -> ChangeOp:
    """The change op journal record ``index`` carries.

    A record of any other shape, such as the dense serving records of
    builds before serving sessions journaled change ops, raises
    :class:`RecoveryError` naming ``journal`` and ``index``.
    """
    try:
        return ChangeOp.from_dict(record["op"])
    except (ValueError, KeyError, TypeError) as error:
        raise RecoveryError(
            f"journal {journal} record {index} holds no change op this "
            f"build can decode: {error!r}"
        ) from error


def derive_instance(
    base: SESInstance, records: Sequence[dict[str, Any]], journal: Path
) -> SESInstance:
    """The instance after the journal prefix ``records``, derived from ``base``.

    Each record's op makes its structural change to one
    :class:`LiveInstance` (:meth:`ChangeOp.apply_structure`); the result
    is frozen once.  A record that does not decode or apply raises
    :class:`RecoveryError` naming ``journal`` and the record's index.
    """
    live = LiveInstance(base)
    for index, record in enumerate(records):
        op = journal_op(record, index, journal)
        try:
            op.apply_structure(live)
        except (SESError, ValueError, KeyError, TypeError, IndexError) as error:
            raise RecoveryError(
                f"journal {journal} record {index} does not apply to the "
                f"base instance: {error}"
            ) from error
    return live.freeze()
