"""The base instance of a durable session: written once, replayed forward.

A durability directory holds the instance its session was bound on
exactly once, as ``instance.npz`` (written by
:func:`~repro.data.serialization.save_instance_npz`), and the journal
header stamps that file's byte length and CRC32.  Checkpoints carry no
instance.  Recovery loads and verifies the base once, then derives the
instance at a checkpoint's offset by applying the journal records before
that offset to a :class:`~repro.core.live.LiveInstance` through the same
mutators the live session used — structure only, with no engine, plane
or scoring work — and freezes the result once.

The derivation lives here, outside the per-op modules the ``freeze-ban``
lint rule guards: recovery's single freeze is the only one a durable
session pays.
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
from repro.resilience.checkpoint import CHECKPOINT_FORMAT
from repro.resilience.config import Durability
from repro.resilience.journal import DeltaJournal

__all__ = ["create_journal", "derive_instance", "load_base"]


def _stamp(raw: bytes) -> dict[str, int]:
    return {"bytes": len(raw), "crc32": zlib.crc32(raw) & 0xFFFFFFFF}


def create_journal(
    config: Durability, instance: SESInstance, metadata: dict[str, Any]
) -> DeltaJournal:
    """Start a fresh durability directory for a session bound on ``instance``.

    Refuses a directory that already holds a journal, writes the base
    instance atomically, then writes the journal header with
    ``metadata`` plus the base file's ``{"bytes", "crc32"}`` stamp.
    """
    config.directory.mkdir(parents=True, exist_ok=True)
    DeltaJournal.refuse_existing(config.journal_path)
    save_instance_npz(instance, config.instance_path)
    header = dict(metadata, base=_stamp(config.instance_path.read_bytes()))
    return DeltaJournal.create(
        config.journal_path,
        header,
        fsync=config.fsync,
        fsync_every=config.fsync_every,
    )


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


def derive_instance(
    base: SESInstance,
    records: Sequence[dict[str, Any]],
    apply: Callable[[LiveInstance, dict[str, Any]], object],
    journal: Path,
) -> SESInstance:
    """The instance after the journal prefix ``records``, derived from ``base``.

    ``apply`` makes each record's structural change to one
    :class:`LiveInstance`; the result is frozen once.  A record that
    does not apply raises :class:`RecoveryError` naming ``journal`` and
    the record's index.
    """
    live = LiveInstance(base)
    for index, payload in enumerate(records):
        try:
            apply(live, payload)
        except (SESError, ValueError, KeyError, TypeError, IndexError) as error:
            raise RecoveryError(
                f"journal {journal} record {index} does not apply to the "
                f"base instance: {error}"
            ) from error
    return live.freeze()
