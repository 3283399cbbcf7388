"""Durability: the one knob durable sessions take.

``Durability(path)`` names a directory that will hold::

    instance.npz                     # the base instance, written once
    wal.jsonl                        # write-ahead journal, ses-wal/1
    checkpoints/ckpt-<offset>.json   # instance-free checkpoints, ses-ckpt/3

The journal header records the byte length and CRC32 of
``instance.npz``; every checkpoint stands on that file plus the journal
prefix before its offset.  Checkpoints are JSON with their arrays (a
stream's engine float state) in binary; a checkpoint of an older format
is skipped, and recovery names its format when none is left.
:class:`~repro.stream.driver.StreamDriver` and
:class:`~repro.serve.session.ServingSession` both accept it and commit
through the same :class:`~repro.resilience.journal.DurableWriter`;
recovery (:func:`repro.resilience.recover` /
``ServingSession.recover``, one routine underneath) needs only the
directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.resilience.journal import FSYNC_POLICIES

__all__ = ["Durability"]


@dataclass(frozen=True)
class Durability:
    """Configuration of a durable session's journal + checkpoint cadence.

    Parameters
    ----------
    path:
        Directory for the journal and checkpoints.  Created on first
        use; a directory already holding a journal is rejected at bind
        time (recover from it instead of silently appending).
    checkpoint_every:
        Journal records between checkpoints.  A checkpoint at offset 0
        (the initial state) is always written, so recovery replays at
        most ``checkpoint_every`` ops plus whatever followed the last
        checkpoint.
    fsync:
        Journal fsync policy — ``"always"``, ``"interval"`` (every
        ``fsync_every`` appends; the default) or ``"never"``.
        Checkpoints always sync the journal first, so a published
        checkpoint never outruns the durable journal prefix.
    fsync_every:
        Append interval for the ``"interval"`` policy.
    """

    path: str | Path
    checkpoint_every: int = 16
    fsync: str = "interval"
    fsync_every: int = 8

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync!r}; "
                f"choose from {FSYNC_POLICIES}"
            )
        if self.fsync_every < 1:
            raise ValueError(
                f"fsync_every must be positive, got {self.fsync_every}"
            )

    @property
    def directory(self) -> Path:
        return Path(self.path)

    @property
    def instance_path(self) -> Path:
        return self.directory / "instance.npz"

    @property
    def journal_path(self) -> Path:
        return self.directory / "wal.jsonl"

    @property
    def checkpoint_directory(self) -> Path:
        return self.directory / "checkpoints"
