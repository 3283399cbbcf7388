"""Atomic checkpoints of durable-session state (``ses-ckpt/3``).

A checkpoint is a snapshot of a durable session's state *apart from the
instance* — schedule, locks, policy state and the bitwise float state
for a stream; the pool generation for a serving session — stamped with
the journal offset it was taken at.  The instance is never in it: the
session's base instance is written once, as ``instance.npz`` next to
the journal, and recovery derives the instance at a checkpoint's offset
by replaying the journal prefix onto it (:mod:`repro.resilience.base`),
so a checkpoint costs O(schedule), not O(instance).

A body is canonical JSON except for its numpy arrays (a stream's engine
mass state): each one is stored as its little-endian dtype, its shape
and the base64 of its bytes, so float state is written and read back
bit for bit without a decimal encoding of every value.  Files of any
other format, the JSON-number ``ses-ckpt/2`` included, are refused by
name.

Files are written atomically (temp sibling + ``os.replace`` + directory
fsync), so a crash mid-checkpoint leaves either the previous checkpoint
set or the new one, never a torn file; the payload additionally embeds a
CRC32 over its canonical body so a damaged file is *detected* and
skipped rather than trusted.

Recovery policy: newest-valid-wins among checkpoints whose offset does
not exceed the journal's surviving record count (a checkpoint may claim
ops a torn journal tail lost only if fsync discipline was violated; the
filter makes recovery robust to that too).  Checkpoint files are named
``ckpt-<offset:08d>.json`` so the newest is a filename sort away.
"""

from __future__ import annotations

import base64
import json
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.errors import CheckpointError
from repro.data.serialization import _atomic_write

__all__ = ["CHECKPOINT_FORMAT", "CheckpointStore"]

#: Format tag embedded in every checkpoint file.
CHECKPOINT_FORMAT = "ses-ckpt/3"

#: The one key of the JSON object that stands for an array in a body.
_ARRAY_KEY = "__ndarray__"

#: Array kinds a checkpoint stores: bool, signed and unsigned int, float.
_ARRAY_KINDS = "biuf"


def _encode_arrays(value: Any) -> Any:
    """``value`` with every ndarray replaced by its binary JSON form."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in _ARRAY_KINDS:
            raise TypeError(
                f"checkpoints store numeric arrays only, got dtype {value.dtype}"
            )
        little = value.astype(value.dtype.newbyteorder("<"), copy=False)
        return {
            _ARRAY_KEY: {
                "base64": base64.b64encode(little.tobytes()).decode("ascii"),
                "dtype": little.dtype.str,
                "shape": list(little.shape),
            }
        }
    if isinstance(value, dict):
        return {key: _encode_arrays(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_arrays(item) for item in value]
    return value


def _decode_arrays(value: Any) -> Any:
    """Inverse of :func:`_encode_arrays`: read-only arrays over the
    decoded bytes.  A malformed array raises ``KeyError``,
    ``TypeError`` or ``ValueError``."""
    if isinstance(value, dict):
        if len(value) == 1 and _ARRAY_KEY in value:
            array = value[_ARRAY_KEY]
            dtype = np.dtype(array["dtype"])
            if dtype.kind not in _ARRAY_KINDS:
                raise ValueError(f"checkpoints store no {dtype} arrays")
            raw = base64.b64decode(array["base64"], validate=True)
            return np.frombuffer(raw, dtype=dtype).reshape(array["shape"])
        return {key: _decode_arrays(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_arrays(item) for item in value]
    return value


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(encoded: str) -> int:
    return zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF


class CheckpointStore:
    """A directory of numbered, atomic, CRC-verified checkpoints."""

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        return self._directory

    def _path_for(self, offset: int) -> Path:
        return self._directory / f"ckpt-{offset:08d}.json"

    # -- writing ---------------------------------------------------------
    def write(self, offset: int, body: dict[str, Any]) -> Path:
        """Publish a checkpoint for journal ``offset`` atomically.

        The body is wrapped in an envelope carrying the format tag and a
        CRC32 of the canonical body encoding; the file lands via temp
        sibling + ``os.replace`` and the directory entry is fsynced, so
        a reader either sees a complete, verifiable checkpoint or none.
        The body is encoded once, its ndarrays in binary: the envelope
        is the canonical encoding of ``{"body", "crc", "format",
        "offset"}`` built around it.
        """
        if offset < 0:
            raise ValueError(f"checkpoint offset must be >= 0, got {offset}")
        encoded = _canonical(_encode_arrays(body))
        # the keys in sorted order, so the text equals _canonical(envelope)
        text = (
            f'{{"body":{encoded},"crc":{_crc(encoded)},'
            f'"format":{json.dumps(CHECKPOINT_FORMAT)},"offset":{offset}}}'
        ).encode("utf-8")
        path = self._path_for(offset)
        _atomic_write(path, lambda handle: handle.write(text))
        return path

    # -- reading ---------------------------------------------------------
    def offsets(self) -> list[int]:
        """Offsets of all checkpoint files present, ascending (unverified)."""
        out = []
        for path in self._directory.glob("ckpt-*.json"):
            stem = path.stem[len("ckpt-"):]
            if stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def load(self, offset: int) -> dict[str, Any]:
        """Decode and verify the checkpoint at ``offset``.

        Body arrays come back as read-only ndarrays of their stored
        dtype.  Raises :class:`CheckpointError` when the file is
        missing, torn, fails its CRC, holds an undecodable array, or
        carries another format tag (older formats included).
        """
        path = self._path_for(offset)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise CheckpointError(f"no checkpoint at offset {offset}") from exc
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON") from exc
        if not isinstance(envelope, dict):
            raise CheckpointError(f"checkpoint {path} is not an object")
        if envelope.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {path} has format {envelope.get('format')!r}; "
                f"expected {CHECKPOINT_FORMAT!r}"
            )
        body = envelope.get("body")
        if not isinstance(body, dict):
            raise CheckpointError(f"checkpoint {path} has no body")
        if _crc(_canonical(body)) != envelope.get("crc"):
            raise CheckpointError(f"checkpoint {path} fails its CRC check")
        if envelope.get("offset") != offset:
            raise CheckpointError(
                f"checkpoint {path} claims offset {envelope.get('offset')!r}"
            )
        try:
            return _decode_arrays(body)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path} holds an undecodable array: {exc}"
            ) from exc

    def newest_valid(
        self,
        max_offset: int | None = None,
        skipped: list[str] | None = None,
    ) -> tuple[int, dict[str, Any]] | None:
        """The newest verifiable checkpoint with offset <= ``max_offset``.

        Damaged candidates are skipped (newest-valid-wins), each one's
        error appended to ``skipped`` when given; ``None`` when no
        checkpoint survives at all.
        """
        for offset in reversed(self.offsets()):
            if max_offset is not None and offset > max_offset:
                continue
            try:
                return offset, self.load(offset)
            except CheckpointError as error:
                if skipped is not None:
                    skipped.append(str(error))
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({str(self._directory)!r})"
