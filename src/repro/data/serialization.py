"""JSON round-tripping of SES instances and schedules.

Pipelines need reproducible artifacts: a workload generator run once can be
frozen to disk and re-solved later (or shipped as a bug report).  The
format is plain JSON — entity lists plus matrices — favoring transparency
over compactness; full-scale Meetup matrices belong in ``.npz``
(see :func:`save_instance_npz`) rather than JSON.

Interest matrices serialize in a *canonical explicit-zero-free*
coordinate form: parallel ``rows`` / ``cols`` / ``values`` lists in CSC
order (sorted by column, then row) with zero entries dropped.  Two equal
matrices always produce byte-identical payloads regardless of how they
were assembled, and the round trip reconstructs CSC storage without ever
materializing a dense array.  The ``.npz`` variant stores the raw CSC
component arrays (``data`` / ``indices`` / ``indptr``) for the same
guarantee at binary scale.

Files written before CSC became the only ``mu`` storage may hold dense
interest instead: nested value lists in JSON, ``interest_candidate`` /
``interest_competing`` arrays in ``.npz``.  Both loaders still read them
and convert to CSC.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np
from scipy import sparse as _sp

from repro.core.activity import ActivityModel
from repro.core.errors import SerializationError
from repro.core.entities import (
    CandidateEvent,
    CompetingEvent,
    Organizer,
    TimeInterval,
    User,
)
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.schedule import Assignment, Schedule

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "save_instance_npz",
    "load_instance_npz",
    "save_sharded_instance",
    "load_sharded_instance",
    "schedule_to_dict",
    "schedule_from_dict",
]

_FORMAT_VERSION = 1

#: The one block storage of the sharded directory format: float64 CSC.
_SHARD_STORAGE = "csc"


def _fsync_directory(directory: Path) -> None:
    """Make the entries just created or renamed in ``directory`` durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, write_body) -> None:
    """Write ``path`` via a fsynced tmp sibling + ``os.replace``.

    A crash mid-save leaves either the previous artifact or nothing with
    the final name — never a torn file that a later load half-parses —
    and the parent directory is fsynced after the rename, so the new
    name itself survives a power cut.  A failed write or fsync removes
    its tmp sibling.  ``write_body`` receives the open binary tmp handle.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            write_body(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def instance_to_dict(instance: SESInstance) -> dict:
    """Serialize an instance to a JSON-compatible dict."""
    payload = _entities_to_dict(instance)
    payload["interest"] = _interest_to_dict(instance.interest)
    payload["activity"] = instance.activity.matrix.tolist()
    return payload


def _entities_to_dict(instance: SESInstance) -> dict:
    """Everything :func:`instance_to_dict` writes except the two matrices
    (the binary formats store those as arrays)."""
    return {
        "format_version": _FORMAT_VERSION,
        "organizer": {
            "name": instance.organizer.name,
            "resources": instance.organizer.resources,
        },
        "users": [
            {"index": u.index, "name": u.name, "tags": sorted(u.tags)}
            for u in instance.users
        ],
        "intervals": [
            {
                "index": t.index,
                "label": t.label,
                "start": t.start,
                "end": t.end,
            }
            for t in instance.intervals
        ],
        "events": [
            {
                "index": e.index,
                "name": e.name,
                "location": e.location,
                "required_resources": e.required_resources,
                "tags": sorted(e.tags),
            }
            for e in instance.events
        ],
        "competing": [
            {
                "index": c.index,
                "name": c.name,
                "interval": c.interval,
                "tags": sorted(c.tags),
            }
            for c in instance.competing
        ],
    }


def _interest_to_dict(interest: InterestMatrix) -> dict:
    # a sharded matrix exposes the same canonical COO and flattens to this
    # payload (the block structure survives only in the directory format —
    # save_sharded_instance)
    return {
        "backend": "sparse",
        "n_users": interest.n_users,
        "n_events": interest.n_events,
        "n_competing": interest.n_competing,
        "candidate": _coo_to_dict(*interest.candidate_coo()),
        "competing": _coo_to_dict(*interest.competing_coo()),
    }


def _coo_to_dict(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> dict:
    return {
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "values": values.tolist(),
    }


def _interest_from_dict(payload: dict | InterestMatrix) -> InterestMatrix:
    if not isinstance(payload, dict):  # pre-built by the npz/sharded loaders
        return payload
    if payload.get("backend", "dense") != "sparse":  # legacy dense payload
        return InterestMatrix.from_arrays(
            np.asarray(payload["candidate"], dtype=float),
            np.asarray(payload["competing"], dtype=float),
        )
    n_users = payload["n_users"]

    def matrix(entry: dict, n_columns: int):
        return _sp.coo_matrix(
            (
                np.asarray(entry["values"], dtype=float),
                (
                    np.asarray(entry["rows"], dtype=np.intp),
                    np.asarray(entry["cols"], dtype=np.intp),
                ),
            ),
            shape=(n_users, n_columns),
        )

    return InterestMatrix.from_scipy(
        matrix(payload["candidate"], payload["n_events"]),
        matrix(payload["competing"], payload["n_competing"]),
    )


def instance_from_dict(payload: dict) -> SESInstance:
    """Rebuild an instance from :func:`instance_to_dict` output."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported instance format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    users = [
        User(index=u["index"], name=u["name"], tags=frozenset(u["tags"]))
        for u in payload["users"]
    ]
    intervals = [
        TimeInterval(
            index=t["index"], label=t["label"], start=t["start"], end=t["end"]
        )
        for t in payload["intervals"]
    ]
    events = [
        CandidateEvent(
            index=e["index"],
            name=e["name"],
            location=e["location"],
            required_resources=e["required_resources"],
            tags=frozenset(e["tags"]),
        )
        for e in payload["events"]
    ]
    competing = [
        CompetingEvent(
            index=c["index"],
            name=c["name"],
            interval=c["interval"],
            tags=frozenset(c["tags"]),
        )
        for c in payload["competing"]
    ]
    interest = _interest_from_dict(payload["interest"])
    activity = ActivityModel(np.asarray(payload["activity"], dtype=float))
    organizer = Organizer(
        resources=payload["organizer"]["resources"],
        name=payload["organizer"]["name"],
    )
    return SESInstance(
        users=users,
        intervals=intervals,
        events=events,
        competing=competing,
        interest=interest,
        activity=activity,
        organizer=organizer,
    )


def save_instance(instance: SESInstance, path: str | Path) -> None:
    """Write an instance to ``path`` as JSON (atomically: tmp + rename)."""
    payload = json.dumps(instance_to_dict(instance)).encode("utf-8")
    _atomic_write(Path(path), lambda handle: handle.write(payload))


def load_instance(path: str | Path) -> SESInstance:
    """Read an instance previously written by :func:`save_instance`."""
    with open(path, encoding="utf-8") as handle:
        return instance_from_dict(json.load(handle))


def save_instance_npz(instance: SESInstance, path: str | Path) -> None:
    """Compact binary variant: matrices in ``.npz``, metadata in JSON inside.

    Preferred for large instances — a full Meetup-scale interest matrix is
    hundreds of MB as JSON text but compresses well as float arrays.
    Interest is stored as raw CSC component arrays (``data`` /
    ``indices`` / ``indptr``), so neither saving nor loading materializes
    a dense matrix.
    """
    metadata = _entities_to_dict(instance)
    arrays: dict[str, np.ndarray] = {
        "activity": instance.activity.matrix,
    }
    interest = instance.interest
    metadata["interest_backend"] = "sparse"
    for name, csc in (
        ("candidate", interest.candidate_sparse),
        ("competing", interest.competing_sparse),
    ):
        arrays[f"interest_{name}_data"] = csc.data
        arrays[f"interest_{name}_indices"] = csc.indices
        arrays[f"interest_{name}_indptr"] = csc.indptr
        arrays[f"interest_{name}_shape"] = np.asarray(csc.shape)
    # np.savez_compressed appends ".npz" to bare string paths; normalize
    # first so the atomic tmp/rename dance targets the real final name
    final = Path(path)
    if final.suffix != ".npz":
        final = final.with_name(final.name + ".npz")
    _atomic_write(
        final,
        lambda handle: np.savez_compressed(
            handle,
            metadata=np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
            **arrays,
        ),
    )


def load_instance_npz(path: str | Path | BinaryIO) -> SESInstance:
    """Read an instance previously written by :func:`save_instance_npz`
    from a path or an open binary file."""
    with np.load(path) as archive:
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        if metadata.pop("interest_backend", "dense") == "sparse":
            def csc(name: str):
                return _sp.csc_matrix(
                    (
                        archive[f"interest_{name}_data"],
                        archive[f"interest_{name}_indices"],
                        archive[f"interest_{name}_indptr"],
                    ),
                    shape=tuple(archive[f"interest_{name}_shape"]),
                )

            interest = InterestMatrix.from_scipy(csc("candidate"), csc("competing"))
            metadata["interest"] = interest
        else:  # legacy dense arrays
            metadata["interest"] = {
                "candidate": archive["interest_candidate"],
                "competing": archive["interest_competing"],
            }
        metadata["activity"] = archive["activity"]
        # reuse the dict loader; arrays pass through np.asarray unchanged
        return instance_from_dict(metadata)


def save_sharded_instance(instance: SESInstance, directory: str | Path) -> None:
    """Write a sharded-interest instance as a directory of block files.

    Layout::

        manifest.json              # entities, plan, "storage": "csc"
        activity.npy
        candidate_block00000.npz   # CSC components of one block
        competing_block00000.npz   # ... one pair per accumulation block

    Unlike the flat ``.npz`` format this never concatenates blocks, so a
    10^6-user instance saves without pulling its interest matrix into one
    array.  Users with default names/tags are stored as a bare count — a
    million-user roster is one JSON integer, not a million dicts.

    Every file is written through :func:`_atomic_write` (fsynced tmp
    sibling + rename), and the manifest is the commit point: it lands
    last, so a directory with a manifest has every file it references on
    disk, durably.
    """
    from repro.shard.interest import ShardedInterest

    interest = instance.interest
    if not isinstance(interest, ShardedInterest):
        raise ValueError(
            "save_sharded_instance requires a ShardedInterest-backed "
            f"instance; got {type(interest).__name__}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    metadata = _entities_to_dict(instance)
    if all(u["name"] == "" and not u["tags"] for u in metadata["users"]):
        metadata["users"] = {"count": len(metadata["users"])}
    plan = interest.plan
    manifest = {
        "format_version": _FORMAT_VERSION,
        "storage": _SHARD_STORAGE,
        "plan": {
            "n_users": plan.n_users,
            "n_shards": plan.n_shards,
            "block_users": plan.block_users,
            "seed": plan.seed,
        },
        "metadata": metadata,
    }
    _atomic_write(
        directory / "activity.npy",
        lambda handle: np.save(handle, instance.activity.matrix),
    )
    for name, block_of in (
        ("candidate", interest.candidate_block),
        ("competing", interest.competing_block),
    ):
        for index in range(plan.n_blocks):
            _atomic_write(
                directory / f"{name}_block{index:05d}.npz",
                lambda handle, block=block_of(index): np.savez(
                    handle,
                    data=block.data,
                    indices=block.indices,
                    indptr=block.indptr,
                    shape=np.asarray(block.shape),
                ),
            )
    manifest_bytes = json.dumps(manifest).encode("utf-8")
    _atomic_write(
        directory / "manifest.json",
        lambda handle: handle.write(manifest_bytes),
    )


def load_sharded_instance(directory: str | Path) -> SESInstance:
    """Read a directory written by :func:`save_sharded_instance`.

    Each block is checked as it loads: CSC structure (scipy's full
    ``check_format``: index bounds, monotone ``indptr``) and values in
    ``[0, 1]`` without NaN.  A block, ``manifest.json`` or
    ``activity.npy`` that is unreadable or fails a check raises
    :class:`SerializationError` naming its file, as does a manifest with
    another format version or block storage.
    """
    from repro.shard.interest import ShardedInterest, check_block
    from repro.shard.plan import ShardPlan

    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise SerializationError(
            f"sharded instance at {directory} has no manifest.json — the "
            "save did not complete (the manifest is written last, as the "
            "commit point)"
        )
    with _reading(manifest_path):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise SerializationError(
            f"sharded instance at {directory} has format version "
            f"{version!r}; this build reads version {_FORMAT_VERSION}"
        )
    storage = manifest.get("storage")
    if storage != _SHARD_STORAGE:
        raise SerializationError(
            f"sharded instance at {directory} stores {storage!r} blocks; "
            f"this build reads only float64 CSC blocks ({_SHARD_STORAGE!r})"
        )
    with _reading(manifest_path):
        plan = ShardPlan(**manifest["plan"])
    expected = ["activity.npy"] + [
        f"{name}_block{index:05d}.npz"
        for name in ("candidate", "competing")
        for index in range(plan.n_blocks)
    ]
    missing = [name for name in expected if not (directory / name).is_file()]
    if missing:
        raise SerializationError(
            f"sharded instance at {directory} is missing "
            f"{len(missing)} file(s) its manifest references: "
            f"{', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else "")
        )

    def blocks(name: str) -> list:
        out = []
        for index in range(plan.n_blocks):
            path = directory / f"{name}_block{index:05d}.npz"
            with _reading(path):
                with np.load(path) as parts:
                    csc = _sp.csc_matrix(
                        (parts["data"], parts["indices"], parts["indptr"]),
                        shape=tuple(parts["shape"]),
                    )
                csc.check_format(full_check=True)
                check_block(csc, "the block")
            out.append(csc)
        return out

    interest = ShardedInterest(plan, blocks("candidate"), blocks("competing"))
    metadata = manifest["metadata"]
    if isinstance(metadata["users"], dict):
        metadata["users"] = [
            {"index": index, "name": "", "tags": []}
            for index in range(metadata["users"]["count"])
        ]
    metadata["interest"] = interest
    with _reading(directory / "activity.npy"):
        metadata["activity"] = np.load(directory / "activity.npy")
    return instance_from_dict(metadata)


@contextlib.contextmanager
def _reading(path: Path) -> Iterator[None]:
    """Raise a failure to read or decode ``path`` as a
    :class:`SerializationError` naming the file."""
    try:
        yield
    except (
        OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile,
    ) as error:
        raise SerializationError(
            f"sharded instance file {path} is unreadable or corrupt: {error}"
        ) from error


def schedule_to_dict(schedule: Schedule) -> dict:
    """Serialize a schedule as an assignment list."""
    return {
        "format_version": _FORMAT_VERSION,
        "assignments": [
            {"event": a.event, "interval": a.interval} for a in schedule
        ],
    }


def schedule_from_dict(payload: dict, instance: SESInstance) -> Schedule:
    """Rebuild a schedule against ``instance``."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported schedule format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    return Schedule(
        instance,
        (
            Assignment(event=row["event"], interval=row["interval"])
            for row in payload["assignments"]
        ),
    )
