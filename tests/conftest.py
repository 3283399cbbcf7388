"""Shared fixtures and instance factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ActivityModel,
    CandidateEvent,
    CompetingEvent,
    InterestMatrix,
    Organizer,
    SESInstance,
    TimeInterval,
    User,
)


def make_random_instance(
    n_users: int = 12,
    n_events: int = 6,
    n_intervals: int = 4,
    n_competing: int = 5,
    n_locations: int = 3,
    theta: float = 10.0,
    xi_range: tuple[float, float] = (1.0, 4.0),
    interest_density: float = 0.5,
    seed: int = 0,
    interest_backend: str = "dense",
) -> SESInstance:
    """Random SES instance for tests; deterministic given ``seed``.

    ``interest_backend`` selects ``mu`` storage; the values are identical
    across backends, so the same seed yields numerically equal instances.
    """
    rng = np.random.default_rng(seed)
    users = [User(index=i) for i in range(n_users)]
    intervals = [TimeInterval(index=t) for t in range(n_intervals)]
    events = [
        CandidateEvent(
            index=e,
            location=int(rng.integers(n_locations)),
            required_resources=float(rng.uniform(*xi_range)),
        )
        for e in range(n_events)
    ]
    competing = [
        CompetingEvent(index=c, interval=int(rng.integers(n_intervals)))
        for c in range(n_competing)
    ]
    candidate = rng.uniform(0, 1, (n_users, n_events))
    candidate *= rng.random((n_users, n_events)) < interest_density
    rivals = rng.uniform(0, 1, (n_users, n_competing))
    rivals *= rng.random((n_users, n_competing)) < interest_density
    interest = InterestMatrix.from_arrays(candidate, rivals).to_backend(
        interest_backend
    )
    activity = ActivityModel.uniform_random(n_users, n_intervals, seed=rng)
    return SESInstance(
        users=users,
        intervals=intervals,
        events=events,
        competing=competing,
        interest=interest,
        activity=activity,
        organizer=Organizer(resources=theta),
    )


def dense_copy(instance: SESInstance) -> SESInstance:
    """``instance`` with dense ``mu`` storage, everything else shared.

    For running the reference oracle on generated (sparse-backed)
    instances: it reads ``mu`` one element at a time, which CSC storage
    makes an order of magnitude slower.
    """
    return SESInstance(
        users=instance.users,
        intervals=instance.intervals,
        events=instance.events,
        competing=instance.competing,
        interest=instance.interest.to_backend("dense"),
        activity=instance.activity,
        organizer=instance.organizer,
    )


@pytest.fixture(autouse=True)
def _plenty_of_cpus(monkeypatch: pytest.MonkeyPatch) -> None:
    """Pretend 8 CPUs are available so worker-count tests are box-independent.

    ``ShardExecutor`` clamps ``workers`` to the machine's CPU count; on a
    single-core CI box that would silently collapse every thread/process
    test to the serial kind.  Clamp-specific tests patch their own small
    values on top of this.
    """
    monkeypatch.setattr("repro.shard.executor._available_cpus", lambda: 8)


@pytest.fixture
def fsynced_inodes(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Inode numbers of every file or directory ``os.fsync`` is called on."""
    import os

    fsync = os.fsync
    inodes: list[int] = []

    def recording(fd: int) -> None:
        inodes.append(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    return inodes


@pytest.fixture
def random_instance() -> SESInstance:
    """A small but non-trivial random instance."""
    return make_random_instance(seed=42)


@pytest.fixture
def hand_instance() -> SESInstance:
    """Hand-built instance with values chosen for pencil-and-paper checks.

    2 users, 2 candidate events, 2 intervals, 1 competing event at t0.

    * ``mu``: u0 -> (e0: 0.5, e1: 0.25), u1 -> (e0: 0.0, e1: 1.0)
    * competing: u0 -> 0.5, u1 -> 0.0
    * ``sigma``: u0 -> (t0: 1.0, t1: 0.5), u1 -> (t0: 0.8, t1: 0.4)
    * distinct locations; ample resources.

    Worked example used across the attendance/scoring tests: scheduling
    e0 alone at t0 gives ``rho(u0) = 1.0 * 0.5 / (0.5 + 0.5) = 0.5`` and
    ``rho(u1) = 0.8 * 0 / 0 = 0`` (0/0 convention), so ``omega = 0.5``.
    """
    users = [User(index=0, name="alice"), User(index=1, name="bob")]
    intervals = [TimeInterval(index=0, label="mon"), TimeInterval(index=1, label="tue")]
    events = [
        CandidateEvent(index=0, location=0, required_resources=1.0, name="pop-concert"),
        CandidateEvent(index=1, location=1, required_resources=1.0, name="fashion-show"),
    ]
    competing = [CompetingEvent(index=0, interval=0, name="rival-gig")]
    interest = InterestMatrix.from_arrays(
        np.array([[0.5, 0.25], [0.0, 1.0]]),
        np.array([[0.5], [0.0]]),
    )
    activity = ActivityModel(np.array([[1.0, 0.5], [0.8, 0.4]]))
    return SESInstance(
        users=users,
        intervals=intervals,
        events=events,
        competing=competing,
        interest=interest,
        activity=activity,
        organizer=Organizer(resources=10.0),
    )


@pytest.fixture
def tight_instance() -> SESInstance:
    """Instance where feasibility truly binds: 1 location, theta for ~2 events."""
    n_users, n_events, n_intervals = 4, 4, 2
    users = [User(index=i) for i in range(n_users)]
    intervals = [TimeInterval(index=t) for t in range(n_intervals)]
    events = [
        CandidateEvent(index=e, location=0, required_resources=2.0)
        for e in range(n_events)
    ]
    rng = np.random.default_rng(5)
    interest = InterestMatrix.from_arrays(rng.uniform(0.2, 1.0, (n_users, n_events)))
    activity = ActivityModel.constant(n_users, n_intervals, 0.9)
    return SESInstance(
        users=users,
        intervals=intervals,
        events=events,
        competing=[],
        interest=interest,
        activity=activity,
        organizer=Organizer(resources=2.0),
    )
