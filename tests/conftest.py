"""Shared fixtures and instance factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

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


#: The forms tests hand ``mu`` to :class:`InterestMatrix` in: numpy
#: arrays, and scipy COO with explicit zeros and duplicate entries
#: (:func:`messy_coo`).  Both convert to the same CSC storage.
INTEREST_INPUTS = ("array", "coo")


def messy_coo(array: np.ndarray) -> sparse.coo_matrix:
    """``array`` as an unsorted scipy COO matrix that is far from canonical.

    Every nonzero is stored as two duplicate entries, its two halves, and
    every third zero cell as an explicit ``0.0`` entry, all in shuffled
    order.  The halves sum back to the value exactly, so a boundary that
    sums duplicates, drops zeros and sorts indices recovers ``array``'s
    CSC form bit for bit.
    """
    array = np.asarray(array, dtype=float)
    rows, cols = np.nonzero(array)
    halves = array[rows, cols] * 0.5
    zero_rows, zero_cols = np.nonzero(
        (array == 0.0)
        & (np.add.outer(np.arange(array.shape[0]), np.arange(array.shape[1])) % 3 == 0)
    )
    all_rows = np.concatenate([rows, rows, zero_rows])
    all_cols = np.concatenate([cols, cols, zero_cols])
    values = np.concatenate(
        [halves, array[rows, cols] - halves, np.zeros(zero_rows.size)]
    )
    order = np.random.default_rng(0).permutation(values.size)
    return sparse.coo_matrix(
        (values[order], (all_rows[order], all_cols[order])), shape=array.shape
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
    interest_input: str = "array",
) -> SESInstance:
    """Random SES instance for tests; deterministic given ``seed``.

    ``interest_input`` (one of :data:`INTEREST_INPUTS`) is the form ``mu``
    is handed to :class:`InterestMatrix` in; the stored values are the
    same either way, so the same seed yields identical instances.
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
    if interest_input == "coo":
        candidate, rivals = messy_coo(candidate), messy_coo(rivals)
    interest = InterestMatrix.from_arrays(candidate, rivals)
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


def with_interest_input(instance: SESInstance, form: str) -> SESInstance:
    """``instance`` with its ``mu`` handed to :class:`InterestMatrix` again
    in ``form`` (one of :data:`INTEREST_INPUTS`), everything else shared.

    For generated workloads, whose interest is mined straight into CSC:
    the rebuilt instance stores the same CSC, so every answer over it
    must be the same bits.
    """
    candidate = instance.interest.candidate
    competing = instance.interest.competing
    if form == "coo":
        candidate, competing = messy_coo(candidate), messy_coo(competing)
    return SESInstance(
        users=instance.users,
        intervals=instance.intervals,
        events=instance.events,
        competing=instance.competing,
        interest=InterestMatrix.from_arrays(candidate, competing),
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
def interest_copies(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Names of the matrices :class:`InterestMatrix` copies from here on:
    every input that is not handed over as storage goes through
    ``_canonical_copy``."""
    import repro.core.interest as interest

    names: list[str] = []
    copy = interest._canonical_copy

    def counting(matrix: object, name: str) -> object:
        names.append(name)
        return copy(matrix, name)

    monkeypatch.setattr(interest, "_canonical_copy", counting)
    return names


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
