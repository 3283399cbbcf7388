"""Build SES instances from EBSN snapshots — the paper's preprocessing step.

Given a generated (or, in principle, real) EBSN, this builder performs the
paper's Section IV.A pipeline:

1. sample **candidate events** from the network's event pool (they carry
   their organizing group's tags and a venue-derived location);
2. sample **competing events** from the *remaining* pool and pin each to a
   candidate interval (density controlled by a per-interval count
   distribution — the paper uses a uniform distribution with mean 8.1);
3. compute ``mu`` as **Jaccard similarity** between user tags and event
   tags, for candidate and competing events alike, mined straight into
   CSC storage (no dense ``(users, events)`` array is materialized);
4. attach ``sigma`` either as ``U[0, 1]`` (the paper's experimental
   setting) or estimated from the snapshot's **check-in history** (the
   pipeline the paper describes);
5. draw each event's required resources and set the organizer capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.activity import ActivityModel
from repro.core.entities import (
    CandidateEvent,
    CompetingEvent,
    Organizer,
    TimeInterval,
    User,
)
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.ebsn.generator import GeneratedEBSN
from repro.ebsn.jaccard import jaccard_matrix_sparse
from repro.utils.rng import ensure_rng

__all__ = ["InstanceBuildParams", "build_instance"]


@dataclass(frozen=True)
class InstanceBuildParams:
    """Parameters of the EBSN -> SES conversion (paper Section IV.A).

    Attributes
    ----------
    n_candidate_events:
        ``|E|``; the paper uses ``2k``.
    n_intervals:
        ``|T|``; the paper sweeps ``k/5 .. 3k`` with default ``3k/2``.
    mean_competing_per_interval:
        Mean of the uniform per-interval competing-event count
        (8.1 in the paper, measured on Meetup).
    n_locations:
        Venues available to the organizer (25 in the paper); candidate
        events are mapped onto this many distinct locations.
    theta:
        Organizer resources per interval (20 in the paper).
    xi_range:
        Required resources are drawn ``U[xi_range]`` — the paper uses
        ``[1, 20/3]``.
    sigma_source:
        ``"uniform"`` for the paper's ``U[0, 1]`` draw, ``"checkins"`` to
        estimate sigma from the snapshot's check-in history (weekly slots
        are tiled across the candidate intervals).
    """

    n_candidate_events: int
    n_intervals: int
    mean_competing_per_interval: float = 8.1
    n_locations: int = 25
    theta: float = 20.0
    xi_range: tuple[float, float] = (1.0, 20.0 / 3.0)
    sigma_source: str = "uniform"

    def __post_init__(self) -> None:
        if self.n_candidate_events <= 0:
            raise ValueError(
                f"n_candidate_events must be positive, got {self.n_candidate_events}"
            )
        if self.n_intervals <= 0:
            raise ValueError(f"n_intervals must be positive, got {self.n_intervals}")
        if self.mean_competing_per_interval < 0:
            raise ValueError(
                f"mean_competing_per_interval must be non-negative, got "
                f"{self.mean_competing_per_interval}"
            )
        if self.n_locations <= 0:
            raise ValueError(f"n_locations must be positive, got {self.n_locations}")
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not 0 < self.xi_range[0] <= self.xi_range[1]:
            raise ValueError(f"bad xi_range {self.xi_range}")
        if self.xi_range[1] > self.theta:
            raise ValueError(
                f"xi_range upper bound {self.xi_range[1]} exceeds theta "
                f"{self.theta}; some events could never be scheduled"
            )
        if self.sigma_source not in ("uniform", "checkins"):
            raise ValueError(
                f"sigma_source must be 'uniform' or 'checkins', got "
                f"{self.sigma_source!r}"
            )


def build_instance(
    snapshot: GeneratedEBSN,
    params: InstanceBuildParams,
    seed: int | np.random.Generator | None = None,
) -> SESInstance:
    """Run the Section IV.A pipeline on ``snapshot`` with ``params``."""
    rng = ensure_rng(seed)
    network = snapshot.network
    needed = params.n_candidate_events
    pool_size = network.n_events
    if needed > pool_size:
        raise ValueError(
            f"need {needed} candidate events but the EBSN has only {pool_size}"
        )

    chosen = rng.permutation(pool_size)
    candidate_ids = chosen[:needed]
    rival_pool = chosen[needed:]

    users = [
        User(index=i, name=source.display_name, tags=source.tags)
        for i, source in enumerate(network.users)
    ]
    intervals = [
        TimeInterval(index=t, label=f"interval-{t}")
        for t in range(params.n_intervals)
    ]

    xi_low, xi_high = params.xi_range
    events = []
    for index, event_id in enumerate(candidate_ids):
        source = network.events[int(event_id)]
        events.append(
            CandidateEvent(
                index=index,
                location=source.venue % params.n_locations,
                required_resources=float(rng.uniform(xi_low, xi_high)),
                name=source.display_name,
                tags=source.tags,
            )
        )

    competing, rival_tagsets = _sample_competing(
        network, rival_pool, params, rng
    )

    user_tagsets = [user.tags for user in users]
    event_tagsets = [event.tags for event in events]
    interest = InterestMatrix.from_scipy(
        jaccard_matrix_sparse(user_tagsets, event_tagsets),
        jaccard_matrix_sparse(user_tagsets, rival_tagsets),
    )
    activity = _build_activity(snapshot, params, rng)
    organizer = Organizer(resources=params.theta, name="ses-organizer")
    return SESInstance(
        users=users,
        intervals=intervals,
        events=events,
        competing=competing,
        interest=interest,
        activity=activity,
        organizer=organizer,
    )


def _sample_competing(
    network,
    rival_pool: np.ndarray,
    params: InstanceBuildParams,
    rng: np.random.Generator,
) -> tuple[list[CompetingEvent], list[frozenset[str]]]:
    """Pin uniform-count competing events to every interval.

    Per-interval counts are ``round(U[0, 2 * mean])`` — a uniform
    distribution with the paper's mean.  Rival tag sets come from real
    pool events; if the pool runs dry the counts are truncated (recorded
    nowhere because the paper's sizes never exhaust 16K events).
    """
    competing: list[CompetingEvent] = []
    tagsets: list[frozenset[str]] = []
    pool_position = 0
    for interval in range(params.n_intervals):
        count = int(round(rng.uniform(0.0, 2.0 * params.mean_competing_per_interval)))
        for _ in range(count):
            if pool_position >= len(rival_pool):
                break
            source = network.events[int(rival_pool[pool_position])]
            pool_position += 1
            competing.append(
                CompetingEvent(
                    index=len(competing),
                    interval=interval,
                    name=source.display_name,
                    tags=source.tags,
                )
            )
            tagsets.append(source.tags)
    return competing, tagsets


def _build_activity(
    snapshot: GeneratedEBSN,
    params: InstanceBuildParams,
    rng: np.random.Generator,
) -> ActivityModel:
    n_users = snapshot.network.n_users
    if params.sigma_source == "uniform":
        return ActivityModel.uniform_random(n_users, params.n_intervals, seed=rng)
    weekly = snapshot.checkins.estimate_activity()
    # tile the weekly-slot estimates across the candidate intervals
    columns = [
        weekly.matrix[:, t % weekly.n_intervals] for t in range(params.n_intervals)
    ]
    return ActivityModel(np.column_stack(columns))
