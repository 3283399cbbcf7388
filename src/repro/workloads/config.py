"""Experiment configuration — the paper's Section IV.A parameter sheet.

Defaults transcribe the paper exactly:

==========================  =======================================
number of scheduled events  ``k = 100`` (max 500)
time intervals              ``|T| = 3k/2`` (swept ``k/5 .. 3k``)
candidate events            ``|E| = 2k``
competing events/interval   uniform with mean **8.1** (Meetup-measured)
available locations         **25**
sigma                       ``U[0, 1]``
available resources         ``theta = 20``
required resources          ``xi ~ U[1, 20/3]``
==========================  =======================================

The one deliberate deviation is ``n_users``: the paper runs 42,444 Meetup
users on a C++ implementation; our default is 3,000 so the full benchmark
suite terminates on a laptop, with the full scale one constructor call away
(:meth:`ExperimentConfig.at_meetup_scale`).  Utility *shapes* are preserved
— every method sees the same users — and EXPERIMENTS.md records the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ExperimentConfig", "PAPER_DEFAULT_K", "PAPER_MAX_K", "MEETUP_USERS"]

PAPER_DEFAULT_K = 100
PAPER_MAX_K = 500
MEETUP_USERS = 42_444

#: Default user count for locally-run experiments (see module docstring).
DEFAULT_BENCH_USERS = 3_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid point of the paper's experimental design."""

    k: int = PAPER_DEFAULT_K
    #: ``|T|``; ``None`` means the paper default ``3k/2``.
    n_intervals: int | None = None
    #: ``|E|``; ``None`` means the paper default ``2k``.
    n_events: int | None = None
    mean_competing: float = 8.1
    n_locations: int = 25
    theta: float = 20.0
    xi_range: tuple[float, float] = (1.0, 20.0 / 3.0)
    sigma_source: str = "uniform"
    n_users: int = DEFAULT_BENCH_USERS
    #: ``mu`` storage: ``"sparse"`` CSC (scipy, the default) or ``"dense"``
    #: arrays.  Sparse is what makes Meetup-scale user counts tractable
    #: and is what the default sparse engine gathers from directly.
    interest_backend: str = "sparse"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.n_intervals is not None and self.n_intervals <= 0:
            raise ValueError(
                f"n_intervals must be positive, got {self.n_intervals}"
            )
        if self.n_events is not None and self.n_events < self.k:
            raise ValueError(
                f"n_events ({self.n_events}) must be at least k ({self.k})"
            )
        if self.n_users <= 0:
            raise ValueError(f"n_users must be positive, got {self.n_users}")
        if self.mean_competing < 0:
            raise ValueError(
                f"mean_competing must be non-negative, got {self.mean_competing}"
            )
        if self.interest_backend not in ("dense", "sparse"):
            raise ValueError(
                f"interest_backend must be 'dense' or 'sparse', got "
                f"{self.interest_backend!r}"
            )

    # ------------------------------------------------------------------
    # paper-default derived sizes
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> int:
        """``|T|`` with the paper default ``3k/2`` when unset."""
        if self.n_intervals is not None:
            return self.n_intervals
        return max(1, (3 * self.k) // 2)

    @property
    def events(self) -> int:
        """``|E|`` with the paper default ``2k`` when unset."""
        if self.n_events is not None:
            return self.n_events
        return 2 * self.k

    @property
    def expected_competing_total(self) -> float:
        """Expected total number of competing events across intervals."""
        return self.intervals * self.mean_competing

    @property
    def required_pool_events(self) -> int:
        """EBSN event-pool size needed to materialize this config.

        Candidate events plus the worst-case competing draw (the uniform
        per-interval count tops out at ``2 * mean``), with 10% slack.
        """
        worst_competing = int(self.intervals * 2.0 * self.mean_competing) + 1
        return int(1.1 * (self.events + worst_competing)) + 10

    # ------------------------------------------------------------------
    def with_k(self, k: int) -> "ExperimentConfig":
        """Copy at a different ``k`` (derived sizes stay paper-default)."""
        return replace(self, k=k)

    def with_intervals(self, n_intervals: int) -> "ExperimentConfig":
        """Copy pinning ``|T|`` explicitly."""
        return replace(self, n_intervals=n_intervals)

    def at_meetup_scale(self) -> "ExperimentConfig":
        """Copy with the full 42,444-user Meetup population."""
        return replace(self, n_users=MEETUP_USERS)

    def with_backend(self, interest_backend: str) -> "ExperimentConfig":
        """Copy with a different ``mu`` storage backend."""
        return replace(self, interest_backend=interest_backend)

    def label(self) -> str:
        return (
            f"k={self.k} |T|={self.intervals} |E|={self.events} "
            f"users={self.n_users}"
        )
