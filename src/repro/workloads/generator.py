"""Workload generator: experiment configs -> concrete SES instances.

Each :class:`~repro.workloads.config.ExperimentConfig` is materialized in
two steps, mirroring the paper: a Meetup-like EBSN snapshot supplies the
event pool / tags / check-ins, then the Section IV.A preprocessing
(:func:`repro.data.meetup.build_instance`) cuts an SES instance out of it.

One snapshot is cached and shared across a sweep — just as the paper uses
one Meetup dump for all grid points — and regenerated only if a later
config needs a larger event pool.  All randomness descends from the
generator's root seed via :class:`~repro.utils.rng.SeedSequenceFactory`,
so grid point ``i`` is reproducible regardless of what ran before it.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import SESInstance
from repro.data.meetup import InstanceBuildParams, build_instance
from repro.ebsn.generator import EBSNConfig, GeneratedEBSN, MeetupStyleGenerator
from repro.utils.rng import SeedSequenceFactory
from repro.workloads.config import ExperimentConfig

__all__ = ["WorkloadGenerator", "synthesize_sharded_instance"]


class WorkloadGenerator:
    """Materializes SES instances for experiment configs, reusing one EBSN."""

    def __init__(self, root_seed: int = 0):
        self._root_seed = root_seed
        self._seeds = SeedSequenceFactory(root_seed)
        self._snapshot: GeneratedEBSN | None = None
        self._snapshot_rng: np.random.Generator | None = None

    @property
    def root_seed(self) -> int:
        return self._root_seed

    # ------------------------------------------------------------------
    def snapshot_for(self, config: ExperimentConfig) -> GeneratedEBSN:
        """The shared EBSN snapshot, (re)generated to cover ``config``.

        The snapshot is regenerated only when the cached one has too few
        users or pool events; sweeps should therefore present their
        *largest* config first (the sweep helpers do) so all points share
        identical data.
        """
        needed_events = config.required_pool_events
        snapshot = self._snapshot
        if (
            snapshot is None
            or snapshot.network.n_events < needed_events
            or snapshot.network.n_users < config.n_users
        ):
            if self._snapshot_rng is None:
                self._snapshot_rng = self._seeds.spawn()
            ebsn_config = EBSNConfig(
                n_users=max(config.n_users, 100),
                n_groups=max(20, config.n_users // 25),
                n_events=needed_events,
            )
            snapshot = MeetupStyleGenerator(ebsn_config).generate(
                seed=self._snapshot_rng
            )
            self._snapshot = snapshot
        return snapshot

    def build(
        self,
        config: ExperimentConfig,
        seed: int | np.random.Generator | None = None,
    ) -> SESInstance:
        """Materialize one SES instance for ``config``.

        ``seed`` overrides the internally spawned per-call stream (useful
        for repeated-trial experiments over the same snapshot).
        """
        snapshot = self.snapshot_for(config)
        params = InstanceBuildParams(
            n_candidate_events=config.events,
            n_intervals=config.intervals,
            mean_competing_per_interval=config.mean_competing,
            n_locations=config.n_locations,
            theta=config.theta,
            xi_range=config.xi_range,
            sigma_source=config.sigma_source,
            interest_backend=config.interest_backend,
        )
        if seed is None:
            seed = self._seeds.spawn()
        instance = build_instance(snapshot, params, seed=seed)
        if config.n_users < instance.n_users:
            instance = _restrict_users(instance, config.n_users)
        return instance


def synthesize_sharded_instance(
    n_users: int,
    n_events: int = 64,
    n_intervals: int = 12,
    *,
    competing_per_interval: int = 2,
    density: float = 0.001,
    theta: float = 10.0,
    xi_range: tuple[float, float] = (1.0, 4.0),
    n_locations: int = 8,
    shards: int = 1,
    block_users: int | None = None,
    seed: int = 0,
) -> SESInstance:
    """Synthesize a million-user-scale instance directly into shard blocks.

    Interest is sampled **per accumulation block** from RNG streams
    spawned in block order off one root seed
    (:meth:`~repro.shard.plan.ShardPlan.block_streams`), so the generated
    numbers are identical for any ``shards`` value and any worker
    scheduling — and no dense ``(n_users, n_events)`` array is ever
    materialized: each block's columns go straight into float64 CSC block
    storage (:class:`~repro.shard.interest.ShardedInterest`).

    ``density`` is the expected fraction of nonzero ``mu`` entries per
    column (Binomial row counts per block).
    """
    from repro.core.activity import ActivityModel
    from repro.core.entities import (
        CandidateEvent,
        CompetingEvent,
        Organizer,
        TimeInterval,
        User,
    )
    from repro.shard.interest import ShardedInterest
    from repro.shard.plan import DEFAULT_BLOCK_USERS, ShardPlan

    try:
        from scipy import sparse as sp
    except ImportError as error:  # pragma: no cover - scipy is baked in
        raise ImportError("synthesize_sharded_instance requires scipy") from error

    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    plan = ShardPlan(
        n_users=n_users,
        n_shards=shards,
        block_users=block_users or DEFAULT_BLOCK_USERS,
        seed=seed,
    )
    n_competing = competing_per_interval * n_intervals

    def _sample_csc(
        rng: np.random.Generator, rows_in_block: int, n_columns: int
    ):
        indices_parts: list[np.ndarray] = []
        data_parts: list[np.ndarray] = []
        indptr = np.zeros(n_columns + 1, dtype=np.intp)
        for column in range(n_columns):
            nnz = int(rng.binomial(rows_in_block, density))
            rows = np.sort(
                rng.choice(rows_in_block, size=nnz, replace=False)
            ).astype(np.intp)
            indices_parts.append(rows)
            data_parts.append(rng.uniform(0.05, 1.0, size=nnz))
            indptr[column + 1] = indptr[column] + nnz
        indices = (
            np.concatenate(indices_parts) if indices_parts else
            np.zeros(0, dtype=np.intp)
        )
        data = np.concatenate(data_parts) if data_parts else np.zeros(0)
        return sp.csc_matrix(
            (data, indices, indptr), shape=(rows_in_block, n_columns)
        )

    candidate_blocks = []
    competing_blocks = []
    sigma = np.empty((n_users, n_intervals))
    for block, stream in enumerate(plan.block_streams()):
        lo, hi = plan.block_bounds(block)
        candidate_blocks.append(_sample_csc(stream, hi - lo, n_events))
        competing_blocks.append(_sample_csc(stream, hi - lo, n_competing))
        sigma[lo:hi] = stream.uniform(0.0, 1.0, size=(hi - lo, n_intervals))
    interest = ShardedInterest.from_blocks(
        plan, candidate_blocks, competing_blocks
    )

    entity_rng = np.random.default_rng(
        np.random.SeedSequence([seed, n_users, n_events]).generate_state(4)
    )
    xi = entity_rng.uniform(xi_range[0], xi_range[1], size=n_events)
    locations = entity_rng.integers(0, n_locations, size=n_events)
    return SESInstance(
        users=tuple(User(index=u) for u in range(n_users)),
        intervals=tuple(TimeInterval(index=t) for t in range(n_intervals)),
        events=tuple(
            CandidateEvent(
                index=e,
                location=int(locations[e]),
                required_resources=float(min(xi[e], theta)),
            )
            for e in range(n_events)
        ),
        competing=tuple(
            CompetingEvent(index=c, interval=c % n_intervals)
            for c in range(n_competing)
        ),
        interest=interest,  # type: ignore[arg-type]
        activity=ActivityModel(sigma),
        organizer=Organizer(resources=theta),
    )


def _restrict_users(instance: SESInstance, n_users: int) -> SESInstance:
    """Cut an instance down to its first ``n_users`` users.

    The EBSN snapshot may be shared by configs with different user counts;
    slicing the user axis keeps matrices consistent without regenerating.
    The interest backend is preserved — a sparse ``mu`` stays sparse.
    """
    from repro.core.activity import ActivityModel

    interest = instance.interest.restrict_users(n_users)
    activity = ActivityModel(instance.activity.matrix[:n_users])
    return SESInstance(
        users=instance.users[:n_users],
        intervals=instance.intervals,
        events=instance.events,
        competing=instance.competing,
        interest=interest,
        activity=activity,
        organizer=instance.organizer,
    )
