"""PlanePool: single-writer warm primaries, copy-on-write read replicas.

The serving problem: :class:`~repro.api.session.ScheduleSession` keeps
exactly one engine + one warm :class:`~repro.core.scoreplane.ScorePlane`
per :class:`~repro.core.engine.EngineSpec`, so a second concurrent client
either races on shared dirty-row state or rebuilds from cold.  The pool
resolves it with the single-writer / many-reader split the pretalx
serving stack uses for versioned schedules:

* **one primary per spec** — a base plane whose engine is built over the
  pool's shared :class:`~repro.core.live.LiveInstance`.  All mutation
  flows through :meth:`write`, which applies the mutator under the pool
  lock, feeds the returned :class:`~repro.core.live.LiveDelta` to every
  primary (O(delta) — cells stay warm across versions), and bumps the
  generation counter;
* **forked replicas for readers** — :meth:`acquire` hands out an
  independent :meth:`ScorePlane.fork` whose engine is a
  :meth:`~repro.core.engine.ScoreEngine.clone` of a per-(spec, version)
  template built over the *frozen snapshot* of the current version.
  Replicas are therefore completely isolated from later writer
  mutations: an in-flight solve finishes safely against its immutable
  version instance, and its response is stamped with the generation it
  saw;
* **generation invalidation, never silent staleness** — every replica
  records the generation it was forked at; :meth:`acquire` and
  :meth:`release` discard replicas whose generation no longer matches
  (counted in :attr:`PoolStats.invalidations`), so a reader can observe
  at most the version it leased, never a torn mix;
* **bounded reuse** — released replicas park on a per-spec free list
  (most recently used last); the list is capped at ``max_replicas`` and
  trimmed LRU-first (:attr:`PoolStats.evictions`).

Forking is O(cells): the primary is brought current once (its own
accounting absorbs the fill/refresh), then the matrix is copied and the
template engine cloned — zero engine score evaluations on the replica.
``PoolStats.replica_cold_cells`` aggregates every replica's
``cells_filled``; the serving benchmark's CI check asserts it stays 0.

Specs with ``shards`` set build :class:`~repro.shard.engine.ShardedEngine`
primaries transparently: writes still route one delta through the pool
lock (the sharded engine localizes it to the blocks it touches), and
:meth:`PlanePool.primary_stats` exposes the shard fan-out counters so
serving tests can assert fills crossed the shard boundary exactly once.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.engine import EngineSpec, ScoreEngine
from repro.core.instance import SESInstance
from repro.core.live import LiveDelta, LiveInstance
from repro.core.scoreplane import ScorePlane

if TYPE_CHECKING:
    from repro.resilience.faults import FaultInjector, FaultPlan

__all__ = ["PlanePool", "PoolStats", "Replica", "check_bound"]


def check_bound(name: str, value: float | None) -> None:
    """Reject a NaN or negative time bound with an error naming it.

    ``None`` and ``inf`` both mean "no bound".
    """
    if value is not None and (math.isnan(value) or value < 0):
        raise ValueError(f"{name} must be >= 0 (inf for no bound), got {value}")


@dataclass(frozen=True)
class PoolStats:
    """Counter snapshot of the pool's fork/reuse economics (JSON-ready)."""

    forks: int
    hits: int
    invalidations: int
    evictions: int
    rebuilds: int
    generation: int
    freezes: int
    replica_cold_cells: int
    #: Leases served stale from the last-good stash because the writer
    #: held the pool lock past the caller's ``max_wait_s``.
    degraded: int = 0
    #: Injected writer stalls absorbed while holding the writer lock.
    writer_stalls: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "forks": self.forks,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "rebuilds": self.rebuilds,
            "generation": self.generation,
            "freezes": self.freezes,
            "replica_cold_cells": self.replica_cold_cells,
            "degraded": self.degraded,
            "writer_stalls": self.writer_stalls,
        }


class Replica:
    """One leased read replica: a forked plane pinned to a version.

    ``plane`` wraps a private engine clone built over ``frozen`` — the
    immutable snapshot of the generation the replica was forked at — so
    solves through it are race-free by construction.  ``pool_hit`` tells
    whether this lease was served from the free list (True) or forked
    fresh (False).  ``staleness`` is 0 on every normal lease; a degraded
    lease (served from the last-good stash while the writer held the
    lock past ``max_wait_s``) carries the number of writes begun since
    the stash's generation.
    """

    __slots__ = ("spec", "plane", "frozen", "generation", "pool_hit",
                 "staleness", "_cold_cells_counted")

    def __init__(
        self,
        spec: EngineSpec,
        plane: ScorePlane,
        frozen: SESInstance,
        generation: int,
    ) -> None:
        self.spec = spec
        self.plane = plane
        self.frozen = frozen
        self.generation = generation
        self.pool_hit = False
        self.staleness = 0
        self._cold_cells_counted = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Replica({self.spec.kind}, generation={self.generation}, "
            f"pool_hit={self.pool_hit})"
        )


class PlanePool:
    """Warm plane/engine pool over one shared live instance.

    Parameters
    ----------
    live:
        The single-writer live state all primaries observe.  Every
        mutation must flow through :meth:`write`; mutating ``live``
        behind the pool's back leaves primaries silently stale.
    max_replicas:
        Cap on *retained* free replicas per spec.  Leases beyond the cap
        still succeed (a fresh fork is handed out, never blocking); the
        cap only bounds how many parked replicas the pool keeps warm.
    generation:
        Starting version counter; nonzero only when a recovered serving
        session re-creates the pool at its checkpointed generation so
        resumed version stamps match an uninterrupted run's.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; its
        ``writer_stall`` probability injects a deterministic sleep
        *inside* the writer lock on :meth:`write` — the exact scenario
        ``max_wait_s`` degraded reads exist for.
    keep_stale_replica:
        Keep one extra "last good" replica per spec (refreshed on the
        first fork of each generation) that :meth:`acquire` can serve —
        staleness-stamped — when the writer lock cannot be taken within
        ``max_wait_s``.  Off by default: it costs one extra fork per
        (spec, generation).
    """

    def __init__(
        self,
        live: LiveInstance,
        *,
        max_replicas: int = 8,
        generation: int = 0,
        fault_plan: "FaultPlan | None" = None,
        keep_stale_replica: bool = False,
    ) -> None:
        if max_replicas < 1:
            raise ValueError(
                f"max_replicas must be positive, got {max_replicas}"
            )
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        self._live = live
        self._max_replicas = max_replicas
        self._lock = threading.RLock()
        self._generation = generation
        self._primaries: dict[EngineSpec, ScorePlane] = {}
        # per-(spec) template engines over the current version's frozen
        # snapshot; cleared on every write and rebuilt lazily (counted)
        self._templates: dict[EngineSpec, ScoreEngine] = {}
        self._free: dict[EngineSpec, list[Replica]] = {}
        self._forks = 0
        self._hits = 0
        self._invalidations = 0
        self._evictions = 0
        self._rebuilds = 0
        self._replica_cold_cells = 0
        self._injector: "FaultInjector | None" = (
            None if fault_plan is None else fault_plan.injector()
        )
        self._keep_stale = keep_stale_replica
        # the stale stash lives under its own lock so a degraded acquire
        # never waits on the (possibly stalled) writer lock; code paths
        # never hold _stale_lock while waiting for _lock, so the
        # _lock -> _stale_lock ordering in _fork cannot deadlock
        self._stale_lock = threading.Lock()
        self._stale: dict[EngineSpec, Replica] = {}
        self._writes_begun = generation
        self._degraded = 0
        self._writer_stalls = 0
        self._stale_cold_cells = 0

    # -- introspection ---------------------------------------------------
    @property
    def generation(self) -> int:
        """Version counter: bumped once per :meth:`write`."""
        with self._lock:
            return self._generation

    @property
    def max_replicas(self) -> int:
        return self._max_replicas

    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(
                forks=self._forks,
                hits=self._hits,
                invalidations=self._invalidations,
                evictions=self._evictions,
                rebuilds=self._rebuilds,
                generation=self._generation,
                freezes=self._live.freezes,
                replica_cold_cells=self._aggregate_cold_cells(),
                degraded=self._degraded,
                writer_stalls=self._writer_stalls,
            )

    def primary_stats(self) -> dict[str, dict[str, int]]:
        """Per-spec primary plane accounting, taken under the pool lock.

        Keys are ``spec.kind`` (``"sparse@4"`` for a spec with ``shards=4``).
        Sharded primaries fold in the engine's shard counters
        (``fanouts`` / ``merged_partials`` / ``blocks`` / ``shards``) — the
        serving-layer evidence that each plane fill crossed the shard
        boundary exactly once per flush, even with the primary mutating
        under the single-writer lock.
        """
        with self._lock:
            out: dict[str, dict[str, int]] = {}
            for spec, primary in self._primaries.items():
                stats = dict(primary.stats())
                engine_stats = getattr(primary.engine, "stats", None)
                if callable(engine_stats):
                    stats.update(engine_stats())
                key = (
                    spec.kind
                    if spec.shards is None
                    else f"{spec.kind}@{spec.shards}"
                )
                out[key] = stats
            return out

    def fault_stats(self) -> dict[str, int]:
        """Injected-fault counters (``site:kind``) when a plan is armed."""
        return {} if self._injector is None else self._injector.counts()

    def _aggregate_cold_cells(self) -> int:
        total = self._replica_cold_cells + self._stale_cold_cells
        for replicas in self._free.values():
            for replica in replicas:
                total += (
                    replica.plane.cells_filled - replica._cold_cells_counted
                )
        return total

    # -- the write path (single writer) ----------------------------------
    def write(self, mutate: Callable[[LiveInstance], LiveDelta]) -> LiveDelta:
        """Apply one structural mutation and re-warm the pool around it.

        ``mutate`` receives the live instance and must return the
        :class:`LiveDelta` its mutator produced.  Under the pool lock the
        delta is fed to every primary (O(delta) cell surgery, no
        re-sweep), version templates are dropped, the generation is
        bumped, and parked replicas — now stale — are discarded.
        """
        with self._stale_lock:
            # counted before the writer lock is taken so degraded reads
            # can measure how far behind the stash is mid-write
            self._writes_begun += 1
        with self._lock:
            if self._injector is not None and self._injector.draw_writer(
                "pool.write"
            ):
                self._writer_stalls += 1
                # sleep *inside* the lock: this is the stalled writer the
                # degraded read path is designed to survive
                time.sleep(self._injector.plan.stall_seconds)
            delta = mutate(self._live)
            for primary in self._primaries.values():
                primary.apply_delta(delta)
            self._templates.clear()
            self._generation += 1
            for replicas in self._free.values():
                for replica in replicas:
                    self._retire(replica)
                    self._invalidations += 1
                replicas.clear()
            return delta

    def version_instance(self) -> SESInstance:
        """The immutable snapshot of the current generation.

        Frozen lazily, at most once per generation, under the pool lock —
        the single sanctioned O(instance) step on the read path (what-if
        and report queries run against it; solves additionally warm-start
        from forked replicas).
        """
        with self._lock:
            return self._live.freeze()  # ses-lint: disable=freeze-ban

    # -- the read path (leases) ------------------------------------------
    def acquire(
        self,
        spec: EngineSpec | str | None = None,
        *,
        max_wait_s: float | None = None,
    ) -> Replica:
        """Lease a replica of the current generation.

        Served from the free list when a same-generation replica is
        parked there (a *pool hit*); otherwise forked fresh from the
        spec's primary in O(cells).  Pair with :meth:`release`, or use
        :meth:`lease`.

        ``max_wait_s`` bounds how long the lease waits on the writer
        lock.  On timeout — a stalled or slow writer — the lease is
        served from the spec's last-good stash instead
        (``keep_stale_replica=True``), stamped with its
        :attr:`Replica.staleness`; with no stash available the call
        falls back to waiting.  ``None`` or ``inf`` waits without bound;
        NaN or a negative value raises :class:`ValueError`.
        """
        check_bound("max_wait_s", max_wait_s)
        resolved = EngineSpec.coerce(spec)
        if max_wait_s is None or math.isinf(max_wait_s):
            self._lock.acquire()
        elif not self._lock.acquire(timeout=max_wait_s):
            return self._acquire_stale(resolved)
        try:
            return self._acquire_locked(resolved)
        finally:
            self._lock.release()

    def _acquire_locked(self, resolved: EngineSpec) -> Replica:
        free = self._free.get(resolved)
        while free:
            replica = free.pop()  # most recently used first
            if replica.generation == self._generation:
                self._hits += 1
                replica.pool_hit = True
                return replica
            self._retire(replica)
            self._invalidations += 1
        self._forks += 1
        return self._fork(resolved)

    def _acquire_stale(self, resolved: EngineSpec) -> Replica:
        """Serve a lease from the last-good stash (writer unreachable)."""
        with self._stale_lock:
            stash = self._stale.get(resolved)
            if stash is not None:
                self._degraded += 1
                replica = Replica(
                    spec=resolved,
                    plane=stash.plane.fork(),
                    frozen=stash.frozen,
                    generation=stash.generation,
                )
                replica.staleness = max(
                    1, self._writes_begun - stash.generation
                )
                return replica
        # nothing to degrade to (stash disabled or never warmed): wait
        # for the writer after all rather than failing the read
        with self._lock:
            return self._acquire_locked(resolved)

    def release(self, replica: Replica) -> None:
        """Return a lease; parked for reuse unless stale or over the cap."""
        if replica.staleness:
            # degraded leases never touch the main lock (the writer may
            # still be stalled) and are never parked for reuse; their
            # accounting folds into a counter owned by the stale lock
            with self._stale_lock:
                self._stale_cold_cells += (
                    replica.plane.cells_filled - replica._cold_cells_counted
                )
                replica._cold_cells_counted = replica.plane.cells_filled
            return
        with self._lock:
            if replica.generation != self._generation:
                self._retire(replica)
                self._invalidations += 1
                return
            free = self._free.setdefault(replica.spec, [])
            free.append(replica)
            if len(free) > self._max_replicas:
                self._retire(free.pop(0))  # least recently used
                self._evictions += 1

    class _Lease:
        __slots__ = ("_pool", "_spec", "_max_wait_s", "replica")

        def __init__(
            self,
            pool: PlanePool,
            spec: EngineSpec | str | None,
            max_wait_s: float | None = None,
        ):
            self._pool = pool
            self._spec = spec
            self._max_wait_s = max_wait_s

        def __enter__(self) -> Replica:
            self.replica = self._pool.acquire(
                self._spec, max_wait_s=self._max_wait_s
            )
            return self.replica

        def __exit__(self, *exc_info: object) -> None:
            self._pool.release(self.replica)

    def lease(
        self,
        spec: EngineSpec | str | None = None,
        *,
        max_wait_s: float | None = None,
    ) -> "PlanePool._Lease":
        """Context manager: ``with pool.lease(spec) as replica: ...``."""
        return PlanePool._Lease(self, spec, max_wait_s)

    # -- internals (lock held) -------------------------------------------
    def _primary_for(self, spec: EngineSpec) -> ScorePlane:
        primary = self._primaries.get(spec)
        if primary is None:
            # built over the live view, so later writes keep it current
            # through apply_delta instead of rebuilding
            primary = ScorePlane(spec.build(self._live))  # type: ignore[arg-type]
            self._primaries[spec] = primary
        return primary

    def _template_for(self, spec: EngineSpec) -> ScoreEngine:
        template = self._templates.get(spec)
        if template is None:
            template = spec.build(self.version_instance())
            self._templates[spec] = template
            self._rebuilds += 1
        return template

    def _fork(self, spec: EngineSpec) -> Replica:
        primary = self._primary_for(spec)
        # bring the primary current once — its own engine pays any cold
        # fill / dirty-row refresh; every replica then copies warm cells
        primary.ensure()
        frozen = self.version_instance()
        if self._keep_stale:
            with self._stale_lock:
                stash = self._stale.get(spec)
                if stash is None or stash.generation != self._generation:
                    # refresh the last-good copy for this generation; a
                    # later degraded read forks from it without ever
                    # touching the (possibly stalled) writer lock
                    self._stale[spec] = Replica(
                        spec=spec,
                        plane=primary.fork(self._template_for(spec).clone()),
                        frozen=frozen,
                        generation=self._generation,
                    )
        plane = primary.fork(self._template_for(spec).clone())
        return Replica(
            spec=spec,
            plane=plane,
            frozen=frozen,
            generation=self._generation,
        )

    def _retire(self, replica: Replica) -> None:
        """Fold a discarded replica's accounting into the pool totals."""
        self._replica_cold_cells += (
            replica.plane.cells_filled - replica._cold_cells_counted
        )
        replica._cold_cells_counted = replica.plane.cells_filled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            parked = sum(len(r) for r in self._free.values())
            return (
                f"PlanePool(generation={self._generation}, "
                f"primaries={len(self._primaries)}, parked={parked})"
            )
