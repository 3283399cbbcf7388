"""Maintenance policies: how a live schedule absorbs a change stream.

A policy owns an :class:`~repro.algorithms.incremental.IncrementalScheduler`
and decides, per change op, how much re-optimization to pay for:

* :class:`IncrementalPolicy` (``"incremental"``) — full greedy upkeep per
  op (displacement, refill, relocation), never a global rebuild.  The
  cheap path: per-op cost is a couple of score-row refreshes.
* :class:`PeriodicRebuildPolicy` (``"periodic-rebuild"``) — repair-only
  between rebuilds (ops apply structurally with ``maintain=False``), then
  a full batch re-solve through the solver registry every
  ``rebuild_every`` ops and once more at end of stream.  With
  ``rebuild_every=1`` this is the classical "re-solve on every change"
  baseline; its end-of-stream schedule is *exactly* a one-shot registry
  solve on the final instance state (the parity property the streaming
  test suite enforces).  Re-solves run warm: the solver is fed the
  scheduler's
  :meth:`~repro.algorithms.incremental.IncrementalScheduler.base_plane`
  — an empty-schedule score plane kept current by the delta stream — and
  solves directly over the live view, so each rebuild re-scores only the
  rows dirtied since the previous one and never freezes a snapshot.
* :class:`HybridPolicy` (``"hybrid"``) — incremental upkeep per op while
  accumulating *drift pressure* (the L1 interest mass each op touched);
  when the accumulated pressure crosses ``drift_threshold`` the schedule
  is rebuilt from scratch, reclaiming the global structure that long
  greedy histories erode.  The policy materializes the scheduler's base
  plane at bind time, so those rebuilds warm-start from cached
  empty-schedule scores instead of re-sweeping every cell.

Policies are single-use: :meth:`MaintenancePolicy.bind` attaches one to an
instance, and :class:`~repro.stream.driver.StreamDriver` drives the
``apply``/``finish`` lifecycle.  All three resolve their solvers and
engines through :class:`~repro.core.engine.EngineSpec` and the solver
registry, so the whole subsystem stays sparse-friendly end to end.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.algorithms.incremental import IncrementalScheduler
from repro.algorithms.registry import solver_registry
from repro.core.engine import EngineSpec
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from repro.interactive.locks import LockSet

from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    ChangeOp,
    DriftInterest,
)

__all__ = [
    "MaintenancePolicy",
    "IncrementalPolicy",
    "PeriodicRebuildPolicy",
    "HybridPolicy",
    "POLICY_NAMES",
    "make_policy",
]


class MaintenancePolicy(ABC):
    """One strategy for keeping a schedule alive under a change stream."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    def __init__(self) -> None:
        self._live: IncrementalScheduler | None = None
        self._rebuilds = 0

    # -- lifecycle ------------------------------------------------------
    def bind(
        self,
        instance: SESInstance,
        k: int,
        engine: EngineSpec | str | None = None,
        locks: LockSet | None = None,
        *,
        schedule: Mapping[int, int] | None = None,
    ) -> None:
        """Attach to an instance: build the maintained scheduler.

        ``locks`` threads organizer pin/forbid constraints into the
        maintained scheduler; every repair and rebuild honors them, and
        pins survive event-cancel renumbering for the stream's lifetime.
        ``schedule`` (an ``{event: interval}`` mapping, recovery's
        checkpoint) binds straight onto that schedule through
        :meth:`~repro.algorithms.incremental.IncrementalScheduler.adopt`:
        no initial greedy fill, and no bind-time solve of any policy.
        """
        if self._live is not None:
            raise RuntimeError(
                f"policy {self.name!r} is already bound; policies are "
                f"single-use — construct a fresh one per replay"
            )
        self._live = IncrementalScheduler(
            instance,
            k,
            engine=EngineSpec.coerce(engine),
            locks=locks,
            schedule=schedule,
        )

    @abstractmethod
    def apply(self, op: ChangeOp) -> None:
        """Absorb one change op (structural change + policy-owned upkeep)."""

    def finish(self) -> None:
        """End-of-stream hook (periodic policies flush here)."""

    # -- state ----------------------------------------------------------
    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has attached this policy to an instance."""
        return self._live is not None

    @property
    def scheduler(self) -> IncrementalScheduler:
        if self._live is None:
            raise RuntimeError(f"policy {self.name!r} is not bound yet")
        return self._live

    @property
    def rebuilds(self) -> int:
        """Number of full re-solves this policy has paid for."""
        return self._rebuilds

    @property
    def schedule(self) -> Schedule:
        return self.scheduler.schedule

    def utility(self) -> float:
        return self.scheduler.utility()

    # -- durability ------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-ready internal counters a checkpoint must carry.

        Everything a policy's :meth:`apply` decisions depend on *besides*
        the scheduler state itself belongs here; recovery restores it via
        :meth:`load_state` right after re-binding, so a resumed replay is
        bit-identical to an uninterrupted one.  Subclasses extend the
        dict (and CONTRIBUTING requires new policies to do the same for
        any new mutable state).
        """
        return {"rebuilds": self._rebuilds}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto a freshly bound policy."""
        self._rebuilds = int(state.get("rebuilds", 0))

    def describe(self) -> str:
        return self.name


class IncrementalPolicy(MaintenancePolicy):
    """Greedy upkeep on every op; never a global rebuild."""

    name = "incremental"

    def apply(self, op: ChangeOp) -> None:
        op.apply(self.scheduler, maintain=True)


class PeriodicRebuildPolicy(MaintenancePolicy):
    """Repair-only between full batch re-solves every ``rebuild_every`` ops.

    Parameters
    ----------
    rebuild_every:
        Ops between re-solves; ``1`` (the default) re-solves after every
        change — the classical baseline.
    solver:
        Registry name of the batch solver used for re-solves.
    """

    name = "periodic-rebuild"

    def __init__(
        self,
        rebuild_every: int = 1,
        solver: str = "grd",
    ) -> None:
        super().__init__()
        if rebuild_every <= 0:
            raise ValueError(
                f"rebuild_every must be positive, got {rebuild_every}"
            )
        info = solver_registry.get(solver)  # fail fast on unknown names
        if not info.one_shot:
            raise ValueError(
                f"periodic-rebuild needs a batch solver, got {solver!r} "
                f"({info.kind})"
            )
        self._rebuild_every = rebuild_every
        self._solver = solver
        self._ops_since_rebuild = 0

    def bind(
        self,
        instance: SESInstance,
        k: int,
        engine: EngineSpec | str | None = None,
        locks: LockSet | None = None,
        *,
        schedule: Mapping[int, int] | None = None,
    ) -> None:
        super().bind(instance, k, engine, locks, schedule=schedule)
        if self._solver != "grd" and schedule is None:
            # the scheduler's initial fill IS a GRD run; only a non-GRD
            # solver needs a bind-time re-solve to align the start
            self._resolve()

    def apply(self, op: ChangeOp) -> None:
        op.apply(self.scheduler, maintain=False)
        self._ops_since_rebuild += 1
        if self._ops_since_rebuild >= self._rebuild_every:
            self._resolve()

    def finish(self) -> None:
        if self._ops_since_rebuild:
            self._resolve()

    def state_dict(self) -> dict[str, Any]:
        state = super().state_dict()
        state["ops_since_rebuild"] = self._ops_since_rebuild
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        super().load_state(state)
        self._ops_since_rebuild = int(state.get("ops_since_rebuild", 0))

    def _resolve(self) -> None:
        live = self.scheduler
        solver = solver_registry.create(
            self._solver, engine=live.engine_spec
        )
        # warm batch re-solve straight over the live view: the base plane's
        # cached initial scores make it O(dirty rows), and no O(instance)
        # snapshot is ever frozen
        result = solver.solve(
            live.live, live.k, plane=live.base_plane(), locks=live.locks
        )
        live.adopt(result.schedule)
        self._rebuilds += 1
        self._ops_since_rebuild = 0

    def describe(self) -> str:
        return f"{self.name}(every={self._rebuild_every}, {self._solver})"


class HybridPolicy(MaintenancePolicy):
    """Incremental upkeep plus a full rebuild when drift pressure piles up.

    Parameters
    ----------
    drift_threshold:
        Accumulated L1 interest mass (summed over op payloads and drift
        deltas) that triggers a rebuild.  ``None`` picks a scale-free
        default at bind time: 10% of the instance's total candidate
        interest mass.
    """

    name = "hybrid"

    #: Fraction of total candidate interest mass used when no explicit
    #: threshold is configured.
    DEFAULT_THRESHOLD_FRACTION = 0.10

    def __init__(self, drift_threshold: float | None = None) -> None:
        super().__init__()
        if drift_threshold is not None and drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be positive, got {drift_threshold}"
            )
        self._threshold = drift_threshold
        self._pressure = 0.0

    def bind(
        self,
        instance: SESInstance,
        k: int,
        engine: EngineSpec | str | None = None,
        locks: LockSet | None = None,
        *,
        schedule: Mapping[int, int] | None = None,
    ) -> None:
        super().bind(instance, k, engine, locks, schedule=schedule)
        # materializing the base plane now makes every pressure-triggered
        # rebuild() a warm refill (seeded from cached base scores)
        self.scheduler.base_plane()
        if self._threshold is None:
            interest = instance.interest
            total_mass = (
                interest.mean_positive_interest() * interest.nnz_candidate()
            )
            self._threshold = max(
                1.0, self.DEFAULT_THRESHOLD_FRACTION * total_mass
            )

    @property
    def drift_threshold(self) -> float | None:
        return self._threshold

    @property
    def pressure(self) -> float:
        """Accumulated (un-flushed) drift pressure."""
        return self._pressure

    def apply(self, op: ChangeOp) -> None:
        self._pressure += self._op_pressure(op)
        op.apply(self.scheduler, maintain=True)
        if self._pressure >= self._threshold:
            # subtract exactly what this rebuild flushes rather than
            # zeroing: pressure added concurrently with the rebuild
            # (reentrant apply via instrumentation/subclass hooks) must
            # survive to count toward the next threshold crossing
            flushed = self._pressure
            self.scheduler.rebuild()
            self._rebuilds += 1
            self._pressure -= flushed

    def state_dict(self) -> dict[str, Any]:
        state = super().state_dict()
        # the threshold is resolved from the *initial* instance's interest
        # mass at bind time; recovery re-binds on a checkpointed (mutated)
        # instance, so the resolved value must travel in the checkpoint
        state["pressure"] = self._pressure
        state["drift_threshold"] = self._threshold
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        super().load_state(state)
        self._pressure = float(state.get("pressure", 0.0))
        threshold = state.get("drift_threshold")
        if threshold is not None:
            self._threshold = float(threshold)

    def _op_pressure(self, op: ChangeOp) -> float:
        """L1 interest mass the op touches (computed pre-application)."""
        if isinstance(op, (ArriveCandidate, AnnounceRival)):
            return sum(value for _, value in op.interest)
        # read through the live view: snapshotting the instance per op
        # would reintroduce the O(instance) cost LiveInstance removed
        interest = self.scheduler.live.interest
        if isinstance(op, CancelEvent):
            _, values = interest.event_column_entries(op.event)
            return float(np.abs(values).sum())
        if isinstance(op, DriftInterest):
            old = dict(
                zip(*(arr.tolist() for arr in interest.event_column_entries(op.event)))
            )
            new = dict(op.interest)
            # sorted: float accumulation order must not depend on set
            # hash order, or the pressure threshold comparison drifts
            users = sorted(set(old) | set(new))
            return float(
                sum(abs(new.get(u, 0.0) - old.get(u, 0.0)) for u in users)
            )
        return 0.0  # budget raises carry no interest mass

    def describe(self) -> str:
        threshold = (
            f"{self._threshold:.3g}" if self._threshold is not None else "auto"
        )
        return f"{self.name}(threshold={threshold})"


#: Policy names accepted by :func:`make_policy` and the CLI, in the order
#: the benchmark reports them.
POLICY_NAMES: tuple[str, ...] = ("incremental", "periodic-rebuild", "hybrid")

_POLICIES: dict[str, type[MaintenancePolicy]] = {
    IncrementalPolicy.name: IncrementalPolicy,
    PeriodicRebuildPolicy.name: PeriodicRebuildPolicy,
    HybridPolicy.name: HybridPolicy,
}


def make_policy(name: str, **params: Any) -> MaintenancePolicy:
    """Construct a maintenance policy by registry name."""
    cls = _POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown maintenance policy {name!r}; choose from {POLICY_NAMES}"
        )
    return cls(**params)
