"""``ShardedEngine`` — per-block sub-engines whose partials merge by addition.

Every query of Eq. 1-4 is a weighted sum over users, so an engine over the
full instance factors exactly into one engine per user block::

    score(r, t) = sum_b score_b(r, t)        (block b sees only its rows)

Each block runs an unmodified :class:`~repro.core.engine.SparseEngine` over
a :class:`_BlockView` — a duck-typed window of the instance restricted to
the block's user rows.
The sharded engine forwards schedule mutations and live deltas to every
block (deltas localized to the rows each block owns) and merges query
partials **in ascending global block order with a left fold**, which is
what makes results independent of the shard count and of worker
scheduling: blocks are fixed by ``block_users``; shards only decide which
worker computes which partials.

Two deliberate non-shortcuts, both load-bearing for P-independence:

- partials are never pre-reduced per shard (that would regroup the float
  additions as P changes);
- the fold starts from the first block's partial, not from ``zeros``
  (``0.0 + (-0.0)`` is ``0.0``, which would differ bitwise from a
  single-block result of ``-0.0``).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.core.engine import ScoreEngine, SparseEngine
from repro.core.interest import accumulate_entries
from repro.core.live import (
    CompetingAdded,
    EventAdded,
    EventInterestReplaced,
    EventRemoved,
    LiveDelta,
)
from repro.shard.executor import ShardExecutor
from repro.shard.interest import ShardedInterest
from repro.shard.plan import DEFAULT_BLOCK_USERS, ShardPlan

__all__ = ["ShardedEngine", "localize_delta"]


def localize_delta(delta: LiveDelta, lo: int, hi: int) -> LiveDelta:
    """Restrict one live delta to the user-row window ``[lo, hi)``.

    The shard router: every :class:`LiveDelta` subtype must be handled
    here (enforced by the delta-exhaustiveness lint rule), so a future
    delta type cannot silently skip shard routing.  Rows in the returned
    delta are local to the window.
    """
    if isinstance(delta, EventAdded):
        return delta.restricted(lo, hi)
    if isinstance(delta, EventRemoved):
        return delta.restricted(lo, hi)
    if isinstance(delta, EventInterestReplaced):
        return delta.restricted(lo, hi)
    if isinstance(delta, CompetingAdded):
        return delta.restricted(lo, hi)
    raise TypeError(f"unknown live delta {delta!r}")


# ----------------------------------------------------------------------
# block views: the duck-typed instance window a sub-engine consumes
# ----------------------------------------------------------------------
class _BlockInterestView:
    """Interest accessor protocol restricted to user rows ``[lo, hi)``.

    Two source modes, picked once at construction:

    - ``sharded`` — the source is a :class:`ShardedInterest` whose plan
      matches the engine's: gathers go straight to the block's own
      storage, no global state is touched;
    - ``entries`` — anything else (``InterestMatrix``, ``LiveInterest``):
      global column entries are localized with two binary searches
      (:func:`repro.core.interest.slice_entries`).
    """

    __slots__ = ("_source", "_block", "_lo", "_hi", "_sharded")

    def __init__(self, source: Any, block: int, lo: int, hi: int) -> None:
        self._source = source
        self._block = block
        self._lo = lo
        self._hi = hi
        self._sharded = isinstance(source, ShardedInterest)

    # -- shape ----------------------------------------------------------
    @property
    def n_users(self) -> int:
        return self._hi - self._lo

    @property
    def n_events(self) -> int:
        return int(self._source.n_events)

    @property
    def n_competing(self) -> int:
        return int(self._source.n_competing)

    # -- column gather --------------------------------------------------
    def event_column_entries(self, event: int) -> tuple[np.ndarray, np.ndarray]:
        if self._sharded:
            return self._source.block_candidate_entries(self._block, event)
        rows, values = self._source.event_column_entries(event)
        return _slice(rows, values, self._lo, self._hi)

    def competing_column_entries(
        self, competing: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._sharded:
            return self._source.block_competing_entries(self._block, competing)
        rows, values = self._source.competing_column_entries(competing)
        return _slice(rows, values, self._lo, self._hi)

    def competing_mass_entries(
        self, rivals: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block-local ``K_t``: per-user accumulation in rivals order.

        Matches the global ``competing_mass_entries`` restricted to the
        block's rows value for value: the per-user sums accumulate the
        same rivals in the same order.
        """
        return accumulate_entries(
            (self.competing_column_entries(rival) for rival in rivals),
            self.n_users,
        )


def _slice(
    rows: np.ndarray, values: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    from repro.core.interest import slice_entries

    return slice_entries(rows, values, lo, hi)


class _BlockActivity:
    """Activity window: ``sigma`` rows ``[lo, hi)`` as a zero-copy view."""

    __slots__ = ("_source", "_lo", "_hi")

    def __init__(self, source: Any, lo: int, hi: int) -> None:
        self._source = source
        self._lo = lo
        self._hi = hi

    @property
    def matrix(self) -> np.ndarray:
        return self._source.matrix[self._lo : self._hi]


class _BlockView:
    """The instance read surface restricted to one user block.

    Everything an engine or schedule consults delegates to the source
    instance *live* (event/interval counts, competing groups), except the
    user axis, which is windowed to ``[lo, hi)``.  Duck typing is the
    same trick :class:`~repro.core.live.LiveInstance` already relies on.
    """

    __slots__ = ("_instance", "_lo", "_hi", "interest", "activity")

    def __init__(self, instance: Any, block: int, lo: int, hi: int) -> None:
        self._instance = instance
        self._lo = lo
        self._hi = hi
        self.interest = _BlockInterestView(instance.interest, block, lo, hi)
        self.activity = _BlockActivity(instance.activity, lo, hi)

    @property
    def n_users(self) -> int:
        return self._hi - self._lo

    @property
    def n_events(self) -> int:
        return int(self._instance.n_events)

    @property
    def n_intervals(self) -> int:
        return int(self._instance.n_intervals)

    @property
    def n_competing(self) -> int:
        return int(self._instance.n_competing)

    @property
    def theta(self) -> float:
        return float(self._instance.theta)

    @property
    def competing_by_interval(self) -> Any:
        return self._instance.competing_by_interval


# ----------------------------------------------------------------------
# the sharded engine
# ----------------------------------------------------------------------
class ShardedEngine(ScoreEngine):
    """Score engine over P user shards of fixed accumulation blocks.

    Parameters
    ----------
    instance:
        The problem instance (immutable or live).  If its interest is a
        :class:`ShardedInterest`, the engine adopts that plan's block
        size so per-block gathers hit block storage directly.
    shards:
        Dispatch width P.  Affects wall-clock only, never results.
    workers:
        Executor parallelism (defaults to ``shards``).
    block_users:
        Accumulation block size (defaults to the interest plan's, or
        :data:`~repro.shard.plan.DEFAULT_BLOCK_USERS`).  Results depend
        on this value (it fixes the merge grouping) but not on P.
    executor:
        A :class:`ShardExecutor` to dispatch with; default is one with
        ``workers`` workers (inline for one, the shared thread pool for
        more).
    """

    def __init__(
        self,
        instance: Any,
        *,
        shards: int = 1,
        workers: int | None = None,
        block_users: int | None = None,
        executor: ShardExecutor | None = None,
    ) -> None:
        interest = instance.interest
        if isinstance(interest, ShardedInterest):
            native = interest.plan
            if block_users is not None and block_users != native.block_users:
                raise ValueError(
                    f"instance interest is sharded with block_users="
                    f"{native.block_users}; cannot override with {block_users}"
                )
            plan = ShardPlan(
                n_users=native.n_users,
                n_shards=shards,
                block_users=native.block_users,
                seed=native.seed,
            )
        else:
            plan = ShardPlan(
                n_users=int(instance.n_users),
                n_shards=shards,
                block_users=block_users or DEFAULT_BLOCK_USERS,
            )
        self._plan = plan
        self._executor = executor or ShardExecutor(
            workers=shards if workers is None else workers
        )
        self._views = [
            _BlockView(instance, block, *plan.block_bounds(block))
            for block in range(plan.n_blocks)
        ]
        self._engines: list[ScoreEngine] = [
            SparseEngine(view)  # type: ignore[arg-type]
            for view in self._views
        ]
        self._fanouts = 0
        self._merged_partials = 0
        super().__init__(instance)

    # ------------------------------------------------------------------
    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def executor(self) -> ShardExecutor:
        return self._executor

    @property
    def block_engines(self) -> tuple[ScoreEngine, ...]:
        """The per-block sub-engines, in global block order (read-only)."""
        return tuple(self._engines)

    def stats(self) -> dict[str, int]:
        """Fan-out accounting for the CI fast-path gate.

        ``fanouts`` counts parallel batch dispatches
        (:meth:`scores_for_rows` calls); ``merged_partials`` counts block
        partials folded in.  A cold plane fill must cost exactly one
        fan-out of ``n_blocks`` partials — "partials merged once".
        """
        return {
            "fanouts": self._fanouts,
            "merged_partials": self._merged_partials,
            "blocks": self._plan.n_blocks,
            "shards": self._plan.n_shards,
        }

    # ------------------------------------------------------------------
    # merge helpers: left fold in ascending global block order
    # ------------------------------------------------------------------
    def _merge_arrays(self, partials: Sequence[np.ndarray]) -> np.ndarray:
        out: np.ndarray | None = None
        for partial in partials:
            if out is None:
                out = partial  # freshly computed by the sub-engine: owned
            else:
                out += partial
        assert out is not None
        self._merged_partials += len(partials)
        return out

    def _merge_scalars(self, partials: Sequence[float]) -> float:
        out: float | None = None
        for partial in partials:
            out = partial if out is None else out + partial
        assert out is not None
        self._merged_partials += len(partials)
        return out

    def _per_block(self, query: Callable[[ScoreEngine], Any]) -> list[Any]:
        return [query(engine) for engine in self._engines]

    # ------------------------------------------------------------------
    # batched fills: the parallel fan-out
    # ------------------------------------------------------------------
    def scores_for_rows(
        self, intervals: Sequence[int], events: Sequence[int]
    ) -> np.ndarray:
        """All dirty plane rows in one parallel fan-out.

        One thunk per shard computes its blocks' partial matrices; the
        main thread folds them in ascending global block order, so the
        result is identical for any ``shards``/``workers`` and any
        completion order.
        """
        interval_list = [int(t) for t in intervals]
        event_list = [int(e) for e in events]
        if not interval_list or not event_list:
            return np.zeros((len(interval_list), len(event_list)))

        def shard_thunk(blocks: range) -> list[np.ndarray]:
            return [
                self._engines[block].scores_for_rows(interval_list, event_list)
                for block in blocks
            ]

        thunks = [
            (lambda blocks=self._plan.shard_blocks(s): shard_thunk(blocks))
            for s in range(self._plan.n_shards)
        ]
        self._fanouts += 1
        per_shard = self._executor.map(thunks)
        partials = [partial for shard in per_shard for partial in shard]
        return self._merge_arrays(partials)

    # ------------------------------------------------------------------
    # queries: merge per-block partials
    # ------------------------------------------------------------------
    def score(self, event: int, interval: int) -> float:
        # routed through the batched path so a scalar probe, a row refresh
        # and a full fill all merge identical per-block partials
        return float(self.scores_for_rows([interval], [event])[0, 0])

    def scores_for_interval(
        self, interval: int, events: Sequence[int]
    ) -> np.ndarray:
        return self.scores_for_rows([interval], events)[0]

    def scores_for_event(
        self, event: int, intervals: Sequence[int]
    ) -> np.ndarray:
        return self._merge_arrays(
            self._per_block(lambda e: e.scores_for_event(event, intervals))
        )

    def removal_losses(self, events: Sequence[int]) -> np.ndarray:
        return self._merge_arrays(
            self._per_block(lambda e: e.removal_losses(events))
        )

    def removal_loss(self, event: int) -> float:
        return float(self.removal_losses([event])[0])

    def _score_excluding(self, event: int, interval: int, excluding: int) -> float:
        return self._merge_scalars(
            self._per_block(
                lambda e: e._score_excluding(event, interval, excluding)
            )
        )

    def scores_excluding_each(
        self, event: int, interval: int, excluding: Sequence[int]
    ) -> np.ndarray:
        return self._merge_arrays(
            self._per_block(
                lambda e: e.scores_excluding_each(event, interval, excluding)
            )
        )

    def omega(self, event: int) -> float:
        return self._merge_scalars(self._per_block(lambda e: e.omega(event)))

    def interval_utility(self, interval: int) -> float:
        return self._merge_scalars(
            self._per_block(lambda e: e.interval_utility(interval))
        )

    def total_utility(self) -> float:
        # fixed interval-major order (sorted), each interval merged across
        # blocks — deterministic and P-independent
        return sum(
            self.interval_utility(interval)
            for interval in sorted(self._schedule.used_intervals())
        )

    # ------------------------------------------------------------------
    # state: schedule mutations and live deltas forward to every block
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        for engine in self._engines:
            engine.reset()

    def _apply(self, event: int, interval: int, sign: int) -> None:
        for engine in self._engines:
            if sign > 0:
                engine.assign(event, interval)
            else:
                engine.unassign(event)

    def _localized(self, delta: LiveDelta) -> list[LiveDelta]:
        return [
            localize_delta(delta, *self._plan.block_bounds(block))
            for block in range(self._plan.n_blocks)
        ]

    def _on_event_added(self, delta: EventAdded) -> None:
        for engine, local in zip(self._engines, self._localized(delta)):
            engine.apply_delta(local)

    def _on_event_removed(self, delta: EventRemoved) -> None:
        # no user payload: every block ingests the same removal (each
        # renumbers its own schedule mirror)
        for engine in self._engines:
            engine.apply_delta(delta)

    def _on_event_interest_replaced(self, delta: EventInterestReplaced) -> None:
        for engine, local in zip(self._engines, self._localized(delta)):
            engine.apply_delta(local)

    def _on_competing_added(self, delta: CompetingAdded) -> None:
        for engine, local in zip(self._engines, self._localized(delta)):
            engine.apply_delta(local)

    # ------------------------------------------------------------------
    # cloning
    # ------------------------------------------------------------------
    def _clone_shell(self) -> "ShardedEngine":
        other = object.__new__(ShardedEngine)
        other._plan = self._plan
        other._executor = self._executor
        other._views = self._views
        other._engines = [engine.clone() for engine in self._engines]
        other._fanouts = 0
        other._merged_partials = 0
        ScoreEngine.__init__(other, self._instance)
        return other
