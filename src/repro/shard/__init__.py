"""User-axis sharding: partitioned interest state and parallel plane fills.

Every hot quantity in the paper's objective (Eq. 1-4 scores, per-interval
attendance mass, contributor counts) is a sum over users, so the user
dimension shards cleanly into partial aggregates that merge by addition:

- :class:`ShardPlan` -- seeded, deterministic user -> block -> shard layout.
  Accumulation *blocks* are fixed-size and independent of the shard count,
  so merged results are bit-identical for any P.
- :class:`ShardedInterest` -- per-block float64 CSC storage behind the
  existing interest accessor protocol.
- :class:`ShardedEngine` -- per-block sub-engines (the existing sparse
  kernel over block views) whose partials merge by addition in a fixed
  global block order.
- :class:`ShardExecutor` -- per-shard work inline for one worker, on a
  shared thread pool for more (numpy releases the GIL there).
"""

from repro.shard.engine import ShardedEngine, localize_delta
from repro.shard.executor import ShardExecutor
from repro.shard.interest import ShardedInterest
from repro.shard.plan import DEFAULT_BLOCK_USERS, ShardPlan

__all__ = [
    "DEFAULT_BLOCK_USERS",
    "ShardExecutor",
    "ShardPlan",
    "ShardedEngine",
    "ShardedInterest",
    "localize_delta",
]
