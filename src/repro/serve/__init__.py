"""``repro.serve`` — the concurrent serving subsystem.

PRs 2–5 made single-client serving fast (memoized engines, warm
:class:`~repro.core.scoreplane.ScorePlane` matrices, O(delta) live
mutations); this package makes it *concurrent*, following the
single-writer / versioned-reader architecture of production schedule
servers (pretalx is the reference in PAPERS.md):

* :mod:`repro.serve.pool` — :class:`PlanePool`: one warm single-writer
  primary plane per :class:`~repro.core.engine.EngineSpec`, copy-on-write
  forked read replicas with generation invalidation, bounded LRU reuse;
* :mod:`repro.serve.session` — :class:`ServingSession`: the thread-safe
  front-end routing mutations through the writer lock while solves,
  what-ifs and stream simulations run in parallel on replicas.  It
  inherits every organizer and analysis method from
  :class:`repro.api.session.BaseSession`, the base
  :class:`~repro.api.ScheduleSession` shares, and adds only its read
  hook (pool leases and version snapshots), deadline-aware solves, the
  mutators (each commits the stream's change op for its change),
  durability and the pool accessors.  (``repro.serve``
  imports ``repro.api``, never the reverse.)

The load-bearing guarantees, all differential-tested: a forked replica's
solves are bit-identical to the parent plane's; K concurrent clients
produce bit-identical responses to a serial replay; and a replica is
never silently stale — it either matches the current generation or is
discarded.
"""

from repro.serve.pool import PlanePool, PoolStats, Replica
from repro.serve.session import ServedResponse, ServingSession

__all__ = [
    "PlanePool",
    "PoolStats",
    "Replica",
    "ServedResponse",
    "ServingSession",
]
