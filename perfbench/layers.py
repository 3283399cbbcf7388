"""Wrappers around the public calls at each layer seam, and per-layer metrics.

:class:`Instrumentation` patches the calls below for the traced run only
and restores every original on exit, so code run after it is exactly the
unwrapped program.  Each wrapper passes arguments, results and
exceptions through untouched; what it records goes into its span's
``info``.  Module-level functions are patched in every ``repro`` module
that bound them by name (``from ... import instance_to_dict``), since
that is where callers look them up.

=============  ==============================================================
layer          wrapped public calls
=============  ==============================================================
workloads      ``WorkloadGenerator.build``, ``TraceGenerator.generate``,
               ``synthesize_sharded_instance``
engine         ``scores_for_interval``, ``scores_for_rows``,
               ``scores_for_event``, ``removal_losses``,
               ``scores_excluding_each``, ``EngineSpec.build``, ``clone``
scoreplane     ``ensure``, ``flush``, ``fork``, ``masked_copy``,
               ``apply_delta``, ``restore_column``
algorithms     ``Scheduler.solve``
serve          ``PlanePool.acquire``, ``release``, ``write``,
               ``version_instance``
interactive    ``build_gap_report``
live           ``LiveInstance`` mutators and ``freeze``
stream         ``MaintenancePolicy.apply`` (split by op kind)
resilience     ``DeltaJournal.append``, ``sync``; ``CheckpointStore.write``,
               ``load``; ``recover``
data           ``instance_to_dict``, ``instance_from_dict``
shard          ``ShardedEngine`` queries, ``ShardExecutor.map``
=============  ==============================================================

Two seams only carry context, not spans: ``ShardExecutor.map`` hands
each worker thread a link to the map span, and the deadline solve
thread of ``repro.serve.session`` is linked to the op that started it.
"""

from __future__ import annotations

import functools
import sys
import threading
import types
from collections import defaultdict
from collections.abc import Callable
from typing import Any

from perfbench.tracing import OP, Span, Tracer, self_times

Hook = Callable[..., Any]


def _size(value: Any) -> int:
    return len(value) if hasattr(value, "__len__") else 0


class Instrumentation:
    """Installs the span wrappers; use as a context manager."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple[Any, str, Any]] = []
        # pool -> PoolStats when first leased from, for counter deltas
        self._pools: dict[int, tuple[Any, Any]] = {}
        self.pool_deltas: dict[str, int] = defaultdict(int)

    # -- patching ---------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrapper(
        self, original: Any, layer: str, call: str,
        before: Hook | None, after: Hook | None, flat: bool = False,
    ) -> Any:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if flat:
                # a call made directly inside a call of its own layer (a
                # row query inside scores_for_rows) adds no information:
                # the outer span already counts its work and time
                current = tracer.current()
                if current is not None and current.layer == layer:
                    return original(*args, **kwargs)
            span = tracer.open(layer, call)
            try:
                token = None if before is None else before(span, *args, **kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, token, result, *args, **kwargs)
                return result
            finally:
                tracer.close(span)

        return wrapper

    def method(
        self, cls: type, name: str, layer: str, *,
        before: Hook | None = None, after: Hook | None = None, flat: bool = False,
    ) -> None:
        original = cls.__dict__[name]
        self._set(cls, name, self._wrapper(
            original, layer, f"{cls.__name__}.{name}", before, after, flat
        ))

    def function(
        self, module_name: str, name: str, layer: str, *,
        before: Hook | None = None, after: Hook | None = None,
    ) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapper = self._wrapper(original, layer, name, before, after)
        for loaded in sorted(sys.modules):
            module = sys.modules[loaded]
            if (loaded == "repro" or loaded.startswith("repro.")) and getattr(
                module, name, None
            ) is original:
                self._set(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        for pool, baseline in self._pools.values():
            now = pool.stats()
            self.pool_deltas["invalidations"] += now.invalidations - baseline.invalidations
            self.pool_deltas["rebuilds"] += now.rebuilds - baseline.rebuilds
        self._pools.clear()

    def __enter__(self) -> Instrumentation:
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- the seams --------------------------------------------------------
    def install(self) -> None:
        import repro.interactive.gaps  # noqa: F401 - bound by name below
        import repro.resilience.stream  # noqa: F401
        import repro.serve.session
        import repro.shard.executor
        from repro.algorithms.base import Scheduler
        from repro.core.engine import EngineSpec, ScoreEngine, SparseEngine
        from repro.core.live import LiveInstance
        from repro.core.scoreplane import ScorePlane
        from repro.resilience.checkpoint import CheckpointStore
        from repro.resilience.journal import DeltaJournal
        from repro.serve.pool import PlanePool
        from repro.shard.engine import ShardedEngine
        from repro.stream import policies
        from repro.workloads.generator import WorkloadGenerator
        from repro.workloads.traces import TraceGenerator

        def info(**values: Any) -> Hook:
            def hook(span: Span, *args: Any, **kwargs: Any) -> None:
                span.info.update(values)
            return hook

        # workloads
        self.method(WorkloadGenerator, "build", "workloads", before=info(kind="build"))
        self.method(TraceGenerator, "generate", "workloads", before=info(kind="trace"))
        self.function("repro.workloads.generator", "synthesize_sharded_instance",
                      "workloads", before=info(kind="build"))

        # engine: queries carry their cell count
        def cells(count: Callable[..., int]) -> Hook:
            def hook(span: Span, *args: Any, **kwargs: Any) -> None:
                span.info["kind"] = "query"
                span.info["cells"] = count(*args, **kwargs)
            return hook

        for name, count in (
            ("scores_for_interval", lambda self, interval, events: _size(events)),
            ("scores_for_event", lambda self, event, intervals: _size(intervals)),
            ("removal_losses", lambda self, events: _size(events)),
            ("scores_excluding_each",
             lambda self, event, interval, excluding: _size(excluding)),
        ):
            self.method(SparseEngine, name, "engine", before=cells(count), flat=True)
        self.method(ScoreEngine, "scores_for_rows", "engine", before=cells(
            lambda self, intervals, events: _size(intervals) * _size(events)
        ), flat=True)
        self.method(EngineSpec, "build", "engine", before=info(kind="build"))
        self.method(ScoreEngine, "clone", "engine", before=info(kind="clone"), flat=True)

        # scoreplane: engine evaluations spent, read off the plane's counters
        def plane_before(span: Span, plane: Any, *args: Any, **kwargs: Any) -> Any:
            return plane.cells_filled, plane.cells_refreshed

        def plane_after(span: Span, token: Any, result: Any, plane: Any,
                        *args: Any, **kwargs: Any) -> None:
            span.info["filled"] = plane.cells_filled - token[0]
            span.info["refreshed"] = plane.cells_refreshed - token[1]

        for name in ("ensure", "flush", "fork", "masked_copy", "apply_delta",
                     "restore_column"):
            self.method(ScorePlane, name, "scoreplane",
                        before=plane_before, after=plane_after, flat=True)

        # algorithms
        def solve_after(span: Span, token: Any, result: Any, *args: Any,
                        **kwargs: Any) -> None:
            span.info.update(result.stats.as_dict())

        self.method(Scheduler, "solve", "algorithms", after=solve_after)

        # serve
        def lease_after(span: Span, token: Any, replica: Any, pool: Any,
                        *args: Any, **kwargs: Any) -> None:
            span.info["hit"] = bool(replica.pool_hit)

        def pool_seen(span: Span, pool: Any, *args: Any, **kwargs: Any) -> None:
            if id(pool) not in self._pools:
                self._pools[id(pool)] = (pool, pool.stats())

        self.method(PlanePool, "acquire", "serve", before=pool_seen, after=lease_after)
        self.method(PlanePool, "release", "serve")
        self.method(PlanePool, "write", "serve", before=pool_seen)
        self.method(PlanePool, "version_instance", "serve")

        # interactive
        self.function("repro.interactive.gaps", "build_gap_report", "interactive")

        # live
        for name in ("add_event", "remove_event", "replace_event_interest",
                     "add_competing"):
            self.method(LiveInstance, name, "live", before=info(kind="mutation"))

        def freeze_before(span: Span, live: Any) -> int:
            return live.freezes

        def freeze_after(span: Span, token: int, result: Any, live: Any) -> None:
            span.info["materialized"] = live.freezes - token

        self.method(LiveInstance, "freeze", "live",
                    before=freeze_before, after=freeze_after)

        # stream, split by op kind
        def op_kind(span: Span, policy: Any, op: Any) -> None:
            span.info["kind"] = op.kind

        for cls in vars(policies).values():
            if (isinstance(cls, type) and issubclass(cls, policies.MaintenancePolicy)
                    and "apply" in cls.__dict__):
                self.method(cls, "apply", "stream", before=op_kind, flat=True)

        # resilience
        self.method(DeltaJournal, "append", "resilience", before=info(kind="append"))

        def sync_after(span: Span, token: Any, result: Any, journal: Any) -> None:
            if journal.path.exists():
                span.info["journal"] = str(journal.path)
                span.info["bytes"] = journal.path.stat().st_size

        self.method(DeltaJournal, "sync", "resilience",
                    before=info(kind="sync"), after=sync_after)

        def checkpoint_after(span: Span, token: Any, path: Any, *args: Any) -> None:
            span.info["bytes"] = path.stat().st_size

        self.method(CheckpointStore, "write", "resilience",
                    before=info(kind="checkpoint"), after=checkpoint_after)
        self.method(CheckpointStore, "load", "resilience", before=info(kind="load"))
        self.function("repro.resilience.stream", "recover", "resilience",
                      before=info(kind="recover"))

        # data
        self.function("repro.data.serialization", "instance_to_dict", "data")
        self.function("repro.data.serialization", "instance_from_dict", "data")

        # shard: engine queries carry the fan-out counters they moved
        def shard_before(span: Span, engine: Any, *args: Any, **kwargs: Any) -> Any:
            return engine.stats()

        def shard_after(span: Span, token: Any, result: Any, engine: Any,
                        *args: Any, **kwargs: Any) -> None:
            now = engine.stats()
            span.info["fanouts"] = now["fanouts"] - token["fanouts"]
            span.info["merged"] = now["merged_partials"] - token["merged_partials"]

        for name in ("scores_for_rows", "scores_for_interval", "scores_for_event",
                     "removal_losses", "scores_excluding_each"):
            self.method(ShardedEngine, name, "shard",
                        before=shard_before, after=shard_after, flat=True)

        tracer = self.tracer
        executor_map = repro.shard.executor.ShardExecutor.__dict__["map"]

        def linked_map(executor: Any, thunks: Any) -> Any:
            parent = tracer.current()
            return executor_map(executor, [
                functools.partial(_run_linked, tracer, parent, thunk)
                for thunk in thunks
            ])

        self._set(repro.shard.executor.ShardExecutor, "map", self._wrapper(
            functools.wraps(executor_map)(linked_map), "shard", "ShardExecutor.map",
            info(kind="map"), None,
        ))

        # the deadline solve thread of ServingSession works for the op
        # that started it
        class LinkedThread(threading.Thread):
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                self._perfbench_parent = tracer.current()

            def run(self) -> None:
                with tracer.linked(self._perfbench_parent):
                    super().run()

        proxy = types.ModuleType("threading")
        proxy.__dict__.update(vars(threading))
        proxy.Thread = LinkedThread  # type: ignore[attr-defined]
        self._set(repro.serve.session, "threading", proxy)


def _run_linked(tracer: Tracer, parent: Span | None, thunk: Callable[[], Any]) -> Any:
    with tracer.linked(parent):
        return thunk()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
#: ``name -> unit`` of every per-layer metric, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "workloads.build_ms": "ms",
    "workloads.trace_ms": "ms",
    "engine.calls": "count",
    "engine.cells": "count",
    "engine.self_ms": "ms",
    "engine.share": "ratio",
    "engine.builds": "count",
    "engine.build_ms": "ms",
    "engine.clones": "count",
    "scoreplane.cells_filled": "count",
    "scoreplane.cells_refreshed": "count",
    "scoreplane.forks": "count",
    "scoreplane.self_ms": "ms",
    "algorithms.solves": "count",
    "algorithms.self_ms": "ms",
    "algorithms.initial_scores": "count",
    "algorithms.score_updates": "count",
    "algorithms.pops": "count",
    "serve.leases": "count",
    "serve.lease_ms": "ms",
    "serve.hit_ratio": "ratio",
    "serve.forks": "count",
    "serve.invalidations": "count",
    "serve.rebuilds": "count",
    "serve.freezes": "count",
    "serve.freeze_ms": "ms",
    "serve.write_ms": "ms",
    "interactive.gap_reports": "count",
    "interactive.self_ms": "ms",
    "live.mutations": "count",
    "live.self_ms": "ms",
    "live.freezes": "count",
    "stream.ops": "count",
    "stream.self_ms": "ms",
    "stream.arrive_ms": "ms",
    "stream.cancel_ms": "ms",
    "stream.rival_ms": "ms",
    "stream.drift_ms": "ms",
    "stream.budget_ms": "ms",
    "resilience.appends": "count",
    "resilience.append_ms": "ms",
    "resilience.syncs": "count",
    "resilience.sync_ms": "ms",
    "resilience.checkpoints": "count",
    "resilience.checkpoint_ms": "ms",
    "resilience.checkpoint_bytes": "bytes",
    "resilience.journal_bytes": "bytes",
    "resilience.recover_load_ms": "ms",
    "resilience.recover_replay_ms": "ms",
    "data.serialize_ms": "ms",
    "data.deserialize_ms": "ms",
    "shard.fanouts": "count",
    "shard.merged_partials": "count",
    "shard.map_ms": "ms",
    "shard.self_ms": "ms",
    "unattributed.share": "ratio",
    "trace.ops": "count",
    "trace.op_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Counts that repeat exactly at a fixed seed (a count-based claim may rest
#: on these).  ``serve.forks``, ``serve.hit_ratio`` and ``engine.clones``
#: follow how the serving clients interleave; ``resilience.journal_bytes``
#: embeds measured latencies.
EXACT_COUNTS: tuple[str, ...] = (
    "engine.calls",
    "engine.cells",
    "scoreplane.cells_filled",
    "scoreplane.cells_refreshed",
    "algorithms.solves",
    "algorithms.initial_scores",
    "algorithms.score_updates",
    "algorithms.pops",
    "resilience.appends",
    "resilience.checkpoints",
    "resilience.checkpoint_bytes",
)


def per_layer_metrics(
    spans: list[Span], pool_deltas: dict[str, int]
) -> dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric except the overhead.

    ``workloads.*`` come from spans of the ``setup`` phase, everything
    else from the ``ops`` phase.  Counts are taken at the outermost span
    of a layer (a call nested directly in a call of the same layer, such
    as the per-row queries inside ``scores_for_rows``, is not counted
    again); times are self times unless the name says otherwise.
    """
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    setup = [span for span in spans if span.phase == "setup"]
    ops = [span for span in spans if span.phase == "ops"]

    def outermost(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        return parent is None or parent.layer != span.layer

    def of(layer: str, phase: list[Span] = ops) -> list[Span]:
        return [span for span in phase if span.layer == layer]

    def self_ms(layer: str) -> float:
        return 1e3 * sum(selfs[span.id] for span in of(layer))

    def total(spans_: list[Span], key: str) -> float:
        return float(sum(span.info.get(key, 0) for span in spans_))

    def inclusive_ms(spans_: list[Span]) -> float:
        return 1e3 * sum(span.duration for span in spans_)

    op_spans = of(OP)
    op_seconds = sum(span.duration for span in op_spans)
    in_ops = sum(
        selfs[span.id] for span in ops if span.layer == "engine" and span.op is not None
    )
    m: dict[str, float] = {}

    builds = [s for s in of("workloads", setup) if s.info.get("kind") == "build"]
    traces = [s for s in of("workloads", setup) if s.info.get("kind") == "trace"]
    m["workloads.build_ms"] = inclusive_ms(builds)
    m["workloads.trace_ms"] = inclusive_ms(traces)

    engine = [s for s in of("engine") if outermost(s)]
    queries = [s for s in engine if s.info.get("kind") == "query"]
    engine_builds = [s for s in engine if s.info.get("kind") == "build"]
    m["engine.calls"] = float(len(queries))
    m["engine.cells"] = total(queries, "cells")
    m["engine.self_ms"] = self_ms("engine")
    m["engine.share"] = in_ops / op_seconds if op_seconds else 0.0
    m["engine.builds"] = float(len(engine_builds))
    m["engine.build_ms"] = inclusive_ms(engine_builds)
    m["engine.clones"] = float(
        len([s for s in engine if s.info.get("kind") == "clone"])
    )

    plane = [s for s in of("scoreplane") if outermost(s)]
    m["scoreplane.cells_filled"] = total(plane, "filled")
    m["scoreplane.cells_refreshed"] = total(plane, "refreshed")
    m["scoreplane.forks"] = float(
        len([s for s in of("scoreplane") if s.call == "ScorePlane.fork"])
    )
    m["scoreplane.self_ms"] = self_ms("scoreplane")

    solves = [s for s in of("algorithms") if outermost(s)]
    m["algorithms.solves"] = float(len(solves))
    m["algorithms.self_ms"] = self_ms("algorithms")
    for key in ("initial_scores", "score_updates", "pops"):
        m[f"algorithms.{key}"] = total(solves, key)

    serve = of("serve")
    leases = [s for s in serve if s.call == "PlanePool.acquire"]
    hits = len([s for s in leases if s.info.get("hit")])
    versions = [s for s in serve if s.call == "PlanePool.version_instance"]
    version_ids = {s.id for s in versions}
    m["serve.leases"] = float(len(leases))
    m["serve.lease_ms"] = 1e3 * sum(selfs[s.id] for s in leases)
    m["serve.hit_ratio"] = hits / len(leases) if leases else 0.0
    m["serve.forks"] = float(len(leases) - hits)
    m["serve.invalidations"] = float(pool_deltas.get("invalidations", 0))
    m["serve.rebuilds"] = float(pool_deltas.get("rebuilds", 0))
    m["serve.freezes"] = total(
        [s for s in of("live") if s.parent in version_ids], "materialized"
    )
    m["serve.freeze_ms"] = inclusive_ms(versions)
    m["serve.write_ms"] = inclusive_ms(
        [s for s in serve if s.call == "PlanePool.write"]
    )

    reports = [s for s in of("interactive") if outermost(s)]
    m["interactive.gap_reports"] = float(len(reports))
    m["interactive.self_ms"] = self_ms("interactive")

    live = [s for s in of("live") if outermost(s)]
    m["live.mutations"] = float(
        len([s for s in live if s.info.get("kind") == "mutation"])
    )
    m["live.self_ms"] = self_ms("live")
    m["live.freezes"] = total(of("live"), "materialized")

    stream = [s for s in of("stream") if outermost(s)]
    m["stream.ops"] = float(len(stream))
    m["stream.self_ms"] = self_ms("stream")
    for kind in ("arrive", "cancel", "rival", "drift", "budget"):
        m[f"stream.{kind}_ms"] = inclusive_ms(
            [s for s in stream if s.info.get("kind") == kind]
        )

    resilience = of("resilience")

    def kind(name: str) -> list[Span]:
        return [s for s in resilience if s.info.get("kind") == name]

    m["resilience.appends"] = float(len(kind("append")))
    m["resilience.append_ms"] = 1e3 * sum(selfs[s.id] for s in kind("append"))
    m["resilience.syncs"] = float(len(kind("sync")))
    m["resilience.sync_ms"] = 1e3 * sum(selfs[s.id] for s in kind("sync"))
    m["resilience.checkpoints"] = float(len(kind("checkpoint")))
    m["resilience.checkpoint_ms"] = 1e3 * sum(selfs[s.id] for s in kind("checkpoint"))
    m["resilience.checkpoint_bytes"] = total(kind("checkpoint"), "bytes")
    journal_sizes: dict[str, int] = {}
    for span in kind("sync"):
        if "journal" in span.info:
            path = span.info["journal"]
            journal_sizes[path] = max(journal_sizes.get(path, 0), span.info["bytes"])
    m["resilience.journal_bytes"] = float(sum(journal_sizes.values()))
    recovers = kind("recover")
    recover_ids = {s.id for s in recovers}

    def under_recover(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in recover_ids:
                return True
            parent = by_id[parent].parent if parent in by_id else None
        return False

    replay_ms = inclusive_ms([s for s in stream if under_recover(s)])
    m["resilience.recover_replay_ms"] = replay_ms
    m["resilience.recover_load_ms"] = inclusive_ms(recovers) - replay_ms

    data = of("data")
    m["data.serialize_ms"] = inclusive_ms(
        [s for s in data if s.call == "instance_to_dict"]
    )
    m["data.deserialize_ms"] = inclusive_ms(
        [s for s in data if s.call == "instance_from_dict"]
    )

    shard = of("shard")
    top_shard = [s for s in shard if outermost(s)]
    m["shard.fanouts"] = total(top_shard, "fanouts")
    m["shard.merged_partials"] = total(top_shard, "merged")
    m["shard.map_ms"] = inclusive_ms(
        [s for s in shard if s.call == "ShardExecutor.map"]
    )
    m["shard.self_ms"] = self_ms("shard")

    m["unattributed.share"] = (
        sum(selfs[s.id] for s in op_spans) / op_seconds if op_seconds else 0.0
    )
    m["trace.ops"] = float(len(op_spans))
    m["trace.op_ms"] = 1e3 * op_seconds
    return m
