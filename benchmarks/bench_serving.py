"""Concurrent serving benchmark: warm PlanePool vs cold per-request solves.

N client threads hammer one :class:`repro.serve.ServingSession` with a
pre-sampled workload (see :mod:`repro.serve.workload` — randomness is
bound to items, not workers, so a fixed seed gives the same response
fingerprints regardless of thread interleaving).  Three phases:

* **solve throughput** — the acceptance metric: the same solve-only
  request list served warm (pool of forked replicas) and cold (solver +
  engine built per request), at the same client count.  Reports
  solves-per-second both ways, the speedup, and p50/p95/p99 latency;
* **mixed workload** — solve / what-if / stream items interleaved, for
  latency percentiles per kind and the warm-vs-cold parity check
  (fingerprints must match bit for bit);
* **mutation churn** — writer commits (rival announcements, interest
  drift) between read batches: generations bump, parked replicas
  invalidate, re-forks stay O(cells) warm.

Always-on fast-path checks (a regression fails the run, smoke included):
replica forks must be O(cells) copies — aggregate replica
``cells_filled`` stays 0; the workload must produce at least one pool
hit; and every phase's fingerprints must equal the cold baseline's.

Usage::

    python benchmarks/bench_serving.py                  # 20k users, sparse
    python benchmarks/bench_serving.py --smoke          # CI-sized
    python benchmarks/bench_serving.py --json BENCH_serving.json

The full-scale ``--json`` artifact is committed as ``BENCH_serving.json``
— the evidence for the ISSUE's ">=3x solves-per-second at >=8 concurrent
clients" acceptance bar.
"""

from __future__ import annotations

import argparse
import math
import queue
import sys
import threading
import time
from collections.abc import Callable, Sequence
from pathlib import Path

if __package__ in (None, ""):  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.artifacts import write_artifact

from repro.core.engine import EngineSpec
from repro.serve import ServingSession, WorkItem, make_workload, run_item
from repro.serve.workload import run_item_cold
from repro.utils.rng import SeedSequenceFactory
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

LARGE = {
    "users": 20_000,
    "k": 60,
    "solve_requests": 40,
    "mixed_requests": 12,
    "mutations": 3,
    "post_requests": 6,
    "trace_ops": 6,
}
SMOKE = {
    "users": 250,
    "k": 10,
    "solve_requests": 12,
    "mixed_requests": 8,
    "mutations": 2,
    "post_requests": 4,
    "trace_ops": 4,
}

_SEED = 2018


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("-k", type=int, default=None)
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent client threads"
    )
    parser.add_argument("--seed", type=int, default=_SEED)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless warm solves/sec >= this multiple of cold",
    )
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    return parser


def run_concurrent(
    items: Sequence[WorkItem],
    clients: int,
    execute: Callable[[WorkItem], tuple],
) -> tuple[float, list[float], list[tuple]]:
    """Drain ``items`` with ``clients`` worker threads; returns
    (wall seconds, per-item latencies, per-item fingerprints), both
    indexed by item position so results are interleaving-independent."""
    pending: queue.Queue[WorkItem] = queue.Queue()
    for item in items:
        pending.put(item)
    latencies: list[float] = [0.0] * len(items)
    fingerprints: list[tuple] = [()] * len(items)
    errors: list[BaseException] = []

    def worker() -> None:
        while True:
            try:
                item = pending.get_nowait()
            except queue.Empty:
                return
            started = time.perf_counter()
            try:
                fingerprints[item.index] = execute(item)
            except BaseException as exc:  # surface, don't swallow
                errors.append(exc)
                return
            latencies[item.index] = time.perf_counter() - started

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall, latencies, fingerprints


def percentiles(latencies: Sequence[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    def at(q: float) -> float:
        return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99)}


def phase_row(
    name: str, n_items: int, wall: float, latencies: Sequence[float]
) -> dict:
    row = {
        "phase": name,
        "items": n_items,
        "wall_seconds": wall,
        "items_per_second": n_items / wall if wall else None,
        **{f"latency_{k}": v for k, v in percentiles(latencies).items()},
    }
    print(
        f"  {name:<18} {n_items:3d} items in {wall:7.2f}s  "
        f"({row['items_per_second']:6.2f}/s)  "
        f"p50 {row['latency_p50'] * 1e3:7.1f}ms  "
        f"p95 {row['latency_p95'] * 1e3:7.1f}ms  "
        f"p99 {row['latency_p99'] * 1e3:7.1f}ms"
    )
    return row


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scale = dict(SMOKE if args.smoke else LARGE)
    if args.users is not None:
        scale["users"] = args.users
    if args.k is not None:
        scale["k"] = args.k

    spec = EngineSpec()
    config = ExperimentConfig(
        k=scale["k"],
        n_users=scale["users"],
        interest_backend=spec.interest_backend,
    )
    started = time.perf_counter()
    instance = WorkloadGenerator(root_seed=args.seed).build(config)
    trace = TraceGenerator(
        config, TraceConfig(n_ops=scale["trace_ops"]), root_seed=args.seed
    ).generate()
    print(
        f"{instance.describe()} [built in {time.perf_counter() - started:.1f}s]"
        f" | {args.clients} clients"
    )

    serving = ServingSession(instance, default_engine=spec)
    checks: dict[str, bool] = {}

    # -- phase 1: solve throughput, warm vs cold -------------------------
    solve_items = make_workload(
        scale["solve_requests"], scale["k"], args.seed, engine=spec
    )
    print("solve throughput (same requests, same client count):")
    cold_wall, cold_lat, cold_fps = run_concurrent(
        solve_items, args.clients,
        lambda item: run_item_cold(instance, item, default_engine=spec),
    )
    cold_row = phase_row("cold per-request", len(solve_items), cold_wall, cold_lat)
    warm_wall, warm_lat, warm_fps = run_concurrent(
        solve_items, args.clients, lambda item: run_item(serving, item)
    )
    warm_row = phase_row("warm pool", len(solve_items), warm_wall, warm_lat)
    speedup = cold_wall / warm_wall if warm_wall else float("inf")
    checks["solve_parity"] = warm_fps == cold_fps
    print(
        f"  -> {speedup:.2f}x solves-per-second "
        f"({'bit-identical' if checks['solve_parity'] else 'PARITY FAILURE'})"
    )

    # -- phase 2: mixed workload (solve / what-if / stream) --------------
    mixed_items = make_workload(
        scale["mixed_requests"],
        scale["k"],
        args.seed + 1,
        engine=spec,
        n_competing=instance.n_competing,
        whatif_every=5,
        trace=trace,
        stream_every=7,
    )
    print("mixed workload (solve / what-if / stream):")
    mixed_wall, mixed_lat, mixed_fps = run_concurrent(
        mixed_items, args.clients, lambda item: run_item(serving, item)
    )
    mixed_row = phase_row("warm mixed", len(mixed_items), mixed_wall, mixed_lat)
    mixed_cold_wall, mixed_cold_lat, mixed_cold_fps = run_concurrent(
        mixed_items, args.clients,
        lambda item: run_item_cold(instance, item, default_engine=spec),
    )
    mixed_cold_row = phase_row(
        "cold mixed", len(mixed_items), mixed_cold_wall, mixed_cold_lat
    )
    checks["mixed_parity"] = mixed_fps == mixed_cold_fps
    mixed_row["kinds"] = {
        kind: sum(1 for item in mixed_items if item.kind == kind)
        for kind in ("solve", "what-if", "stream")
    }

    # -- phase 3: mutation churn -----------------------------------------
    factory = SeedSequenceFactory(args.seed + 2)
    mutation_rng = factory.spawn()
    for _ in range(scale["mutations"]):
        if mutation_rng.random() < 0.5:
            serving.add_competing(
                int(mutation_rng.integers(instance.n_intervals)),
                mutation_rng.random(instance.n_users),
            )
        else:
            serving.update_event_interest(
                int(mutation_rng.integers(instance.n_events)),
                mutation_rng.random(instance.n_users),
            )
    post_items = make_workload(
        scale["post_requests"], scale["k"], args.seed + 3, engine=spec
    )
    print(f"after {scale['mutations']} writer commit(s):")
    post_wall, post_lat, post_fps = run_concurrent(
        post_items, args.clients, lambda item: run_item(serving, item)
    )
    post_row = phase_row("warm re-forked", len(post_items), post_wall, post_lat)
    version_instance = serving.version_instance()
    _, _, post_cold_fps = run_concurrent(
        post_items, args.clients,
        lambda item: run_item_cold(
            version_instance, item, default_engine=spec
        ),
    )
    checks["post_mutation_parity"] = post_fps == post_cold_fps

    # -- fast-path checks -------------------------------------------------
    stats = serving.pool_stats()
    checks["zero_replica_cold_cells"] = stats.replica_cold_cells == 0
    checks["pool_hits"] = stats.hits >= 1
    checks["invalidations_on_write"] = stats.invalidations >= 1
    checks["generation_tracks_writes"] = stats.generation == scale["mutations"]
    if args.min_speedup:
        checks["min_speedup"] = speedup >= args.min_speedup
    print(f"pool stats: {stats.as_dict()}")
    passed = all(checks.values())
    print(
        "checks: "
        + ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    )

    if args.json is not None:
        path = write_artifact(
            args.json,
            "bench_serving",
            dict(
                scale,
                engine=spec.kind,
                seed=args.seed,
                smoke=args.smoke,
                clients=args.clients,
            ),
            {
                "solve_throughput": {
                    "cold": cold_row,
                    "warm": warm_row,
                    "speedup": speedup,
                },
                "mixed": {"warm": mixed_row, "cold": mixed_cold_row},
                "post_mutation": post_row,
                "pool_stats": stats.as_dict(),
                "checks": checks,
            },
        )
        print(f"wrote {path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
