"""Streaming-policy benchmark: maintenance cost under a live change stream.

Replays one seeded change trace (arrivals, cancellations, rivals, drift,
budget raises) against every maintenance policy and reports what a
serving operator cares about: per-op latency (mean / p95 / max), final
utility, and the number of full re-solves each policy paid for.

The headline comparison is **incremental maintenance vs. full re-solve
per change op**: the ``periodic-rebuild`` policy with ``rebuild_every=1``
is exactly the "re-solve after every change" baseline, while the
``incremental`` policy absorbs each op with O(delta) LiveInstance
mutations, engine ``apply_delta`` updates and row/column-local score
refreshes.  At the default large setting — the paper's full 42,444-user
Meetup population on the sparse interest backend — the incremental
policy's mean per-op latency beats the rebuild baseline by well over an
order of magnitude at equal final utility (both are GRD-quality).

Since the ScorePlane PR the rebuild policy itself has a measured A/B:
``periodic-rebuild`` runs *warm* (batch re-solves through the live
scheduler's base plane, re-scoring only rows dirtied since the previous
re-solve, zero snapshot freezes) and the benchmark additionally replays
the same trace with ``warm=False`` — the legacy freeze-plus-cold-fill
path — so the warm speedup is measured, not asserted.  Two checks run on
every invocation (CI exercises them via ``--smoke``):

* **fast path** — the pure incremental policy must freeze 0 snapshots
  (:attr:`repro.core.live.LiveInstance.freezes`), and since the warm
  rebuild PR the periodic/hybrid policies must too;
* **warm scoring** — across the warm periodic replay, every re-solve
  after the first must re-score strictly fewer cells than the cold fill
  it replaced (the plane's ``cells_refreshed`` accounting).

A per-kind *structural latency* panel breaks each policy's cost down by
op kind (arrive / cancel / rival / drift / budget).

Usage::

    python benchmarks/bench_stream_policies.py            # large: Meetup scale
    python benchmarks/bench_stream_policies.py --smoke    # seconds-scale CI run
    python benchmarks/bench_stream_policies.py --users 8000 --ops 20
    python benchmarks/bench_stream_policies.py --json BENCH_stream.json

``--json`` writes the machine-readable artifact (per-op latencies,
utility trajectories, rebuild/freeze counts, plane accounting, warm-vs-
cold speedup) through ``benchmarks/artifacts.py``; the committed
``BENCH_stream.json`` tracks these numbers across PRs.

Unlike the pytest-benchmark suites next door, this is a plain script so
CI can smoke it exactly like the examples (no extra deps).
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from pathlib import Path

if __package__ in (None, ""):  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.artifacts import write_artifact

from repro.core.engine import EngineSpec
from repro.stream import POLICY_NAMES, StreamDriver, StreamResult, make_policy
from repro.workloads.config import MEETUP_USERS, ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

#: The large setting: full Meetup population, sparse pipeline.
LARGE = {"users": MEETUP_USERS, "k": 60, "ops": 10}
#: The CI smoke setting: seconds-scale, same code path.
SMOKE = {"users": 250, "k": 10, "ops": 8}

_SEED = 2018  # the paper's year, as everywhere in the benchmark suite
_ENGINE = EngineSpec()  # the default sparse stack


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-scale run for CI (seconds, not minutes)",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("-k", type=int, default=None)
    parser.add_argument("--seed", type=int, default=_SEED)
    parser.add_argument(
        "--oracle-every",
        type=int,
        default=None,
        help="sample regret vs a fresh GRD solve every N ops",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the machine-readable artifact (BENCH_stream.json)",
    )
    return parser


def run_policies(
    args: argparse.Namespace,
) -> tuple[list[StreamResult], dict]:
    scale = dict(SMOKE if args.smoke else LARGE)
    if args.users is not None:
        scale["users"] = args.users
    if args.k is not None:
        scale["k"] = args.k
    if args.ops is not None:
        scale["ops"] = args.ops

    config = ExperimentConfig(
        k=scale["k"],
        n_users=scale["users"],
        interest_backend=_ENGINE.interest_backend,
    )
    trace = TraceGenerator(
        config, TraceConfig(n_ops=scale["ops"]), root_seed=args.seed
    ).generate()
    print(trace.describe())

    started = time.perf_counter()
    instance = WorkloadGenerator(root_seed=args.seed).build(config)
    print(
        f"{instance.describe()} "
        f"[built in {time.perf_counter() - started:.1f}s, "
        f"mu nnz={instance.interest.nnz_candidate()}]"
    )

    results = []
    walls = {}
    # the three maintained policies, the warm heap-GRD rebuild variant
    # (same utility as GRD, lazy rescoring instead of full row sweeps),
    # and the legacy cold-rebuild baseline both warm paths are measured
    # against
    runs = [
        (name, {"rebuild_every": 1} if name == "periodic-rebuild" else {})
        for name in POLICY_NAMES
    ]
    runs.append(
        ("periodic-rebuild", {"rebuild_every": 1, "solver": "grd-heap"})
    )
    runs.append(("periodic-rebuild", {"rebuild_every": 1, "warm": False}))
    for name, params in runs:
        driver = StreamDriver(
            instance,
            policy=make_policy(name, **params),
            engine=_ENGINE,
            oracle_every=args.oracle_every,
        )
        started = time.perf_counter()
        result = driver.run(trace)
        walls[result.policy] = time.perf_counter() - started
        print(
            f"  {result.summary()} "
            f"[replay wall {walls[result.policy]:.1f}s]"
        )
        results.append(result)
    return results, scale, walls


def latency_by_kind(result: StreamResult) -> dict[str, list[float]]:
    """Per-op-kind latency samples (op labels are ``kind[:target]``)."""
    samples: dict[str, list[float]] = {}
    for record in result.records:
        samples.setdefault(record.label.split(":")[0], []).append(
            record.latency_seconds
        )
    return samples


def report(results: Sequence[StreamResult]) -> None:
    print()
    header = (
        f"{'policy':<28} {'final utility':>14} {'mean op':>10} "
        f"{'p95 op':>10} {'max op':>10} {'rebuilds':>9} {'freezes':>8}"
    )
    print(header)
    print("-" * len(header))
    for result in results:
        print(
            f"{result.policy:<28} {result.final_utility:>14.4f} "
            f"{result.mean_latency() * 1e3:>8.1f}ms "
            f"{result.percentile_latency(0.95) * 1e3:>8.1f}ms "
            f"{result.max_latency() * 1e3:>8.1f}ms "
            f"{result.rebuilds:>9} {result.freezes:>8}"
        )

    kinds = sorted(
        {kind for result in results for kind in latency_by_kind(result)}
    )
    print("\nstructural latency by op kind (mean ms):")
    header = f"{'policy':<28}" + "".join(f" {kind:>9}" for kind in kinds)
    print(header)
    print("-" * len(header))
    for result in results:
        samples = latency_by_kind(result)
        cells = []
        for kind in kinds:
            kind_samples = samples.get(kind)
            cells.append(
                f" {sum(kind_samples) / len(kind_samples) * 1e3:>7.1f}ms"
                if kind_samples
                else f" {'-':>9}"
            )
        print(f"{result.policy:<28}" + "".join(cells))

    incremental = find_policy(results, "incremental")
    rebuild = find_policy(results, "periodic-rebuild")
    heap_rebuild = find_policy(results, "periodic-rebuild", solver="grd-heap")
    cold = find_policy(results, "periodic-rebuild", cold=True)
    if incremental and rebuild and incremental.mean_latency() > 0:
        speedup = rebuild.mean_latency() / incremental.mean_latency()
        print(
            f"\nincremental maintenance vs warm re-solve per change op: "
            f"{incremental.mean_latency() * 1e3:.1f}ms vs "
            f"{rebuild.mean_latency() * 1e3:.1f}ms per op "
            f"-> {speedup:.1f}x faster"
        )
    if rebuild and cold and rebuild.mean_latency() > 0:
        speedup = cold.mean_latency() / rebuild.mean_latency()
        print(
            f"warm vs cold periodic rebuild per change op (GRD): "
            f"{rebuild.mean_latency() * 1e3:.1f}ms vs "
            f"{cold.mean_latency() * 1e3:.1f}ms "
            f"-> {speedup:.1f}x faster (ScorePlane warm re-solves)"
        )
    if heap_rebuild and cold and heap_rebuild.mean_latency() > 0:
        speedup = cold.mean_latency() / heap_rebuild.mean_latency()
        print(
            f"warm heap-GRD rebuild vs cold GRD rebuild per change op: "
            f"{heap_rebuild.mean_latency() * 1e3:.1f}ms vs "
            f"{cold.mean_latency() * 1e3:.1f}ms "
            f"-> {speedup:.1f}x faster (same utility; lazy rescoring)"
        )


def find_policy(
    results: Sequence[StreamResult],
    name: str,
    cold: bool = False,
    solver: str | None = None,
) -> StreamResult | None:
    for result in results:
        if result.policy.split("(")[0] != name:
            continue
        if (", cold" in result.policy) != cold:
            continue
        if solver is not None and f" {solver}" not in result.policy:
            continue
        if solver is None and "grd-heap" in result.policy:
            continue
        return result
    return None


def check_fast_path(results: Sequence[StreamResult]) -> int:
    """Assert the O(delta) structural fast path was actually taken.

    Runs on every invocation (CI exercises it via ``--smoke``).  Since
    batch re-solves and oracle regret samples run warm over the live
    view, *no* warm policy may materialize a single O(instance)
    snapshot; only the legacy ``warm=False`` baseline is allowed its
    one freeze per re-solve.  A regression that silently reroutes change
    ops (or re-solves) through full-instance rebuilds shows up here.
    """
    failures = []
    for result in results:
        cold = ", cold" in result.policy
        if cold:
            if result.freezes > result.rebuilds:
                failures.append(
                    f"cold baseline froze {result.freezes} snapshot(s) for "
                    f"{result.rebuilds} re-solve(s); expected at most one "
                    f"each"
                )
        elif result.freezes:
            failures.append(
                f"{result.policy} froze {result.freezes} snapshot(s); warm "
                f"policies must never materialize one"
            )
    for failure in failures:
        print(f"FAST-PATH CHECK FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("fast-path check: ok (all warm replays froze 0 snapshots)")
    return len(failures)


def check_warm_scoring(results: Sequence[StreamResult]) -> int:
    """Assert warm re-solves re-score strictly less than cold fills.

    The warm periodic replay pays one cold fill up front; every
    remaining re-solve is warm,
    and the plane's accounting must show those warm re-solves re-scored
    strictly fewer cells *in total* than the cold fills they replaced —
    the ScorePlane acceptance bar.
    """
    result = find_policy(results, "periodic-rebuild")
    failures = []
    if result is None or result.base_plane_stats is None:
        failures.append("warm periodic replay reported no plane accounting")
    else:
        stats = result.base_plane_stats
        warm_solves = result.rebuilds - stats["fills"]
        if not 1 <= stats["fills"] <= max(1, result.rebuilds // 2):
            failures.append(
                f"measured {stats['fills']} cold fill(s) across "
                f"{result.rebuilds} re-solve(s); warm re-solving is not "
                f"actually happening"
            )
        cold_cells = stats["cells_filled"] // max(1, stats["fills"])
        if warm_solves > 0 and not (
            stats["cells_refreshed"] < warm_solves * cold_cells
        ):
            failures.append(
                f"warm re-solves re-scored {stats['cells_refreshed']} cells "
                f"over {warm_solves} solve(s) — not fewer than the "
                f"{warm_solves * cold_cells} a cold path would sweep"
            )
    for failure in failures:
        print(f"WARM-SCORING CHECK FAILED: {failure}", file=sys.stderr)
    if not failures:
        stats = result.base_plane_stats
        print(
            f"warm-scoring check: ok ({stats['cells_refreshed']} cells "
            f"re-scored across {result.rebuilds - stats['fills']} warm "
            f"re-solve(s) vs {stats['cells_filled'] // stats['fills']} per "
            f"cold fill)"
        )
    return len(failures)


def artifact_payload(
    results: Sequence[StreamResult], walls: dict[str, float]
) -> dict:
    payload = {"policies": [result.as_dict() for result in results]}
    for record, wall in walls.items():
        for entry in payload["policies"]:
            if entry["policy"] == record:
                entry["replay_wall_seconds"] = wall
    warm = find_policy(results, "periodic-rebuild")
    heap = find_policy(results, "periodic-rebuild", solver="grd-heap")
    cold = find_policy(results, "periodic-rebuild", cold=True)
    incremental = find_policy(results, "incremental")
    if warm and cold and warm.mean_latency() > 0:
        payload["warm_vs_cold_rebuild_speedup"] = (
            cold.mean_latency() / warm.mean_latency()
        )
    if heap and cold and heap.mean_latency() > 0:
        payload["warm_heap_vs_cold_rebuild_speedup"] = (
            cold.mean_latency() / heap.mean_latency()
        )
    if warm and incremental and incremental.mean_latency() > 0:
        payload["rebuild_vs_incremental_ratio"] = (
            warm.mean_latency() / incremental.mean_latency()
        )
    return payload


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    results, scale, walls = run_policies(args)
    report(results)
    failures = check_fast_path(results)
    failures += check_warm_scoring(results)
    if args.json is not None:
        scale_record = dict(
            scale, engine=_ENGINE.kind, seed=args.seed, smoke=args.smoke
        )
        path = write_artifact(
            args.json,
            "bench_stream_policies",
            scale_record,
            artifact_payload(results, walls),
        )
        print(f"wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
