"""Resilience benchmark: crash recovery, fault injection, journaling cost.

Three sections, each with an always-on correctness gate (a gate failure
fails the run, smoke included — this is the CI chaos smoke):

* **recovery** — run a durable stream replay, kill it at several points,
  recover and resume each one; reports recovery latency vs surviving
  journal length.  Gate: every resumed run's final utility, schedule and
  per-op utility trajectory are *bit-identical* to the uninterrupted
  reference.  A second gate, ``zero_checkpoint_freezes``, spans this
  section and the overhead one: no durable replay (killed, resumed, or
  run to the end) may freeze its live instance, so a checkpoint that
  snapshots the instance again fails the run.
* **faults** — the same shard fan-out executed clean and under a seeded
  :class:`~repro.resilience.FaultPlan` (crashes, stalls, IO errors) with
  bounded retries; plus writer-stall injection on a serving session.
  Gate: the fault-injected map returns results bitwise equal to the
  clean run (retry + serial fallback make convergence unconditional).
* **overhead** — the same replay with durability off, on, and on with
  ``fsync="always"``; plus a mutation burst on a durable serving
  session.  Gate: zero un-journaled mutations (journal offset equals
  the mutation count exactly).

Usage::

    python benchmarks/bench_resilience.py            # full scale
    python benchmarks/bench_resilience.py --smoke    # CI-sized
    python benchmarks/bench_resilience.py --json BENCH_resilience.json

The committed ``BENCH_resilience.json`` artifact tracks journaling
overhead and recovery latency across PRs.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from collections.abc import Sequence
from pathlib import Path

if __package__ in (None, ""):  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.artifacts import write_artifact

from repro.core.engine import EngineSpec
from repro.resilience import Durability, FaultPlan, RetryPolicy, recover
from repro.serve import ServingSession
from repro.shard.executor import ShardExecutor
from repro.stream import StreamDriver
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

LARGE = {
    "users": 5_000,
    "k": 24,
    "trace_ops": 48,
    "kill_points": 8,
    "map_thunks": 64,
    "map_rows": 20_000,
    "mutations": 24,
    "checkpoint_every": 8,
}
SMOKE = {
    "users": 200,
    "k": 8,
    "trace_ops": 16,
    "kill_points": 4,
    "map_thunks": 16,
    "map_rows": 2_000,
    "mutations": 8,
    "checkpoint_every": 4,
}

_SEED = 2018


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--seed", type=int, default=_SEED)
    parser.add_argument("--policy", default="incremental")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    return parser


def _workload(scale: dict, seed: int):
    config = ExperimentConfig(k=scale["k"], n_users=scale["users"])
    instance = WorkloadGenerator(root_seed=seed).build(config)
    trace = TraceGenerator(
        config, TraceConfig(n_ops=scale["trace_ops"]), root_seed=seed
    ).generate()
    return instance, trace


def _driver(instance, policy, durability=None):
    return StreamDriver(
        instance,
        policy=policy,
        engine=EngineSpec(),
        durability=durability,
    )


def section_recovery(scale: dict, seed: int, policy: str, root: Path) -> dict:
    instance, trace = _workload(scale, seed)
    clean = _driver(instance, policy).run(trace)
    reference = (
        clean.final_utility,
        dict(clean.final_schedule),
        [r.utility for r in clean.records],
    )

    n_ops = scale["trace_ops"]
    kills = sorted(
        {round(i * n_ops / scale["kill_points"]) for i in range(scale["kill_points"])}
    )
    rows = []
    identical = True
    freezes = 0
    for kill_at in kills:
        durability = Durability(
            root / f"recover-{kill_at}",
            checkpoint_every=scale["checkpoint_every"],
        )
        killed = _driver(instance, policy, durability).run(trace, stop_after=kill_at)
        started = time.perf_counter()
        recovered = recover(durability)
        recover_seconds = time.perf_counter() - started
        resumed = recovered.resume(trace)
        freezes += killed.freezes + resumed.freezes
        resumed_key = (
            resumed.final_utility,
            dict(resumed.final_schedule),
            [r.utility for r in resumed.records],
        )
        identical = identical and resumed_key == reference
        rows.append(
            {
                "kill_at": kill_at,
                "surviving_offset": recovered.offset,
                "checkpoint_offset": recovered.checkpoint_offset,
                "recover_seconds": recover_seconds,
            }
        )
        print(
            f"  kill@{kill_at:3d}: offset {recovered.offset:3d} "
            f"(ckpt {recovered.checkpoint_offset:3d}), "
            f"recovered in {recover_seconds * 1e3:6.1f}ms"
        )
    return {
        "kill_points": rows,
        "clean_final_utility": clean.final_utility,
        "gate_bit_identical": identical,
        "durable_freezes": freezes,
    }


def section_faults(scale: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    blocks = [
        rng.uniform(0.0, 1.0, (scale["map_rows"] // scale["map_thunks"], 8))
        for _ in range(scale["map_thunks"])
    ]
    thunks = [lambda b=b: float(b.sum()) for b in blocks]

    clean_executor = ShardExecutor(workers=4, kind="thread")
    started = time.perf_counter()
    clean_results = clean_executor.map(thunks)
    clean_seconds = time.perf_counter() - started

    plan = FaultPlan(
        seed=seed, worker_crash=0.15, worker_stall=0.1, io_error=0.1,
        stall_seconds=1e-4,
    )
    faulted_executor = ShardExecutor(
        workers=4, kind="thread", fault_plan=plan,
        retry=RetryPolicy(backoff_base=1e-4),
    )
    started = time.perf_counter()
    faulted_results = faulted_executor.map(thunks)
    faulted_seconds = time.perf_counter() - started
    stats = faulted_executor.stats()
    converged = faulted_results == clean_results

    print(
        f"  map: clean {clean_seconds * 1e3:6.1f}ms, "
        f"faulted {faulted_seconds * 1e3:6.1f}ms "
        f"({sum(stats['faults'].values())} faults, "
        f"{stats['retries']} retries, {stats['fallbacks']} fallbacks)"
    )

    # writer-stall injection on a serving session: mutations succeed and
    # are counted even when every write stalls
    instance, _ = _workload(scale, seed)
    session = ServingSession(
        instance,
        fault_plan=FaultPlan(seed=seed, writer_stall=1.0, stall_seconds=1e-4),
    )
    for index in range(scale["mutations"]):
        session.add_competing(
            interval=index % instance.n_intervals,
            interest_column=rng.uniform(0.0, 1.0, instance.n_users),
        )
    writer_stalls = session.pool_stats().writer_stalls

    return {
        "map_clean_seconds": clean_seconds,
        "map_faulted_seconds": faulted_seconds,
        "fault_counts": stats["faults"],
        "retries": stats["retries"],
        "fallbacks": stats["fallbacks"],
        "writer_stalls": writer_stalls,
        "gate_converges_to_clean": converged
        and writer_stalls == scale["mutations"],
    }


def section_overhead(scale: dict, seed: int, policy: str, root: Path) -> dict:
    instance, trace = _workload(scale, seed)

    freezes = 0

    def timed(durability):
        nonlocal freezes
        started = time.perf_counter()
        result = _driver(instance, policy, durability).run(trace)
        freezes += result.freezes
        return time.perf_counter() - started

    plain_seconds = timed(None)
    interval_dir = Durability(
        root / "overhead-interval", checkpoint_every=scale["checkpoint_every"]
    )
    interval_seconds = timed(interval_dir)
    always_dir = Durability(
        root / "overhead-always",
        checkpoint_every=scale["checkpoint_every"],
        fsync="always",
    )
    always_seconds = timed(always_dir)
    journal_bytes = interval_dir.journal_path.stat().st_size
    files = list(interval_dir.checkpoint_directory.glob("ckpt-*.json"))
    checkpoints = len(files)
    checkpoint_bytes = sum(path.stat().st_size for path in files)
    print(
        f"  replay: plain {plain_seconds * 1e3:6.1f}ms, "
        f"durable {interval_seconds * 1e3:6.1f}ms, "
        f"fsync-always {always_seconds * 1e3:6.1f}ms "
        f"({journal_bytes} journal bytes, {checkpoints} checkpoints, "
        f"{checkpoint_bytes} checkpoint bytes)"
    )

    # zero un-journaled mutations: the serve journal offset must equal
    # the number of acknowledged mutations exactly
    rng = np.random.default_rng(seed)
    session = ServingSession(
        instance, durability=Durability(root / "overhead-serve")
    )
    for index in range(scale["mutations"]):
        session.add_competing(
            interval=index % instance.n_intervals,
            interest_column=rng.uniform(0.0, 1.0, instance.n_users),
        )
    journaled = session.journal_offset
    session.close()

    return {
        "replay_plain_seconds": plain_seconds,
        "replay_durable_seconds": interval_seconds,
        "replay_fsync_always_seconds": always_seconds,
        "durable_overhead_ratio": (
            interval_seconds / plain_seconds if plain_seconds else None
        ),
        "journal_bytes": journal_bytes,
        "checkpoint_bytes": checkpoint_bytes,
        "checkpoints": checkpoints,
        "replay_freezes": freezes,
        "mutations": scale["mutations"],
        "journaled_mutations": journaled,
        "gate_zero_unjournaled": journaled == scale["mutations"],
    }


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scale = dict(SMOKE if args.smoke else LARGE)
    if args.users is not None:
        scale["users"] = args.users

    with tempfile.TemporaryDirectory(prefix="ses-resilience-") as tmp:
        root = Path(tmp)
        print(f"recovery ({scale['kill_points']} kill points):")
        recovery = section_recovery(scale, args.seed, args.policy, root)
        print("faults:")
        faults = section_faults(scale, args.seed)
        print("overhead:")
        overhead = section_overhead(scale, args.seed, args.policy, root)

    checks = {
        "recovery_bit_identical": recovery["gate_bit_identical"],
        "faults_converge_to_clean": faults["gate_converges_to_clean"],
        "zero_unjournaled_mutations": overhead["gate_zero_unjournaled"],
        "zero_checkpoint_freezes": (
            recovery["durable_freezes"] == 0 and overhead["replay_freezes"] == 0
        ),
    }
    passed = all(checks.values())
    print(
        "checks: "
        + ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    )

    if args.json is not None:
        path = write_artifact(
            args.json,
            "bench_resilience",
            dict(scale, seed=args.seed, smoke=args.smoke, policy=args.policy),
            {
                "recovery": recovery,
                "faults": faults,
                "overhead": overhead,
                "checks": checks,
            },
        )
        print(f"wrote {path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
