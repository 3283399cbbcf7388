"""Warm-start ablation: ScorePlane-fed solves vs cold solves.

Two serving-loop scenarios, both dominated until this PR by the
O(|T| * |E|) initial score sweep every batch solver re-paid per solve:

* **session re-solve** — repeated ``solve`` requests against one
  immutable instance through :class:`repro.api.ScheduleSession`.  The
  session's per-spec :class:`~repro.core.scoreplane.ScorePlane` makes
  every request after the first skip the sweep outright; this benchmark
  times cold vs warm per solver (GRD, heap-GRD, TOP).
* **oracle sampling** — the stream driver's regret oracle re-solves the
  *live* state mid-replay.  The legacy path froze an O(instance)
  snapshot and cold-filled a fresh engine per sample; the warm path
  solves over the live view through the scheduler's base plane,
  re-scoring only rows the ops since the last sample dirtied.

Usage::

    python benchmarks/bench_solver_warm.py                 # 20k users, sparse
    python benchmarks/bench_solver_warm.py --smoke         # CI-sized
    python benchmarks/bench_solver_warm.py --json BENCH_solvers.json

The ``--json`` artifact (see ``benchmarks/artifacts.py``) is committed
as ``BENCH_solvers.json`` — the evidence for the ISSUE's ">=5x faster
oracle sampling" acceptance bar.
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

from repro.algorithms.incremental import IncrementalScheduler
from repro.algorithms.registry import solver_registry
from repro.api import ScheduleSession
from repro.core.engine import EngineSpec
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

LARGE = {"users": 20_000, "k": 60, "ops": 10}
SMOKE = {"users": 250, "k": 10, "ops": 8}

_SEED = 2018
#: Solvers whose first move is the initial sweep (the warm beneficiaries).
SOLVERS = ("grd", "grd-heap", "top")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("-k", type=int, default=None)
    parser.add_argument("--seed", type=int, default=_SEED)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    return parser


def bench_session_resolves(instance, spec, k, repeats):
    """Cold one-shot solves vs warm session re-solves, per solver."""
    rows = []
    session = ScheduleSession(instance, default_engine=spec)
    for name in SOLVERS:
        cold_started = time.perf_counter()
        cold = solver_registry.create(name, engine=spec).solve(instance, k)
        cold_seconds = time.perf_counter() - cold_started

        first = session.solve(k=k, solver=name)  # may pay the shared fill
        warm_seconds = []
        for _ in range(repeats):
            started = time.perf_counter()
            warm = session.solve(k=k, solver=name)
            warm_seconds.append(time.perf_counter() - started)
        assert warm.schedule.as_mapping() == cold.schedule.as_mapping()
        best_warm = min(warm_seconds)
        rows.append(
            {
                "solver": name,
                "cold_seconds": cold_seconds,
                "warm_seconds": best_warm,
                "speedup": cold_seconds / best_warm if best_warm else None,
                "utility": cold.utility,
                "first_request_seconds": first.result.runtime_seconds,
            }
        )
        print(
            f"  {name:<9} cold {cold_seconds * 1e3:8.1f}ms   warm "
            f"{best_warm * 1e3:8.1f}ms   -> {cold_seconds / best_warm:6.1f}x"
        )
    return rows


def bench_oracle_sampling(instance, spec, trace, k):
    """Per-sample oracle cost: the driver's old default vs the new one.

    Replays the trace under repair-only maintenance, sampling an oracle
    re-solve after every op both ways on identical live states.  The
    legacy configuration is what ``StreamDriver`` shipped before the
    ScorePlane PR — freeze an immutable snapshot, cold-solve GRD on a
    fresh engine.  The new default is a warm heap-GRD solve over the
    live view through the scheduler's base plane; the oracle only reads
    the re-solve's *utility*, and heap-GRD's utility is exactly GRD's
    (asserted per sample here, to 1e-9).
    """
    scheduler = IncrementalScheduler(instance, k, engine=spec)
    legacy_seconds = []
    warm_seconds = []
    matched = True
    for op in trace:
        op.apply(scheduler, maintain=False)
        # legacy: freeze the live state, cold-solve GRD on a fresh engine
        started = time.perf_counter()
        frozen = scheduler.live.freeze()
        legacy = solver_registry.create("grd", engine=spec).solve(frozen, k)
        legacy_seconds.append(time.perf_counter() - started)
        # new default: warm heap-GRD over the live view
        started = time.perf_counter()
        warm = solver_registry.create("grd-heap", engine=spec).solve(
            scheduler.live, k, plane=scheduler.base_plane()
        )
        warm_seconds.append(time.perf_counter() - started)
        matched &= abs(legacy.utility - warm.utility) <= 1e-9 * max(
            1.0, abs(legacy.utility)
        )
    mean_legacy = sum(legacy_seconds) / len(legacy_seconds)
    mean_warm = sum(warm_seconds) / len(warm_seconds)
    # the first warm sample pays the base plane's one-off cold fill;
    # every later sample is the steady-state cost an operator actually
    # pays per sample, so both numbers are reported
    steady = warm_seconds[1:] or warm_seconds
    mean_steady = sum(steady) / len(steady)
    print(
        f"  oracle sample: legacy {mean_legacy * 1e3:8.1f}ms   warm "
        f"{mean_steady * 1e3:8.1f}ms steady-state "
        f"({warm_seconds[0] * 1e3:.1f}ms first incl. plane fill) "
        f"-> {mean_legacy / mean_steady:6.1f}x "
        f"({'oracle utilities identical' if matched else 'UTILITY MISMATCH'})"
    )
    return {
        "samples": len(legacy_seconds),
        "legacy_mean_seconds": mean_legacy,
        "warm_mean_seconds": mean_warm,
        "warm_steady_state_mean_seconds": mean_steady,
        "warm_first_sample_seconds": warm_seconds[0],
        "speedup": mean_legacy / mean_steady if mean_steady else None,
        "speedup_including_fill": (
            mean_legacy / mean_warm if mean_warm else None
        ),
        "oracle_utilities_identical": matched,
        "plane_stats": scheduler.base_plane().stats(),
    }, matched


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
        config, TraceConfig(n_ops=scale["ops"]), root_seed=args.seed
    ).generate()
    print(
        f"{instance.describe()} [built in {time.perf_counter() - started:.1f}s]"
    )

    print("session re-solve (cold one-shot vs warm plane-fed):")
    session_rows = bench_session_resolves(
        instance, spec, scale["k"], args.repeats
    )
    print("oracle sampling on a live stream (legacy vs warm):")
    oracle_row, matched = bench_oracle_sampling(
        instance, spec, trace, scale["k"]
    )

    if args.json is not None:
        path = write_artifact(
            args.json,
            "bench_solver_warm",
            dict(scale, engine=spec.kind, seed=args.seed, smoke=args.smoke),
            {"session_resolves": session_rows, "oracle_sampling": oracle_row},
        )
        print(f"wrote {path}")
    return 0 if matched else 1


if __name__ == "__main__":
    sys.exit(main())
