"""Organizer-in-the-loop benchmark: gap-report latency + lock differentials.

Two claims from the interactive tier, measured and checked in one run:

* **gap reports are free after a solve** — the report reads its marginal
  gains off the session's warm :class:`~repro.core.scoreplane.ScorePlane`,
  so the latency is pure bookkeeping (no Eq. 4 evaluations).  The run
  measures p50/p95 over repeated reports and *fails* if any report
  refreshes even one plane cell;
* **locks never perturb what they do not bind** — the lock differential
  smoke: for every deterministic registry solver, an empty
  :class:`~repro.interactive.LockSet` and a worst-cell forbid must be
  bit-identical to the unlocked solve, and pinning the full unlocked
  solution must return it unchanged.  Any divergence fails the run —
  this is the CI tripwire behind the interactive test suite.

The locked re-solve phase also reports how much a pin+forbid re-solve
costs relative to the unlocked baseline (warm plane both ways).

Usage::

    python benchmarks/bench_interactive.py           # full scale
    python benchmarks/bench_interactive.py --smoke   # CI-sized
    python benchmarks/bench_interactive.py --json BENCH_interactive.json
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Sequence
from pathlib import Path

if __package__ in (None, ""):  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.artifacts import write_artifact

from repro.algorithms.registry import solver_registry
from repro.api import ScheduleSession, SolveRequest
from repro.core.engine import EngineSpec
from repro.interactive import LockSet
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator

LARGE = {"users": 20_000, "k": 60, "reports": 50, "locked_solves": 10}
SMOKE = {"users": 250, "k": 10, "reports": 12, "locked_solves": 4}

#: Solvers in the differential smoke: deterministic, so "identical" means
#: identical, not "statistically close".
DIFFERENTIAL_SOLVERS = ("grd", "grd-heap", "top")

_SEED = 2018


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("-k", type=int, default=None)
    parser.add_argument("--seed", type=int, default=_SEED)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    return parser


def percentiles(latencies: Sequence[float]) -> dict[str, float]:
    ordered = sorted(latencies)

    def at(q: float) -> float:
        return ordered[
            min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        ]

    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99)}


def worst_unchosen_cell(matrix: np.ndarray, chosen: dict[int, int]) -> tuple[int, int]:
    """The lowest-scoring (interval, event) cell outside ``chosen``."""
    taken = {(interval, event) for event, interval in chosen.items()}
    for flat in np.argsort(matrix, axis=None):
        interval, event = np.unravel_index(int(flat), matrix.shape)
        if (int(interval), int(event)) not in taken:
            return (int(interval), int(event))
    raise RuntimeError("every cell is chosen; instance too small")


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
    print(
        f"{instance.describe()} "
        f"[built in {time.perf_counter() - started:.1f}s]"
    )

    session = ScheduleSession(instance, default_engine=spec)
    checks: dict[str, bool] = {}

    # -- phase 1: gap-report latency on a warm session -------------------
    response = session.solve(SolveRequest(k=scale["k"], solver="grd-heap"))
    plane = session.plane_for(None)
    latencies: list[float] = []
    max_cells_spent = 0
    for _ in range(scale["reports"]):
        tick = time.perf_counter()
        report = session.gap_report(response)
        latencies.append(time.perf_counter() - tick)
        max_cells_spent = max(max_cells_spent, report.cells_spent)
    stats = percentiles(latencies)
    checks["gap_report_zero_evaluations"] = max_cells_spent == 0
    print(
        f"  gap report        {scale['reports']:3d} reports  "
        f"p50 {stats['p50'] * 1e3:7.1f}ms  p95 {stats['p95'] * 1e3:7.1f}ms  "
        f"({len(report.gaps)} gap events, cells_spent={max_cells_spent})"
    )

    # -- phase 2: lock differential smoke --------------------------------
    matrix = plane.ensure()
    differential: dict[str, dict[str, bool]] = {}
    for name in DIFFERENTIAL_SOLVERS:
        unlocked = session.solve(SolveRequest(k=scale["k"], solver=name))
        chosen = unlocked.schedule.as_mapping()
        empty = session.solve(
            SolveRequest(k=scale["k"], solver=name, locks=LockSet())
        )
        forbid = LockSet().forbid(*worst_unchosen_cell(matrix, chosen))
        forbidden = session.solve(
            SolveRequest(k=scale["k"], solver=name, locks=forbid)
        )
        pins = tuple((t, e) for e, t in sorted(chosen.items()))
        pinned = session.solve(
            SolveRequest(k=scale["k"], solver=name, locks=LockSet(pins=pins))
        )
        row = {
            "empty_locks_identical": (
                empty.schedule == unlocked.schedule
                and empty.utility == unlocked.utility
            ),
            "nonbinding_forbid_identical": (
                forbidden.schedule == unlocked.schedule
                and forbidden.utility == unlocked.utility
            ),
            "fully_pinned_identical": (
                pinned.schedule.as_mapping() == chosen
            ),
        }
        differential[name] = row
        checks[f"differential_{name}"] = all(row.values())
        print(
            f"  differential      {name:<9} "
            + "  ".join(f"{key}={value}" for key, value in row.items())
        )

    # -- phase 3: locked re-solve overhead -------------------------------
    draft = sorted(response.schedule.as_mapping().items())
    locks = LockSet(
        pins=tuple((t, e) for e, t in draft[: len(draft) // 2]),
        forbids=frozenset(
            (t, e) for e, t in draft[len(draft) // 2 :][:2]
        ),
    )

    def timed_solves(locks_arg: LockSet | None) -> list[float]:
        out = []
        for _ in range(scale["locked_solves"]):
            tick = time.perf_counter()
            session.solve(
                SolveRequest(k=scale["k"], solver="grd-heap", locks=locks_arg)
            )
            out.append(time.perf_counter() - tick)
        return out

    unlocked_lat = percentiles(timed_solves(None))
    locked_lat = percentiles(timed_solves(locks))
    print(
        f"  locked re-solve   p50 {locked_lat['p50'] * 1e3:7.1f}ms "
        f"vs unlocked {unlocked_lat['p50'] * 1e3:7.1f}ms "
        f"({len(locks.pins)} pins, {len(locks.forbids)} forbids)"
    )

    failed = sorted(name for name, ok in checks.items() if not ok)
    for name, ok in sorted(checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")

    if args.json is not None:
        path = write_artifact(
            args.json,
            "bench_interactive",
            {**scale, "engine": spec.kind, "seed": args.seed},
            {
                "gap_report": {
                    "reports": scale["reports"],
                    "gap_events": len(report.gaps),
                    "max_cells_spent": max_cells_spent,
                    **{f"latency_{k}": v for k, v in stats.items()},
                },
                "differential": differential,
                "locked_solve": {
                    "pins": len(locks.pins),
                    "forbids": len(locks.forbids),
                    **{f"locked_{k}": v for k, v in locked_lat.items()},
                    **{f"unlocked_{k}": v for k, v in unlocked_lat.items()},
                },
                "checks": checks,
            },
        )
        print(f"  wrote {path}")

    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
