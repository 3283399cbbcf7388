"""Run one workload: set up, measure, check, and print the result.

An untraced run (``--trace 0``) loads the workload's dataset once (the
fixed EBSN population its instances are cut from; the time is printed
as ``dataset_s``), sets the workload up :data:`SETUP_REPS` times from it
and reports the median as ``setup_s``, resets the resident-memory
high-water mark, runs ops for ``--seconds`` seconds (never fewer than
:data:`MIN_OPS`), reads the memory peak, then checks every output.  A
check that fails counts its op as failed.  Workloads that do not recover
inside their window report as ``recover_s`` the median of restarts
timed after it (see each workload's ``restart``).

``perfbench/pins.json`` pins, for the default and the held-out seed,
the hash of each workload's generated inputs and its ``utility_mean``.
A hash that differs stops the run; a ``utility_mean`` below the pinned
one (beyond :data:`UTILITY_TOLERANCE`) is a failed check.

A traced run (``--trace 1``) sets up once with the layer wrappers in
place, runs the workload's fixed op set unwrapped, runs it again
wrapped, and reports the per-layer metrics of the wrapped pass plus the
difference between the two passes as ``trace.overhead_pct``.  The two
passes must produce bit-identical outputs.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.layers import EXACT_COUNTS, PER_LAYER_UNITS, Instrumentation, per_layer_metrics
from perfbench.tracing import Span, Tracer, format_table, layer_table
from perfbench.workloads import HELD_OUT_SEED

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest ops a window runs, so the tail percentile below exists.
MIN_OPS = 11
#: Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Restarts timed after the window, for workloads with no journal: at
#: least this many, and more until they have taken :data:`RESTART_SECONDS`.
RESTARTS = 3
RESTART_SECONDS = 4.0
#: Relative shortfall of ``utility_mean`` below its pin that fails a run.
UTILITY_TOLERANCE = 1e-9

END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "utility_mean": "utility",
    "peak_rss_mb": "MB",
    "recover_s": "s",
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def tail_percentile(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ``beyond`` samples above it.

    Nearest-rank: the value at ascending rank ``n - beyond`` (1-based)
    has exactly ``beyond`` samples beyond it, and is the
    ``100 * (n - beyond) / n`` percentile.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(
            f"{n} samples leave no percentile with {beyond} samples beyond it"
        )
    rank = n - beyond
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def exact_mean(values: Sequence[float]) -> float:
    """Mean through a correctly rounded sum, so the same values in any
    order (say, appended by racing client threads) give the same mean."""
    return math.fsum(values) / len(values)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------
class OpLog:
    """Times ops; in a traced run each op also opens the root span."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        #: ``(kind, seconds)`` per op, appended by whichever thread ran it.
        self.records: list[tuple[str, float]] = []
        self.tracer = tracer
        self._ids = itertools.count()
        self._open: tuple[str, float, Span | None] | None = None

    @property
    def latencies(self) -> list[float]:
        return [seconds for _, seconds in self.records]

    @contextmanager
    def op(self, kind: str = "") -> Iterator[None]:
        span = None if self.tracer is None else self.tracer.open("op", "op", op=next(self._ids))
        started = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((kind, time.perf_counter() - started))
            if span is not None:
                self.tracer.close(span)  # type: ignore[union-attr]

    # hook-style use, for ops whose boundaries are calls inside the program
    def begin(self, kind: str = "") -> None:
        if self._open is not None:
            raise RuntimeError("an op is already open")
        span = None if self.tracer is None else self.tracer.open("op", "op", op=next(self._ids))
        self._open = (kind, time.perf_counter(), span)

    def end(self) -> None:
        if self._open is None:
            raise RuntimeError("no op is open")
        kind, started, span = self._open
        self._open = None
        self.records.append((kind, time.perf_counter() - started))
        if span is not None:
            self.tracer.close(span)  # type: ignore[union-attr]


def latency_bands(ops: OpLog) -> str:
    """Each kind's latency band, and the bands the median and tail land in."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in ops.records:
        by_kind.setdefault(kind, []).append(1e3 * seconds)
    latencies = [1e3 * seconds for _, seconds in ops.records]
    marks = {"p50": statistics.median(latencies)}
    if len(latencies) > 10:
        percentile, value = tail_percentile(latencies)
        marks[f"tail p{percentile:.1f}"] = value
    lines = ["latency bands by request kind (ms):"]
    for kind, values in sorted(by_kind.items(), key=lambda item: min(item[1])):
        inside = [name for name, value in marks.items()
                  if min(values) <= value <= max(values)]
        lines.append(
            f"  {kind:<13} n={len(values):<4} min={min(values):8.1f} "
            f"median={statistics.median(values):8.1f} max={max(values):8.1f}"
            + (f"   <- {', '.join(inside)}" if inside else "")
        )
    return "\n".join(lines)


@dataclass
class Outcome:
    """What one pass over a workload's ops produced."""

    ops: OpLog
    elapsed: float = 0.0
    #: Per-op outputs, kept for the checks that run after the window.
    results: list[Any] = field(default_factory=list)
    #: Instance snapshot per stamped version, for checking served solves.
    versions: dict[int, Any] = field(default_factory=dict)
    #: Values whose exact mean is ``utility_mean`` (a seed-fixed subset).
    utilities: list[float] = field(default_factory=list)
    #: ``recover_s`` samples: ``recover()`` timings where the workload
    #: recovers inside its window, else restarts timed after it.
    recover: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Outputs compared between the unwrapped and wrapped traced passes.
    signature: Any = None
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops.records)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------
def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def machine_fingerprint(root: Path, workdir: Path, loadavg: tuple[float, ...]) -> dict[str, Any]:
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha is not None else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": list(loadavg),
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "work_fs": filesystem_type(workdir),
    }


def digest_arrays(digest: Any, *arrays: np.ndarray) -> None:
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())


def digest_json(digest: Any, payload: Any) -> None:
    digest.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


def digest_instance(digest: Any, instance: Any) -> None:
    """Hash what the program receives: interest entries, sigma, entities."""
    interest = instance.interest
    for event in range(instance.n_events):
        rows, values = interest.event_column_entries(event)
        digest_arrays(digest, np.asarray(rows, dtype=np.int64), np.asarray(values, dtype=float))
    for rival in range(instance.n_competing):
        rows, values = interest.competing_column_entries(rival)
        digest_arrays(digest, np.asarray(rows, dtype=np.int64), np.asarray(values, dtype=float))
    digest_arrays(digest, instance.activity.matrix)
    digest_json(digest, {
        "users": instance.n_users,
        "events": [[e.location, e.required_resources] for e in instance.events],
        "competing": [c.interval for c in instance.competing],
        "theta": instance.theta,
    })


def new_digest() -> Any:
    return hashlib.sha256()


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------
PINS = "pins.json"


def load_pin(bench_dir: Path, workload: str, seed: int) -> dict[str, Any]:
    """``{"inputs": sha256, "utility_mean": float}`` for a pinned seed, else ``{}``."""
    pins = json.loads((bench_dir / PINS).read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed), {})


class InputMismatch(RuntimeError):
    """The generated inputs differ from the ones pinned for this seed."""


def _check_inputs(pin: dict[str, Any], workload: Any, seed: int, state: Any) -> dict[str, Any]:
    digest = workload.input_digest(state)
    pinned = pin.get("inputs")
    if pinned is not None and pinned != digest:
        raise InputMismatch(
            f"{workload.name} seed {seed}: generated inputs hash to {digest} "
            f"but perfbench/{PINS} pins {pinned}; the workload generators "
            f"changed the work being measured"
        )
    return {"input_sha256": digest, "input_pinned": pinned is not None}


def check_utility(pin: dict[str, Any], outcome: Outcome) -> float:
    """``utility_mean``; a shortfall against the pinned value fails a check."""
    value = exact_mean(outcome.utilities)
    pinned = pin.get("utility_mean")
    if pinned is not None and value != pinned:
        if value < pinned - UTILITY_TOLERANCE * abs(pinned):
            outcome.fail(1, f"utility_mean {value!r} is below the {pinned!r} pinned for this seed")
        else:
            outcome.notes.append(f"utility_mean {value!r} differs from the pinned {pinned!r}")
    return value


def run_untraced(workload: Any, seed: int, seconds: float, workdir: Path,
                 bench_dir: Path) -> tuple[dict[str, Any], Outcome, dict[str, Any]]:
    pin = load_pin(bench_dir, workload.name, seed)
    started = time.perf_counter()
    dataset = workload.load_dataset()
    dataset_s = time.perf_counter() - started
    setups: list[float] = []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed, workdir, dataset)
        setups.append(time.perf_counter() - started)
    del dataset
    gc.collect()
    inputs = _check_inputs(pin, workload, seed, state)
    inputs["peak_rss_reset"] = reset_peak_rss()
    outcome = workload.run(state, OpLog(), seconds)
    rss = peak_rss_mb()
    if not outcome.recover:
        while len(outcome.recover) < RESTARTS or sum(outcome.recover) < RESTART_SECONDS:
            started = time.perf_counter()
            workload.restart(state)
            outcome.recover.append(time.perf_counter() - started)
    workload.check(state, outcome)
    latencies = outcome.ops.latencies
    percentile, tail = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": outcome.attempted / outcome.elapsed,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "utility_mean": check_utility(pin, outcome),
        "peak_rss_mb": rss,
        "recover_s": statistics.median(outcome.recover),
    }
    outcome.notes.append(
        f"latency_tail_ms is p{percentile:.1f} of {len(latencies)} ops "
        f"({TAIL_BEYOND} beyond it)"
    )
    outcome.notes.append(
        f"dataset_s: {dataset_s:.3f}; setup_s samples: "
        + ", ".join(f"{s:.3f}" for s in setups)
        + "; recover_s samples: " + ", ".join(f"{s:.3f}" for s in outcome.recover)
    )
    return metrics, outcome, inputs


def run_traced(workload: Any, seed: int, workdir: Path, bench_dir: Path,
               spans_path: Path) -> tuple[dict[str, Any], Outcome, dict[str, Any]]:
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    dataset = workload.load_dataset()
    tracer.phase = "setup"
    with instrumentation:
        state = workload.setup(seed, workdir, dataset)
    del dataset
    pin = load_pin(bench_dir, workload.name, seed)
    inputs = _check_inputs(pin, workload, seed, state)
    plain = workload.run(state, OpLog(), None)
    workload.check(state, plain)
    state = workload.rearm(state)
    tracer.phase = "ops"
    with instrumentation:
        traced = workload.run(state, OpLog(tracer), None)
    workload.check(state, traced)
    check_utility(pin, traced)
    traced.failed += plain.failed
    traced.problems += plain.problems
    if plain.signature != traced.signature:
        traced.fail(traced.attempted, "wrapped ops produced different outputs than unwrapped ones")
    tracer.write_jsonl(spans_path)
    metrics = per_layer_metrics(tracer.spans, instrumentation.pool_deltas)
    plain_s = sum(plain.ops.latencies)
    traced_s = sum(traced.ops.latencies)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    rows, op_seconds = layer_table([s for s in tracer.spans if s.phase == "ops"])
    traced.notes.append("per-layer self time inside ops (traced pass):\n"
                        + format_table(rows, op_seconds))
    traced.notes.append(
        f"tracing overhead: {metrics['trace.overhead_pct']:+.1f}% "
        f"({traced_s * 1e3:.0f} ms traced vs {plain_s * 1e3:.0f} ms unwrapped, "
        f"{traced.attempted} ops each)"
    )
    traced.notes.append("counts that repeat exactly at a fixed seed: " + ", ".join(EXACT_COUNTS))
    traced.notes.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    return metrics, traced, inputs


def main(args: Any, root: Path, loadavg: tuple[float, ...]) -> int:
    from perfbench.workloads import load_workload

    bench_dir = Path(__file__).resolve().parent
    workload = load_workload(args.workload)
    scratch = root / ".perfbench"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, outcome, inputs = run_traced(workload, args.seed, workdir, bench_dir, spans_path)
            units = PER_LAYER_UNITS
        else:
            metrics, outcome, inputs = run_untraced(
                workload, args.seed, args.seconds, workdir, bench_dir
            )
            units = END_TO_END_UNITS
        fingerprint = machine_fingerprint(root, workdir, loadavg)
    except InputMismatch as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fingerprint.update(inputs)
    fingerprint.update({
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "load_threads": workload.load_threads,
    })
    failed = min(outcome.failed, outcome.attempted)
    for note in outcome.notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>16.4f} {unit}")
    print(f"checks: {outcome.attempted - failed}/{outcome.attempted} ops passed")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"fingerprint": fingerprint}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }, sort_keys=True))
    return 0
