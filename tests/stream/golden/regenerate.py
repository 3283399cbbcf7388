"""Regenerate the golden-trace fixtures in this directory.

Run from the repository root after an *intentional* behavior change::

    PYTHONPATH=src python tests/stream/golden/regenerate.py

Each case pins a seeded trace (JSONL) plus the exact expected replay
observations — per-op utility trajectory, final schedule, final utility,
rebuild and freeze counts — for every maintenance policy, on the sparse
engine over the interest storage named by the case.  ``tests/stream/test_golden.py`` replays the
committed traces and compares **exactly** (floats included: replay is
deterministic, and JSON round-trips doubles losslessly via repr), so any
drift in scheduler, engine or policy behavior fails loudly.

Before being committed, the live-path trajectories were differentially
checked against the pre-LiveInstance frozen-rebuild scheduler on these
exact cases: bit-identical schedules everywhere, utilities equal except
one hybrid trajectory differing by 8.9e-16 (4 ulp) — so the fixtures
encode the paper-faithful semantics, not merely whatever the current
code happens to produce.
"""

import json
from pathlib import Path

from repro.core.engine import EngineSpec
from repro.stream import POLICY_NAMES, StreamDriver
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

GOLDEN_DIR = Path(__file__).parent

#: name -> (interest backend, root seed, instance shape, op count)
CASES = {
    "dense_a": ("dense", 11, dict(k=4, n_users=40, n_events=8, n_intervals=5), 16),
    "dense_b": ("dense", 12, dict(k=3, n_users=25, n_events=6, n_intervals=4), 12),
    "sparse_a": ("sparse", 13, dict(k=4, n_users=60, n_events=10, n_intervals=5), 16),
}

#: policy name -> constructor params used for the golden replays
POLICY_PARAMS = {"periodic-rebuild": {"rebuild_every": 2}}


#: every case replays on the default sparse engine; the dense cases keep
#: dense ``mu`` storage, so both interest backends stay pinned
ENGINE = EngineSpec()


def build_case(name: str):
    backend, seed, shape, n_ops = CASES[name]
    config = ExperimentConfig(interest_backend=backend, **shape)
    trace = TraceGenerator(
        config, TraceConfig(n_ops=n_ops), root_seed=seed
    ).generate()
    instance = WorkloadGenerator(root_seed=seed).build(config)
    return instance, trace, ENGINE


def replay(instance, trace, spec, policy: str):
    driver = StreamDriver(
        instance, policy=policy, engine=spec, **POLICY_PARAMS.get(policy, {})
    )
    return driver.run(trace)


def main() -> None:
    expected = {}
    for name in CASES:
        instance, trace, spec = build_case(name)
        trace.save(GOLDEN_DIR / f"{name}.jsonl")
        expected[name] = {"engine": spec.kind, "policies": {}}
        for policy in POLICY_NAMES:
            result = replay(instance, trace, spec, policy)
            expected[name]["policies"][policy] = {
                "utilities": list(result.utilities),
                "final_utility": result.final_utility,
                "final_schedule": {
                    str(event): interval
                    for event, interval in sorted(result.final_schedule.items())
                },
                "final_k": result.final_k,
                "rebuilds": result.rebuilds,
                "freezes": result.freezes,
            }
            print(f"{name}/{policy}: {result.summary()}")
    out = GOLDEN_DIR / "expected.json"
    out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
