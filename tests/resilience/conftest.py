"""Golden workload/trace cases shared by the resilience suites.

Each case pins a workload seed and a trace seed, spanning dense and
sparse interest backends — the kill-point differential tests replay
these under every policy and assert a recovered session is bit-identical
to an uninterrupted one.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineSpec
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

GOLDEN_CASES = {
    "dense_a": dict(
        seed=11, k=4, n_users=40, n_events=8, n_intervals=5,
        n_ops=16, backend="dense",
    ),
    "dense_b": dict(
        seed=12, k=3, n_users=25, n_events=6, n_intervals=4,
        n_ops=12, backend="dense",
    ),
    "sparse_a": dict(
        seed=13, k=4, n_users=60, n_events=10, n_intervals=5,
        n_ops=16, backend="sparse",
    ),
}

#: Extra constructor params per policy name (defaults otherwise).
POLICY_PARAMS = {"periodic-rebuild": {"rebuild_every": 2}}


def golden_config(name: str) -> ExperimentConfig:
    case = GOLDEN_CASES[name]
    return ExperimentConfig(
        k=case["k"],
        n_users=case["n_users"],
        n_events=case["n_events"],
        n_intervals=case["n_intervals"],
        interest_backend=case["backend"],
    )


def golden_instance(name: str):
    if GOLDEN_CASES[name]["backend"] == "sparse":
        pytest.importorskip("scipy")
    config = golden_config(name)
    return WorkloadGenerator(root_seed=GOLDEN_CASES[name]["seed"]).build(config)


def golden_trace(name: str):
    case = GOLDEN_CASES[name]
    config = golden_config(name)
    return TraceGenerator(
        config, TraceConfig(n_ops=case["n_ops"]), root_seed=case["seed"]
    ).generate()


#: every case runs the default sparse engine over its own interest storage
ENGINE = EngineSpec()


def restamp_engine(durability, kind: str) -> None:
    """Re-stamp a durability directory as written by an engine ``kind``.

    Rewrites the journal header and every checkpoint body that records
    an engine, keeping all records byte-for-byte otherwise — the shape
    of a directory left behind by an older build whose default engine
    kind no longer exists.
    """
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.journal import DeltaJournal

    scan = DeltaJournal.scan(durability.journal_path)
    metadata = dict(scan.metadata)
    metadata["engine"] = dict(metadata["engine"], kind=kind)
    durability.journal_path.unlink()
    with DeltaJournal.create(durability.journal_path, metadata) as journal:
        for record in scan.records:
            journal.append(record)
    store = CheckpointStore(durability.checkpoint_directory)
    for offset in store.offsets():
        body = store.load(offset)
        if "engine" in body:
            body["engine"] = dict(body["engine"], kind=kind)
            store.write(offset, body)
