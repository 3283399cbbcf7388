"""Golden workload/trace cases shared by the resilience suites.

Each case pins a workload seed and a trace seed (the ``dense_*`` cases
were first recorded on dense ``mu`` storage and keep their names) — the
kill-point differential tests replay these under every policy and assert
a recovered session is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import EngineSpec
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

GOLDEN_CASES = {
    "dense_a": dict(
        seed=11, k=4, n_users=40, n_events=8, n_intervals=5,
        n_ops=16,
    ),
    "dense_b": dict(
        seed=12, k=3, n_users=25, n_events=6, n_intervals=4,
        n_ops=12,
    ),
    "sparse_a": dict(
        seed=13, k=4, n_users=60, n_events=10, n_intervals=5,
        n_ops=16,
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
    )


def golden_instance(name: str):
    config = golden_config(name)
    return WorkloadGenerator(root_seed=GOLDEN_CASES[name]["seed"]).build(config)


def golden_trace(name: str):
    case = GOLDEN_CASES[name]
    config = golden_config(name)
    return TraceGenerator(
        config, TraceConfig(n_ops=case["n_ops"]), root_seed=case["seed"]
    ).generate()


#: every case runs the default sparse engine
ENGINE = EngineSpec()


def restamp_engine(durability, **fields) -> None:
    """Re-stamp a durability directory's recorded engine spec with
    ``fields`` (e.g. ``kind="vectorized"``).

    Rewrites the journal header and every checkpoint body that records
    an engine, keeping all records byte-for-byte otherwise — the shape
    of a directory left behind by an older build, whose default engine
    kind no longer exists or whose spec carried a since-removed field.
    """
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.journal import DeltaJournal

    metadata = DeltaJournal.scan(durability.journal_path).metadata
    rewrite_journal(
        durability, header=dict(metadata, engine=dict(metadata["engine"], **fields))
    )
    store = CheckpointStore(durability.checkpoint_directory)
    for offset in store.offsets():
        body = store.load(offset)
        if "engine" in body:
            body["engine"] = dict(body["engine"], **fields)
            store.write(offset, body)


def assert_same_instance(actual, expected) -> None:
    """Field-for-field equality of two frozen instances.

    Entities compare as dataclasses, names and tags included.  Interest
    is compared on its CSC components, so two instances that merely
    densify alike do not pass.
    """
    assert actual.users == expected.users
    assert actual.intervals == expected.intervals
    assert actual.events == expected.events
    assert actual.competing == expected.competing
    assert actual.organizer == expected.organizer
    np.testing.assert_array_equal(
        actual.activity.matrix, expected.activity.matrix
    )
    for side in ("candidate_sparse", "competing_sparse"):
        got = getattr(actual.interest, side)
        want = getattr(expected.interest, side)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
    assert [list(c) for c in actual.competing_by_interval] == [
        list(c) for c in expected.competing_by_interval
    ]


def rewrite_journal(durability, header=None, records=None) -> None:
    """Re-create a directory's journal with a new header and/or records.

    Either argument defaults to what the journal holds now; every other
    file of the directory is left as it is.
    """
    from repro.resilience.journal import DeltaJournal

    scan = DeltaJournal.scan(durability.journal_path)
    metadata = scan.metadata if header is None else header
    durability.journal_path.unlink()
    with DeltaJournal.create(durability.journal_path, metadata) as journal:
        for record in scan.records if records is None else records:
            journal.append(record)


def mutate_serving(session, n: int, seed: int = 0) -> None:
    """Apply n deterministic mutations across all four mutator kinds."""
    rng = np.random.default_rng(seed)
    for index in range(n):
        column = rng.uniform(0.0, 1.0, session.version_instance().n_users)
        kind = index % 4
        if kind == 0:
            session.add_event(
                location=int(rng.integers(3)),
                required_resources=float(rng.uniform(1.0, 2.0)),
                interest_column=column,
                name=f"evt-{index}",
            )
        elif kind == 1:
            session.add_competing(
                interval=int(rng.integers(session.version_instance().n_intervals)),
                interest_column=column[: session.version_instance().n_users],
                name=f"rival-{index}",
            )
        elif kind == 2:
            session.update_event_interest(0, column)
        else:
            session.cancel_event(session.version_instance().n_events - 1)
