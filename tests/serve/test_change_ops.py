"""Serving mutations are the stream's change ops.

A ``ServingSession`` mutator builds the :class:`~repro.stream.trace.ChangeOp`
a stream carries for the same change and commits its structural step;
a durable session journals the op's own record, interest as sparse
entries.  Covers the record shape, recovery's refusal of the dense
records earlier builds wrote, the stream's names for unnamed arrivals
and rivals, and a differential: each golden trace's ops, committed
through a serving session, build the instance the stream scheduler
builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import RecoveryError
from repro.resilience import DeltaJournal, Durability
from repro.serve import ServingSession
from repro.stream.policies import make_policy
from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    DriftInterest,
    column_from_entries,
)

from tests.conftest import make_random_instance
from tests.resilience.conftest import (
    ENGINE,
    GOLDEN_CASES,
    assert_same_instance,
    golden_instance,
    golden_trace,
    mutate_serving,
    rewrite_journal,
)

N_USERS = 12


def _session(durability=None) -> ServingSession:
    return ServingSession(
        make_random_instance(n_users=N_USERS, seed=42), durability=durability
    )


def _records(durability):
    return DeltaJournal.scan(durability.journal_path).records


class TestJournalRecords:
    def test_each_mutator_journals_its_op(self, tmp_path):
        durability = Durability(tmp_path / "ses")
        session = _session(durability)
        column = np.zeros(N_USERS)
        column[[1, 4, 7]] = [0.5, 0.25, 1.0]
        session.add_event(2, 1.5, column, name="gala")
        session.add_competing(1, column)
        session.update_event_interest(0, column)
        session.cancel_event(3)
        session.close()
        entries = [[1, 0.5], [4, 0.25], [7, 1.0]]
        assert _records(durability) == [
            {"op": {"op": "arrive", "time": 0.0, "location": 2,
                    "required_resources": 1.5, "interest": entries,
                    "name": "gala"}},
            {"op": {"op": "rival", "time": 0.0, "interval": 1,
                    "interest": entries, "name": ""}},
            {"op": {"op": "drift", "time": 0.0, "event": 0,
                    "interest": entries}},
            {"op": {"op": "cancel", "time": 0.0, "event": 3}},
        ]

    def test_a_record_that_cannot_be_built_commits_nothing(
        self, tmp_path, monkeypatch
    ):
        """The record is built before the pool write, so a failure there
        leaves the version and the journal where they were."""
        session = _session(Durability(tmp_path / "ses"))

        def unencodable(op):
            raise TypeError("unencodable op")

        monkeypatch.setattr(ArriveCandidate, "to_dict", unencodable)
        with pytest.raises(TypeError, match="unencodable"):
            session.add_event(0, 1.0, np.full(N_USERS, 0.5))
        assert session.version == 0
        assert session.journal_offset == 0
        monkeypatch.undo()
        session.close()

    @pytest.mark.parametrize("nonzeros", [0, 1, 5, N_USERS])
    def test_a_column_journals_one_entry_per_nonzero(self, nonzeros, tmp_path):
        rng = np.random.default_rng(nonzeros)
        column = np.zeros(N_USERS)
        rows = np.sort(rng.choice(N_USERS, size=nonzeros, replace=False))
        column[rows] = rng.uniform(0.01, 1.0, size=nonzeros)
        durability = Durability(tmp_path / "ses")
        session = _session(durability)
        session.add_event(0, 1.0, column)
        session.add_competing(0, column)
        session.update_event_interest(0, column)
        session.close()
        for record in _records(durability):
            interest = record["op"]["interest"]
            assert len(interest) == nonzeros
            assert [user for user, _ in interest] == rows.tolist()
            # exact floats: the record round-trips the column bit for bit
            np.testing.assert_array_equal(
                column_from_entries(interest, N_USERS), column
            )


#: a record as builds before change-op journaling wrote it: the mutator's
#: name under "kind" and the interest column as a dense list
DENSE_SERVING_RECORD = {
    "kind": "add_event",
    "location": 1,
    "required_resources": 1.5,
    "interest": [0.5] * N_USERS,
    "name": "evt-0",
    "tags": ["late"],
}


class TestDenseServingRecordsRefused:
    """A serving directory whose records are the dense records of earlier
    builds fails recovery with a RecoveryError naming the journal and the
    first such record, wherever recovery meets it: in a checkpoint's
    prefix (deriving the instance) or in its tail (the replay)."""

    @pytest.mark.parametrize(
        "replaced, named",
        [
            (range(9), 0),  # every record: the directory of an older build
            ([2], 2),  # in the prefix of the checkpoints at 4 and 8
            ([8], 8),  # only in the tail of every checkpoint
        ],
        ids=["whole-journal", "prefix", "tail"],
    )
    def test_recovery_names_the_record(self, replaced, named, tmp_path):
        durability = Durability(tmp_path / "ses", checkpoint_every=4)
        crashed = _session(durability)
        mutate_serving(crashed, 9)
        crashed._writer.abandon()
        records = _records(durability)
        for index in replaced:
            records[index] = DENSE_SERVING_RECORD
        rewrite_journal(durability, records=records)
        with pytest.raises(RecoveryError) as info:
            ServingSession.recover(durability)
        assert f"journal {durability.journal_path} record {named} " in str(
            info.value
        )


@pytest.mark.parametrize("checkpoint_every", [1, 16], ids=["derived", "replayed"])
def test_unnamed_arrivals_and_rivals_take_the_stream_names(
    checkpoint_every, tmp_path
):
    durability = Durability(tmp_path / "ses", checkpoint_every=checkpoint_every)
    session = _session(durability)
    column = np.full(N_USERS, 0.5)
    event = session.add_event(0, 1.0, column)
    rival = session.add_competing(2, column)
    frozen = session.version_instance()
    assert frozen.events[event].name == f"arrival-{event}"
    assert frozen.competing[rival].name == f"rival-arrival-{rival}"
    session._writer.abandon()
    # recovery derives the names from the journal (at checkpoint_every=1)
    # or replays them (a checkpoint at 0 only) exactly as committed
    recovered = ServingSession.recover(durability)
    assert_same_instance(recovered.version_instance(), frozen)
    recovered.close()


def _serve(session: ServingSession, op) -> None:
    """Commit one trace op through the serving mutator that names it."""
    n_users = session.version_instance().n_users
    if isinstance(op, ArriveCandidate):
        session.add_event(
            op.location, op.required_resources,
            column_from_entries(op.interest, n_users), op.name,
        )
    elif isinstance(op, CancelEvent):
        session.cancel_event(op.event)
    elif isinstance(op, AnnounceRival):
        session.add_competing(
            op.interval, column_from_entries(op.interest, n_users), op.name
        )
    elif isinstance(op, DriftInterest):
        session.update_event_interest(
            op.event, column_from_entries(op.interest, n_users)
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_serving_builds_the_stream_instance(name):
    instance, trace = golden_instance(name), golden_trace(name)
    session = ServingSession(instance)
    policy = make_policy("incremental")
    policy.bind(instance, trace.initial_k, engine=ENGINE)
    for op in trace:
        _serve(session, op)
        policy.apply(op)
    structural = sum(op.kind != "budget" for op in trace)
    assert session.version == structural
    assert_same_instance(session.version_instance(), policy.scheduler.instance)
