"""Bad input to a serving mutator fails at the boundary, before any commit.

Every mutator that takes an interest column or a candidate-event index
gets each bad value.  The error is the typed one the live instance
raises for it (``InstanceValidationError`` for columns and resources,
``UnknownEntityError`` for indices), and a durable session neither
bumps its version nor journals a record — nor is left unable to commit
the next good mutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InstanceValidationError, UnknownEntityError
from repro.resilience import Durability
from repro.serve import ServingSession

from tests.conftest import make_random_instance

N_USERS = 12


def _column(n_users: int = N_USERS) -> np.ndarray:
    return np.linspace(0.1, 0.9, n_users)


def _with(index: int, value: float) -> np.ndarray:
    column = _column()
    column[index] = value
    return column


BAD_COLUMNS = {
    "short": _column(N_USERS - 1),
    "long": _column(N_USERS + 1),
    "two-dimensional": _column().reshape(-1, 1),
    "nan": _with(3, np.nan),
    "above-one": _with(3, 1.5),
    "negative": _with(3, -0.25),
}

#: each mutator that takes a column, called with it
COLUMN_MUTATORS = {
    "add_event": lambda session, column: session.add_event(0, 1.0, column),
    "update_event_interest": lambda session, column: (
        session.update_event_interest(0, column)
    ),
    "add_competing": lambda session, column: session.add_competing(0, column),
}

#: each mutator that takes a candidate-event index, called with it
EVENT_MUTATORS = {
    "cancel_event": lambda session, event: session.cancel_event(event),
    "update_event_interest": lambda session, event: (
        session.update_event_interest(event, _column())
    ),
}

#: bad candidate-event indices, given the live event count
BAD_EVENTS = {
    "minus-one": lambda n_events: -1,
    "below-the-first": lambda n_events: -n_events - 1,
    "past-the-end": lambda n_events: n_events,
    "far-past-the-end": lambda n_events: n_events + 1000,
}


@pytest.fixture(params=[False, True], ids=["plain", "durable"])
def session(request, tmp_path):
    durability = Durability(tmp_path / "ses") if request.param else None
    session = ServingSession(
        make_random_instance(n_users=N_USERS, seed=42), durability=durability
    )
    yield session
    session.close()


def _assert_nothing_committed(session: ServingSession) -> None:
    assert session.version == 0
    assert session.journal_offset in (None, 0)
    # and the next good mutation commits as the first one
    session.cancel_event(0)
    assert session.version == 1
    assert session.journal_offset in (None, 1)


@pytest.mark.parametrize("column", sorted(BAD_COLUMNS))
@pytest.mark.parametrize("mutator", sorted(COLUMN_MUTATORS))
def test_bad_column_is_refused(session, mutator, column):
    with pytest.raises(InstanceValidationError):
        COLUMN_MUTATORS[mutator](session, BAD_COLUMNS[column])
    _assert_nothing_committed(session)


def test_resources_beyond_theta_are_refused(session):
    theta = session.version_instance().theta
    with pytest.raises(InstanceValidationError, match="exceeding"):
        session.add_event(0, theta + 1.0, _column())
    _assert_nothing_committed(session)


@pytest.mark.parametrize("event", sorted(BAD_EVENTS))
@pytest.mark.parametrize("mutator", sorted(EVENT_MUTATORS))
def test_event_outside_the_live_range_is_refused(session, mutator, event):
    index = BAD_EVENTS[event](session.version_instance().n_events)
    with pytest.raises(UnknownEntityError):
        EVENT_MUTATORS[mutator](session, index)
    _assert_nothing_committed(session)
