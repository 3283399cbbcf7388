"""Tie-breaking parity: heap-GRD must replicate list-GRD's pick order.

GRD resolves equal Eq. 4 scores to the lowest flat ``(interval, event)``
index; the lazy heap's key carries the same suffix and rescores stale
entries through the *batched* row query (bit-identical cell values), so
even structurally tied assignments — duplicated interest columns yield
exactly equal marginal gains — are consumed in the same order.  These
tests build instances with every column duplicated several times, the
adversarial case for tie-breaking, and require the *schedules* (not just
utilities) to coincide while positive-gain assignments remain (the
~1e-16-residue endgame is documented as out of scope in the heap's
docstring).
"""

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyScheduler
from repro.algorithms.greedy_heap import LazyGreedyScheduler
from repro.core.activity import ActivityModel
from repro.core.engine import EngineSpec
from repro.core.entities import CandidateEvent, Organizer, TimeInterval, User
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix

from tests.conftest import INTEREST_INPUTS, messy_coo


def duplicated_instance(
    seed, form="array", n_users=12, n_base=3, dups=3, n_intervals=4
):
    """Every interest column appears ``dups`` times: maximal score ties."""
    rng = np.random.default_rng(seed)
    base = rng.random((n_users, n_base)) * (rng.random((n_users, n_base)) < 0.5)
    mu = np.concatenate([base] * dups, axis=1)
    if form == "coo":
        mu = messy_coo(mu)
    users = [User(index=i) for i in range(n_users)]
    intervals = [TimeInterval(index=t) for t in range(n_intervals)]
    events = [
        CandidateEvent(index=e, location=e, required_resources=1.0)
        for e in range(mu.shape[1])
    ]
    return SESInstance(
        users=users,
        intervals=intervals,
        events=tuple(events),
        competing=(),
        interest=InterestMatrix.from_arrays(mu, np.zeros((n_users, 0))),
        activity=ActivityModel(np.full((n_users, n_intervals), 0.8)),
        organizer=Organizer(resources=50.0),
    )


@pytest.mark.parametrize("form", INTEREST_INPUTS)
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_duplicate_gain_pick_order_matches(form, seed, k):
    instance = duplicated_instance(seed, form=form)
    spec = EngineSpec()
    grd = GreedyScheduler(spec).solve(instance, k)
    heap = LazyGreedyScheduler(spec).solve(instance, k)
    assert heap.schedule.as_mapping() == grd.schedule.as_mapping()
    assert heap.utility == pytest.approx(grd.utility, abs=1e-12)


def test_ties_actually_occur():
    """Sanity: the construction really produces duplicate marginal gains."""
    instance = duplicated_instance(0)
    engine = EngineSpec().build(instance)
    scores = engine.scores_for_interval(0, list(range(instance.n_events)))
    values, counts = np.unique(scores, return_counts=True)
    assert (counts >= 3).any()


@pytest.mark.parametrize("form", INTEREST_INPUTS)
def test_exhausted_duplicates_still_match_utility(form):
    """Past the positive-gain frontier (k = every event), schedules may
    differ only in ~1e-16-residue picks; utilities must still agree."""
    instance = duplicated_instance(1, form=form)
    spec = EngineSpec()
    grd = GreedyScheduler(spec).solve(instance, instance.n_events)
    heap = LazyGreedyScheduler(spec).solve(instance, instance.n_events)
    assert heap.utility == pytest.approx(grd.utility, abs=1e-9)
    assert len(heap.schedule) == len(grd.schedule)
