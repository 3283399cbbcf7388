"""Pick-order parity: GRD's lazy loop must make Algorithm 1's eager picks.

Algorithm 1 rescores the picked interval's whole row after every pick
(:class:`~tests.algorithms.eager_grd.EagerGreedyScheduler`, the
oracle); ``grd`` and ``grd-heap`` rescore only the stale cells that can
still win.  A stale score is an upper bound on the current one, ties go
to the lowest ``(interval, event)`` in both loops, and a cell's bits do
not depend on the batch it is scored in, so the schedules and the
``float.hex`` of the utilities must coincide.  The instances here are
the adversarial cases for that argument:

* every interest column duplicated several times, so marginal gains tie
  exactly;
* ``k = |E|``, which runs past the positive-gain frontier into picks
  scored by ~1e-16 subtraction residues, where a stale score can
  understate its current one by a rounding step;
* pinned and forbidden cells;
* the sparse, reference and sharded engines, cold and over a warm plane.
"""

import numpy as np
import pytest

from repro.algorithms.registry import solver_registry
from repro.core.activity import ActivityModel
from repro.core.engine import EngineSpec
from repro.core.entities import CandidateEvent, Organizer, TimeInterval, User
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.scoreplane import ScorePlane
from repro.interactive.locks import LockSet

from tests.algorithms.eager_grd import EagerGreedyScheduler
from tests.conftest import INTEREST_INPUTS, make_random_instance, messy_coo

LAZY = ("grd", "grd-heap")

ENGINES = {
    "sparse": EngineSpec(),
    "reference": EngineSpec(kind="reference"),
    "sharded": EngineSpec(kind="sparse", shards=2, block_users=4),
}


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


def assert_matches_oracle(instance, k, spec, *, locks=None, plane=None):
    """Both lazy names return the eager oracle's schedule and utility bits."""
    oracle = EagerGreedyScheduler(spec).solve(
        instance, k, locks=locks, plane=plane
    )
    for name in LAZY:
        lazy = solver_registry.create(name, engine=spec).solve(
            instance, k, locks=locks, plane=plane
        )
        assert list(lazy.schedule) == list(oracle.schedule), name
        assert lazy.utility.hex() == oracle.utility.hex(), name
        assert lazy.stats.score_updates <= oracle.stats.score_updates, name


@pytest.mark.parametrize("form", INTEREST_INPUTS)
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_duplicate_gain_pick_order_matches(form, seed, k):
    assert_matches_oracle(duplicated_instance(seed, form=form), k, EngineSpec())


def test_ties_actually_occur():
    """Sanity: the construction really produces duplicate marginal gains."""
    instance = duplicated_instance(0)
    engine = EngineSpec().build(instance)
    scores = engine.scores_for_interval(0, list(range(instance.n_events)))
    values, counts = np.unique(scores, return_counts=True)
    assert (counts >= 3).any()


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", range(40))
def test_exhausted_duplicates_match_oracle_bits(engine, seed):
    """Past the positive-gain frontier (k = every event), picks are
    decided by residues that need not fall as an interval fills; the
    lazy loop still makes the eager picks, bit for bit."""
    instance = duplicated_instance(seed, form=INTEREST_INPUTS[seed % 2])
    assert_matches_oracle(instance, instance.n_events, ENGINES[engine])


def test_residues_that_rise_as_an_interval_fills_occur():
    """Sanity: on the reference engine, seed 18's residue at (t0, e6) is
    -2**-53 with two events at t0 and 0.0 with three, so a stale score
    really can understate the current one there."""
    instance = duplicated_instance(18)
    engine = ENGINES["reference"].build(instance)
    engine.assign(1, 0)
    engine.assign(8, 0)
    before = engine.scores_for_interval(0, [6])[0]
    engine.assign(7, 0)
    after = engine.scores_for_interval(0, [6])[0]
    assert before < after


def random_locks(instance, seed):
    """One pin and one forbid on another event, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n_intervals, n_events = instance.n_intervals, instance.n_events
    interval, event = int(rng.integers(n_intervals)), int(rng.integers(n_events))
    other = (event + 1 + int(rng.integers(n_events - 1))) % n_events
    return LockSet().pin(interval, event).forbid(int(rng.integers(n_intervals)), other)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("exhausted", [False, True], ids=["k3", "kE"])
def test_locked_picks_match_oracle(engine, seed, exhausted):
    instance = make_random_instance(
        seed=seed, interest_input=INTEREST_INPUTS[seed % 2]
    )
    locks = random_locks(instance, seed)
    k = instance.n_events if exhausted else 3
    assert_matches_oracle(instance, k, ENGINES[engine], locks=locks)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_warm_plane_picks_match_oracle(engine):
    """Over one warm plane, every solve reads the same cached matrix."""
    spec = ENGINES[engine]
    instance = make_random_instance(seed=31, n_events=10, n_intervals=5, n_users=20)
    plane = ScorePlane(spec.build(instance))
    plane.ensure()
    for k in (1, 4, instance.n_events):
        assert_matches_oracle(instance, k, spec, plane=plane)
    locks = random_locks(instance, 31)
    assert_matches_oracle(instance, 4, spec, plane=plane, locks=locks)
    assert plane.cells_refreshed == 0
