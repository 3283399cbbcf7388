"""Lock differential suite: locks never perturb what they do not bind.

The acceptance contract for organizer locks, enforced across every
registry solver, with ``mu`` handed in as arrays AND as a messy COO:

* ``locks=LockSet()`` (empty) is bit-identical to ``locks=None`` — the
  empty set collapses to the unlocked code path via ``LockSet.coerce``;
* a *non-binding* forbid (a cell the unlocked solve never chose) leaves
  deterministic solvers bit-identical;
* pinning the full unlocked solution returns it bit-identically;
* whatever the solver, pins are always present in the result and
  forbidden cells never appear.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.incremental import IncrementalScheduler
from repro.algorithms.registry import solver_registry
from repro.api import ScheduleSession
from repro.interactive import LockSet

from tests.conftest import INTEREST_INPUTS, make_random_instance

#: One-shot solvers whose unlocked run is deterministic given the seed
#: argument is unused (no RNG draws at all).
DETERMINISTIC = ("beam", "exact", "grd", "grd-heap", "top")
SEEDED = ("grasp", "rand", "sa")
ONE_SHOT = DETERMINISTIC + SEEDED

K = 3


def build_case(form: str):
    instance = make_random_instance(seed=777, interest_input=form)
    return instance, "sparse"


def solve(name: str, instance, engine, *, locks=None, seed=11):
    seeded = solver_registry.get(name).seeded
    solver = solver_registry.create(
        name, engine=engine, seed=seed if seeded else None
    )
    return solver.solve(instance, K, locks=locks)


def worst_unchosen_cell(matrix, chosen) -> tuple[int, int]:
    """The globally worst-scoring ``(interval, event)`` baseline cell
    outside ``chosen`` (``{event: interval}``): no solver path ever
    prefers it, so forbidding it must be a no-op."""
    taken = {(interval, event) for event, interval in chosen.items()}
    for flat in np.argsort(matrix, axis=None):
        interval, event = np.unravel_index(int(flat), matrix.shape)
        if (int(interval), int(event)) not in taken:
            return int(interval), int(event)
    raise AssertionError("every cell is chosen")


class TestEmptyLocksAreTheUnlockedPath:
    """``LockSet()`` must take the exact unlocked code path, byte for byte."""

    @pytest.mark.parametrize("name", ONE_SHOT)
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_one_shot_solvers(self, name, form):
        instance, engine = build_case(form)
        unlocked = solve(name, instance, engine, locks=None)
        empty = solve(name, instance, engine, locks=LockSet())
        assert empty.schedule == unlocked.schedule
        assert empty.utility == unlocked.utility

    def test_local_search_refiner(self):
        instance, engine = build_case("array")
        start = solve("grd", instance, engine).schedule
        refiner = solver_registry.create("ls", engine=engine, seed=11)
        unlocked = refiner.refine(instance, start, locks=None)
        refiner = solver_registry.create("ls", engine=engine, seed=11)
        empty = refiner.refine(instance, start, locks=LockSet())
        assert empty.schedule == unlocked.schedule
        assert empty.utility == unlocked.utility

    def test_incremental_scheduler(self):
        instance, _ = build_case("array")
        unlocked = IncrementalScheduler(instance, K)
        empty = IncrementalScheduler(instance, K, locks=LockSet())
        assert empty.locks is None  # coerced onto the unlocked path
        assert empty.schedule == unlocked.schedule
        assert empty.utility() == unlocked.utility()


class TestNonBindingForbids:
    """Forbidding a cell the solver never wanted must change nothing."""

    @pytest.mark.parametrize("name", DETERMINISTIC)
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_worst_cell_forbid_is_invisible(self, name, form):
        instance, engine = build_case(form)
        unlocked = solve(name, instance, engine)
        session = ScheduleSession(instance, default_engine=engine)
        worst = worst_unchosen_cell(
            session.plane_for(None).ensure(), unlocked.schedule.as_mapping()
        )

        locked = solve(name, instance, engine, locks=LockSet().forbid(*worst))
        assert locked.schedule == unlocked.schedule
        assert locked.utility == unlocked.utility


class TestFullyPinned:
    @pytest.mark.parametrize("name", ONE_SHOT)
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_pinning_the_whole_solution_returns_it(self, name, form):
        instance, engine = build_case(form)
        unlocked = solve("grd", instance, engine)
        pins = tuple(
            (interval, event)
            for event, interval in sorted(unlocked.schedule.as_mapping().items())
        )
        locks = LockSet(pins=pins)
        locked = solve(name, instance, engine, locks=locks)
        assert locked.schedule.as_mapping() == unlocked.schedule.as_mapping()


class TestWarmSession:
    """The three differentials through a warm ``ScheduleSession``, whose
    locked solves read a masked copy of the session's score plane."""

    @pytest.mark.parametrize("name", ("grd", "grd-heap", "top"))
    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_locks_never_perturb_warm_solves(self, name, form):
        instance, engine = build_case(form)
        session = ScheduleSession(instance, default_engine=engine)
        unlocked = session.solve(k=K, solver=name)
        chosen = unlocked.schedule.as_mapping()
        worst = worst_unchosen_cell(session.plane_for(None).ensure(), chosen)
        for locks in (LockSet(), LockSet().forbid(*worst)):
            locked = session.solve(k=K, solver=name, locks=locks)
            assert locked.schedule == unlocked.schedule
            assert locked.utility == unlocked.utility
        pins = tuple((t, e) for e, t in sorted(chosen.items()))
        pinned = session.solve(k=K, solver=name, locks=LockSet(pins=pins))
        assert pinned.schedule.as_mapping() == chosen


class TestLockInvariants:
    """Pins always present, forbids never violated — every solver, any seed."""

    @pytest.mark.parametrize("name", ONE_SHOT)
    @pytest.mark.parametrize("seed", (0, 7))
    def test_pins_present_and_forbids_absent(self, name, seed):
        instance, engine = build_case("array")
        # pin one assignment the greedy draft proves feasible, forbid the
        # unlocked winner's other cells to force the solver to move
        draft = sorted(solve("grd", instance, engine).schedule.as_mapping().items())
        (pin_event, pin_interval) = draft[0]
        forbids = {(interval, event) for event, interval in draft[1:]}
        locks = LockSet(pins=((pin_interval, pin_event),), forbids=forbids)

        result = solve(name, instance, engine, locks=locks, seed=seed)
        mapping = result.schedule.as_mapping()
        assert mapping.get(pin_event) == pin_interval
        for interval, event in forbids:
            assert mapping.get(event) != interval
        # check_schedule is the same predicate the solvers self-verify with
        locks.check_schedule(result.schedule)

    def test_refiner_never_moves_a_pin_or_lands_on_a_forbid(self):
        instance, engine = build_case("array")
        start = solve("grd", instance, engine).schedule
        draft = sorted(start.as_mapping().items())
        (pin_event, pin_interval) = draft[0]
        locks = LockSet(pins=((pin_interval, pin_event),))
        refiner = solver_registry.create("ls", engine=engine, seed=3)
        refined = refiner.refine(instance, start, locks=locks)
        assert refined.schedule.as_mapping().get(pin_event) == pin_interval
        locks.check_schedule(refined.schedule)

    def test_incremental_honors_locks_through_maintenance(self):
        instance, engine = build_case("array")
        draft = sorted(
            solve("grd", instance, engine).schedule.as_mapping().items()
        )
        (pin_event, pin_interval) = draft[0]
        locks = LockSet(pins=((pin_interval, pin_event),)).forbid(
            draft[1][1], draft[1][0]
        )
        inc = IncrementalScheduler(instance, K, locks=locks)
        locks.check_schedule(inc.schedule)

        # interest churn triggers repair; locks must survive it
        rng = np.random.default_rng(4)
        for event in (draft[1][0], pin_event):
            inc.update_event_interest(
                event, rng.uniform(0, 1, instance.n_users)
            )
            locks.check_schedule(inc.schedule)
