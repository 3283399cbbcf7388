"""ScorePlane.fork(): copy-on-write cloning of warm planes.

The load-bearing contract: a fork is an O(cells) *copy* — the forked
plane answers solves bit-identically to its parent while performing zero
engine score evaluations of its own, on every engine kind and interest
backend, including after the parent absorbed live deltas.
"""

import numpy as np
import pytest

from repro.api import EngineSpec, solver_registry
from repro.core.entities import CompetingEvent
from repro.core.live import LiveInstance
from repro.core.scoreplane import ScorePlane

from tests.conftest import make_random_instance

BACKENDS = ("dense", "sparse")
#: (engine kind, mu storage): the oracle on dense storage, the sparse
#: engine on both storages.
STACKS = (("reference", "dense"), ("sparse", "dense"), ("sparse", "sparse"))
STACK_IDS = ["-".join(stack) for stack in STACKS]


def grd_solve(instance, k, plane):
    scheduler = solver_registry.create("grd")
    result = scheduler.solve(instance, k, plane=plane)
    return result.utility, tuple(sorted(result.schedule.as_mapping().items()))


def make_instance(backend="dense"):
    return make_random_instance(
        n_users=30, n_events=8, n_intervals=5, n_competing=6, seed=1711,
        interest_backend=backend,
    )


@pytest.fixture
def instance():
    return make_instance()


class TestFork:
    @pytest.mark.parametrize("kind,backend", STACKS, ids=STACK_IDS)
    def test_fork_is_bit_identical_and_zero_evaluation(self, kind, backend):
        instance = make_instance(backend)
        plane = ScorePlane(EngineSpec(kind).build(instance))
        plane.ensure()  # warm the parent
        filled = plane.cells_filled
        fork = plane.fork()

        assert fork is not plane
        assert fork.engine is not plane.engine
        assert grd_solve(instance, 4, fork) == grd_solve(instance, 4, plane)
        # the fork never evaluated a single cell: all warm copies
        assert fork.cells_filled == 0
        assert fork.cells_refreshed == 0
        # and forking didn't charge the parent either
        assert plane.cells_filled == filled

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fork_of_cold_plane_matches_too(self, backend):
        instance = make_instance(backend)
        plane = ScorePlane(EngineSpec().build(instance))
        fork = plane.fork()  # nothing warm to copy: fork fills itself
        assert grd_solve(instance, 4, fork) == grd_solve(instance, 4, plane)
        assert fork.cells_filled > 0

    def test_forks_are_independent(self, instance):
        plane = ScorePlane(EngineSpec().build(instance))
        plane.ensure()
        fork = plane.fork()
        fork.mark_dirty(0)
        fork.flush()
        # dirtying + refreshing the fork never touches the parent
        assert plane.cells_refreshed == 0
        assert grd_solve(instance, 3, fork) == grd_solve(instance, 3, plane)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fork_after_delta_stream(self, backend):
        """Parent absorbs live deltas in O(delta); forks taken afterwards
        still answer bit-identically to a cold solve over the new state."""
        rng = np.random.default_rng(77)
        base = make_random_instance(
            n_users=24, n_events=6, n_intervals=4, n_competing=4, seed=903,
            interest_backend=backend,
        )
        live = LiveInstance(base)
        plane = ScorePlane(EngineSpec().build(live))
        plane.ensure()
        for step in range(3):
            rival = CompetingEvent(
                index=live.n_competing, interval=step % live.n_intervals
            )
            delta = live.add_competing(rival, rng.random(live.n_users))
            plane.apply_delta(delta)
        frozen = live.freeze()
        template = EngineSpec().build(frozen)
        fork = plane.fork(template.clone())
        cold = ScorePlane(EngineSpec().build(frozen))
        assert grd_solve(frozen, 4, fork) == grd_solve(frozen, 4, cold)
        assert fork.cells_filled == 0

    def test_fork_rejects_mismatched_engine_schedule(self, instance):
        engine = EngineSpec().build(instance)
        plane = ScorePlane(engine, auto_reset=False)
        plane.ensure()
        other = EngineSpec().build(instance)
        other.assign(0, 0)
        with pytest.raises(ValueError, match="different schedule"):
            plane.fork(other)


class TestEngineClone:
    @pytest.mark.parametrize("kind,backend", STACKS, ids=STACK_IDS)
    def test_clone_scores_match_after_assignments(self, kind, backend):
        instance = make_instance(backend)
        engine = EngineSpec(kind).build(instance)
        engine.assign(0, 1)
        engine.assign(2, 0)
        clone = engine.clone()
        assert clone is not engine
        assert clone.schedule.as_mapping() == engine.schedule.as_mapping()
        scheduled = set(engine.schedule.as_mapping())
        for event in range(instance.n_events):
            if event in scheduled:
                continue  # Eq. 4 scores only unscheduled candidates
            for interval in range(instance.n_intervals):
                assert clone.score(event, interval) == engine.score(
                    event, interval
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clone_is_deep_for_mutable_state(self, backend):
        instance = make_instance(backend)
        engine = EngineSpec().build(instance)
        engine.assign(0, 1)
        clone = engine.clone()
        clone.assign(3, 2)
        clone.unassign(0)
        # the original never observes the clone's moves
        assert engine.schedule.as_mapping() == {0: 1}
        fresh = EngineSpec().build(instance)
        fresh.assign(0, 1)
        for event in range(1, instance.n_events):
            for interval in range(instance.n_intervals):
                assert engine.score(event, interval) == fresh.score(
                    event, interval
                )
