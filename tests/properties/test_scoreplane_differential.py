"""ScorePlane warm-start contract: plane-fed solves == cold solves.

The acceptance property of the shared score plane: injecting a warm
plane into any batch solver yields a *bit-identical schedule* and a
utility within 1e-9 of the cold path, on both interest backends — even
after the plane has absorbed an arbitrary stream of live-instance deltas
(arrivals, cancellations, drift, rivals) and served earlier solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import solver_registry
from repro.core.engine import EngineSpec
from repro.core.entities import CandidateEvent, CompetingEvent
from repro.core.live import LiveInstance
from repro.core.scoreplane import ScorePlane

from tests.conftest import make_random_instance

BACKENDS = [("dense", "sparse"), ("sparse", "sparse")]
#: Deterministic one-shot solvers whose first move sweeps initial scores.
SOLVERS = ("grd", "grd-heap", "top", "beam")


def build(backend, seed):
    if backend == "sparse":
        pytest.importorskip("scipy")
    return make_random_instance(
        seed=seed,
        n_users=25,
        n_events=7,
        n_intervals=5,
        interest_backend=backend,
    )


def solve_pair(instance, spec, solver_name, k, plane):
    cold = solver_registry.create(solver_name, engine=spec).solve(instance, k)
    warm = solver_registry.create(solver_name, engine=spec).solve(
        instance, k, plane=plane
    )
    return cold, warm


@pytest.mark.parametrize("backend,kind", BACKENDS)
@pytest.mark.parametrize("solver_name", SOLVERS)
@given(seed=st.integers(0, 40), k=st.integers(1, 6))
@settings(max_examples=12, deadline=None)
def test_plane_fed_solve_matches_cold(backend, kind, solver_name, seed, k):
    instance = build(backend, seed)
    spec = EngineSpec(kind=kind)
    plane = ScorePlane(spec.build(instance))
    cold, warm = solve_pair(instance, spec, solver_name, k, plane)
    assert warm.schedule.as_mapping() == cold.schedule.as_mapping()
    assert warm.utility == pytest.approx(cold.utility, abs=1e-9)
    # and the plane stays reusable: a second warm solve is identical too
    again = solver_registry.create(solver_name, engine=spec).solve(
        instance, k, plane=plane
    )
    assert again.schedule.as_mapping() == cold.schedule.as_mapping()


@pytest.mark.parametrize("backend,kind", BACKENDS)
@pytest.mark.parametrize("solver_name", ("grd", "grd-heap"))
@given(seed=st.integers(0, 30), data=st.data())
@settings(max_examples=10, deadline=None)
def test_plane_stays_exact_under_live_deltas(
    backend, kind, solver_name, seed, data
):
    """After random structural deltas, a warm solve over the live view
    still equals a cold GRD solve of a frozen snapshot.  With
    ``grd-heap`` this is the stream oracle's contract: its warm regret
    sample must reproduce GRD's schedule and utility."""
    instance = build(backend, seed)
    live = LiveInstance(instance)
    spec = EngineSpec(kind=kind)
    plane = ScorePlane(spec.build(live))
    plane.ensure()
    rng = np.random.default_rng(seed)

    n_ops = data.draw(st.integers(1, 6))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["arrive", "cancel", "drift", "rival"]))
        column = np.where(
            rng.random(live.n_users) < 0.4, rng.random(live.n_users), 0.0
        )
        if op == "arrive":
            delta = live.add_event(
                CandidateEvent(
                    index=live.n_events,
                    location=int(rng.integers(100, 200)),
                    required_resources=1.0,
                ),
                column,
            )
        elif op == "cancel":
            if live.n_events <= 1:
                continue
            delta = live.remove_event(int(rng.integers(live.n_events)))
        elif op == "drift":
            delta = live.replace_event_interest(
                int(rng.integers(live.n_events)), column
            )
        else:
            delta = live.add_competing(
                CompetingEvent(
                    index=live.n_competing,
                    interval=int(rng.integers(live.n_intervals)),
                ),
                column,
            )
        plane.apply_delta(delta)

    k = min(4, live.n_events)
    warm = solver_registry.create(solver_name, engine=spec).solve(
        live, k, plane=plane
    )
    cold = solver_registry.create("grd", engine=spec).solve(live.freeze(), k)
    assert warm.schedule.as_mapping() == cold.schedule.as_mapping()
    assert warm.utility == pytest.approx(cold.utility, abs=1e-9)
