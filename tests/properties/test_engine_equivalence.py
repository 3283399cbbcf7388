"""Property test: the sparse engine IS the reference engine, numerically.

The single most load-bearing invariant in the library — every solver
result, benchmark number and figure rests on it.  Both engines
(reference / sparse), whatever form ``mu`` was handed in (arrays / a
messy COO), must agree to 1e-9 on every query a solver can issue,
through arbitrary assign/unassign sequences, including emptied intervals
and all-zero interest.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ENGINE_KINDS, EngineSpec, make_engine

from tests.conftest import INTEREST_INPUTS, make_random_instance
from tests.properties.conftest import instances_with_schedules

COMMON = settings(max_examples=50, deadline=None)

FAST_ENGINES = ("sparse",)


def _assert_engines_agree(instance, schedule, engines):
    """Every query of every non-reference engine matches the reference."""
    reference = engines["reference"]

    for name in FAST_ENGINES:
        engine = engines[name]
        assert abs(reference.total_utility() - engine.total_utility()) <= 1e-9, name

        for event in schedule.scheduled_events():
            assert abs(reference.omega(event) - engine.omega(event)) <= 1e-9, name

        remaining = [
            event
            for event in range(instance.n_events)
            if not schedule.contains_event(event)
        ]
        for interval in range(instance.n_intervals):
            assert (
                abs(
                    reference.interval_utility(interval)
                    - engine.interval_utility(interval)
                )
                <= 1e-9
            ), name
            np.testing.assert_allclose(
                engine.scores_for_interval(interval, remaining),
                reference.scores_for_interval(interval, remaining),
                atol=1e-9,
                err_msg=name,
            )


@given(pair=instances_with_schedules(inputs=INTEREST_INPUTS))
@COMMON
def test_engines_agree_on_everything(pair):
    instance, schedule = pair
    engines = {
        kind: make_engine(instance, EngineSpec(kind))
        for kind in ENGINE_KINDS
    }
    for assignment in schedule:
        for engine in engines.values():
            engine.assign(assignment.event, assignment.interval)
    _assert_engines_agree(instance, schedule, engines)


@given(
    pair=instances_with_schedules(inputs=INTEREST_INPUTS),
    drop_seed=st.integers(0, 2**20),
)
@settings(max_examples=50, deadline=None)
def test_engines_agree_after_unassigns(pair, drop_seed):
    """Parity must survive removals, not just append-only growth.

    This is the property that catches subtraction residue: a user whose
    remaining scheduled mass should be exactly zero but carries ~1e-16
    contributes a whole sigma of phantom utility wherever the competing
    mass is also zero.
    """
    instance, schedule = pair
    engines = {
        kind: make_engine(instance, EngineSpec(kind))
        for kind in ENGINE_KINDS
    }
    for assignment in schedule:
        for engine in engines.values():
            engine.assign(assignment.event, assignment.interval)

    rng = np.random.default_rng(drop_seed)
    events = list(schedule.scheduled_events())
    to_drop = [e for e in events if rng.random() < 0.5]
    for event in to_drop:
        for engine in engines.values():
            engine.unassign(event)

    live = engines["reference"].schedule
    _assert_engines_agree(instance, live, engines)


@given(pair=instances_with_schedules(inputs=INTEREST_INPUTS))
@settings(max_examples=30, deadline=None)
def test_emptied_intervals_leave_no_trace(pair):
    """Assigning then unassigning everything returns every engine to zero."""
    instance, schedule = pair
    engines = {
        kind: make_engine(instance, EngineSpec(kind))
        for kind in ENGINE_KINDS
    }
    for assignment in schedule:
        for engine in engines.values():
            engine.assign(assignment.event, assignment.interval)
    for event in list(schedule.scheduled_events()):
        for engine in engines.values():
            engine.unassign(event)

    all_events = list(range(instance.n_events))
    for kind, engine in engines.items():
        assert engine.total_utility() == 0.0, kind
        fresh = make_engine(instance, EngineSpec(kind))
        for interval in range(instance.n_intervals):
            assert engine.interval_utility(interval) == 0.0, kind
            np.testing.assert_allclose(
                engine.scores_for_interval(interval, all_events),
                fresh.scores_for_interval(interval, all_events),
                atol=1e-9,
                err_msg=kind,
            )


@given(
    form=st.sampled_from(INTEREST_INPUTS),
    kind=st.sampled_from(ENGINE_KINDS),
    seed=st.integers(0, 2**10),
)
@settings(max_examples=20, deadline=None)
def test_all_zero_interest_scores_nothing(form, kind, seed):
    """With mu == 0 everywhere, every query answers exactly 0."""
    instance = make_random_instance(
        interest_density=0.0, seed=seed, interest_input=form
    )
    engine = make_engine(instance, EngineSpec(kind))
    engine.assign(0, 0)
    engine.assign(1, 0)
    assert engine.total_utility() == 0.0
    assert engine.omega(0) == 0.0
    for interval in range(instance.n_intervals):
        assert engine.interval_utility(interval) == 0.0
        assert engine.score(2, interval) == 0.0
    engine.unassign(0)
    engine.unassign(1)
    assert engine.total_utility() == 0.0


@given(
    pair=instances_with_schedules(inputs=INTEREST_INPUTS),
    kind=st.sampled_from(FAST_ENGINES),
)
@settings(max_examples=30, deadline=None)
def test_unassign_round_trip_preserves_scores(pair, kind):
    """assign + unassign must leave a stateful engine's answers intact."""
    instance, schedule = pair
    engine = make_engine(instance, EngineSpec(kind))
    for assignment in schedule:
        engine.assign(assignment.event, assignment.interval)
    remaining = [
        event
        for event in range(instance.n_events)
        if not schedule.contains_event(event)
    ]
    if not remaining:
        return
    probe = remaining[0]
    baseline = [
        engine.score(probe, interval)
        for interval in range(instance.n_intervals)
    ]
    other = remaining[-1]
    engine.assign(other, 0)
    engine.unassign(other)
    after = [
        engine.score(probe, interval)
        for interval in range(instance.n_intervals)
    ]
    np.testing.assert_allclose(after, baseline, atol=1e-9)
