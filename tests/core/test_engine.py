"""Tests of the score engines: correctness, equivalence, state handling."""

import numpy as np
import pytest

from repro.core import (
    ActivityModel,
    InterestMatrix,
    Organizer,
    SESInstance,
    TimeInterval,
    User,
)
from repro.core.engine import (
    ENGINE_KINDS,
    EngineSpec,
    ReferenceEngine,
    SparseEngine,
    make_engine,
)
from repro.core.entities import CandidateEvent, CompetingEvent
from repro.core.errors import DuplicateEventError, UnknownEntityError
from repro.core.live import LiveInstance
from repro.core.objective import total_utility
from repro.core.schedule import Assignment, Schedule

from tests.conftest import INTEREST_INPUTS, make_random_instance, messy_coo


#: Every (engine kind, ``mu`` input form) pairing.
STACKS = [(kind, form) for kind in ENGINE_KINDS for form in INTEREST_INPUTS]


@pytest.fixture(params=STACKS, ids=["-".join(stack) for stack in STACKS])
def stack(request):
    """``(instance, spec)``: the seed-42 instance, ``mu`` handed in as the
    stack's input form."""
    kind, form = request.param
    return make_random_instance(seed=42, interest_input=form), EngineSpec(kind)


class TestFactory:
    def test_known_kinds(self, random_instance):
        assert isinstance(
            make_engine(random_instance, EngineSpec("reference")), ReferenceEngine
        )
        assert isinstance(make_engine(random_instance, EngineSpec("sparse")), SparseEngine)

    def test_default_is_sparse(self, random_instance):
        assert isinstance(make_engine(random_instance), SparseEngine)

    @pytest.mark.parametrize("bad_kind", ["quantum", "vectorized"])
    def test_unknown_kind_rejected(self, random_instance, bad_kind):
        with pytest.raises(ValueError, match="unknown engine kind"):
            make_engine(random_instance, EngineSpec(bad_kind))

    def test_engine_kinds_list_the_default_first(self):
        """The CLI's ``--engine`` default is ``ENGINE_KINDS[0]``."""
        assert ENGINE_KINDS == ("sparse", "reference")
        assert EngineSpec().kind == ENGINE_KINDS[0]

    def test_kind_strings_build_without_warning(self, random_instance, recwarn):
        assert isinstance(make_engine(random_instance, "reference"), ReferenceEngine)
        assert isinstance(make_engine(random_instance, "sparse"), SparseEngine)
        assert not recwarn.list


class TestEngineBehaviour:
    def test_total_utility_tracks_assignments(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        assert engine.total_utility() == pytest.approx(0.0)
        engine.assign(0, 1)
        engine.assign(2, 1)
        expected = total_utility(
            instance, Schedule(instance, [Assignment(0, 1), Assignment(2, 1)])
        )
        assert engine.total_utility() == pytest.approx(expected, abs=1e-9)

    def test_score_is_utility_delta(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        engine.assign(0, 0)
        before = engine.total_utility()
        gain = engine.score(1, 0)
        engine.assign(1, 0)
        assert engine.total_utility() - before == pytest.approx(gain, abs=1e-9)

    def test_unassign_restores_utility(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        engine.assign(0, 0)
        baseline = engine.total_utility()
        engine.assign(1, 0)
        engine.unassign(1)
        assert engine.total_utility() == pytest.approx(baseline, abs=1e-9)
        assert not engine.schedule.contains_event(1)

    def test_reset_clears_everything(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        engine.assign(0, 0)
        engine.reset()
        assert engine.total_utility() == pytest.approx(0.0)
        assert len(engine.schedule) == 0

    def test_score_of_assigned_event_rejected(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        engine.assign(0, 0)
        with pytest.raises(DuplicateEventError):
            engine.score(0, 1)

    def test_scores_for_interval_rejects_assigned(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        engine.assign(0, 0)
        with pytest.raises(DuplicateEventError):
            engine.scores_for_interval(0, [0, 1])

    def test_omega_requires_scheduled_event(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        with pytest.raises(UnknownEntityError):
            engine.omega(0)

    def test_empty_scores_request(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        assert engine.scores_for_interval(0, []).shape == (0,)

    def test_interval_utility_sums_omegas(self, stack):
        instance, spec = stack
        engine = make_engine(instance, spec)
        engine.assign(0, 2)
        engine.assign(3, 2)
        assert engine.interval_utility(2) == pytest.approx(
            engine.omega(0) + engine.omega(3), abs=1e-9
        )


@pytest.mark.parametrize("form", INTEREST_INPUTS)
class TestEngineEquivalence:
    """The sparse engine, whatever form ``mu`` was handed in, must match
    the reference to 1e-9 everywhere."""

    def _pair(self, seed, form):
        instance = make_random_instance(seed=seed, interest_input=form)
        oracle = make_engine(make_random_instance(seed=seed), EngineSpec("reference"))
        return instance, oracle, make_engine(instance, EngineSpec("sparse"))

    def test_scores_match_on_empty_schedule(self, form):
        instance, ref, fast = self._pair(61, form)
        for interval in range(instance.n_intervals):
            np.testing.assert_allclose(
                fast.scores_for_interval(interval, range(instance.n_events)),
                ref.scores_for_interval(interval, range(instance.n_events)),
                atol=1e-9,
            )

    def test_scores_match_after_assignments(self, form):
        instance, ref, fast = self._pair(62, form)
        moves = [(0, 0), (1, 0), (2, 1), (3, 3)]
        for event, interval in moves:
            ref.assign(event, interval)
            fast.assign(event, interval)
        remaining = [
            e for e in range(instance.n_events)
            if not ref.schedule.contains_event(e)
        ]
        for interval in range(instance.n_intervals):
            np.testing.assert_allclose(
                fast.scores_for_interval(interval, remaining),
                ref.scores_for_interval(interval, remaining),
                atol=1e-9,
            )

    def test_omega_and_totals_match(self, form):
        instance, ref, fast = self._pair(63, form)
        for event, interval in [(0, 1), (1, 1), (4, 2)]:
            ref.assign(event, interval)
            fast.assign(event, interval)
        for event in (0, 1, 4):
            assert fast.omega(event) == pytest.approx(ref.omega(event), abs=1e-9)
        assert fast.total_utility() == pytest.approx(
            ref.total_utility(), abs=1e-9
        )

    def test_single_score_matches_bulk(self, form):
        instance, ref, fast = self._pair(65, form)
        fast.assign(0, 0)
        bulk = fast.scores_for_interval(0, [1, 2, 3])
        singles = [fast.score(e, 0) for e in (1, 2, 3)]
        np.testing.assert_allclose(bulk, singles, atol=1e-12)


PLACED = {0: 1, 3: 1, 5: 2}
FREE = [1, 2, 4, 6, 7]


def placed_engine(form="array", seed=64):
    instance = make_random_instance(
        seed=seed, n_users=37, n_events=8, n_intervals=4, n_competing=5,
        interest_input=form,
    )
    engine = SparseEngine(instance)
    for event, interval in PLACED.items():
        engine.assign(event, interval)
    return engine


@pytest.mark.parametrize("form", INTEREST_INPUTS)
class TestBatchIndependence:
    """A cell's score is the same bits whatever else a request holds: the
    score plane caches cells across requests of any shape, so no query
    batch size or order may change a value."""

    def test_scores_do_not_depend_on_the_batch(self, form):
        engine = placed_engine(form)
        n_intervals = engine.instance.n_intervals
        full = engine.scores_for_rows(range(n_intervals), FREE)
        for interval in range(n_intervals):
            row = engine.scores_for_interval(interval, FREE)
            np.testing.assert_array_equal(row, full[interval])
            np.testing.assert_array_equal(
                engine.scores_for_interval(interval, FREE[::-1]), row[::-1]
            )
            for position, event in enumerate(FREE):
                assert engine.scores_for_interval(interval, [event])[0] == (
                    row[position]
                )
                assert engine.score(event, interval) == row[position]

    def test_one_column_matches_the_rows(self, form):
        engine = placed_engine(form)
        n_intervals = engine.instance.n_intervals
        full = engine.scores_for_rows(range(n_intervals), FREE)
        for position, event in enumerate(FREE):
            np.testing.assert_array_equal(
                engine.scores_for_event(event, range(n_intervals)),
                full[:, position],
            )


def live_deltas_engine(form="array"):
    """A placed engine over a live instance after a rival arrival, an
    event arrival and an interest drift."""
    live = LiveInstance(
        make_random_instance(
            seed=66, n_users=37, n_events=8, n_intervals=4,
            n_competing=5, interest_input=form,
        )
    )
    engine = SparseEngine(live)
    for event, interval in PLACED.items():
        engine.assign(event, interval)
    column = np.zeros(live.n_users)
    column[::3] = 0.6
    engine.apply_delta(
        live.add_competing(
            CompetingEvent(index=live.n_competing, interval=1), column
        )
    )
    engine.apply_delta(
        live.add_event(
            CandidateEvent(
                index=live.n_events, location=99, required_resources=1.0
            ),
            column[::-1].copy(),
        )
    )
    engine.apply_delta(live.replace_event_interest(2, column))
    return engine


#: Every query surface a solver, the score plane or a what-if report reads.
QUERY_SURFACES = {
    "scores_for_interval": lambda engine: np.vstack(
        [engine.scores_for_interval(t, FREE) for t in range(4)]
    ),
    "scores_for_rows": lambda engine: engine.scores_for_rows(range(4), FREE),
    "scores_for_event": lambda engine: np.vstack(
        [engine.scores_for_event(event, range(4)) for event in FREE]
    ),
    "removal_losses": lambda engine: engine.removal_losses(sorted(PLACED)),
    "scores_excluding_each": lambda engine: np.vstack(
        [engine.scores_excluding_each(event, 1, [0, 3]) for event in FREE]
    ),
    "omega": lambda engine: np.array([engine.omega(e) for e in sorted(PLACED)]),
    "utilities": lambda engine: np.array(
        [engine.interval_utility(t) for t in range(4)] + [engine.total_utility()]
    ),
}


class TestInputParity:
    """The sparse engine answers bit-identically whatever form ``mu`` was
    handed in: numpy arrays and a COO with explicit zeros and duplicate
    entries convert to the same CSC storage at the boundary."""

    @pytest.mark.parametrize("query", sorted(QUERY_SURFACES))
    def test_query_is_bit_identical_across_inputs(self, query):
        ask = QUERY_SURFACES[query]
        np.testing.assert_array_equal(
            ask(placed_engine("array")), ask(placed_engine("coo"))
        )

    def test_live_deltas_keep_inputs_bit_identical(self):
        engines = {form: live_deltas_engine(form) for form in INTEREST_INPUTS}
        for query in sorted(QUERY_SURFACES):
            ask = QUERY_SURFACES[query]
            np.testing.assert_array_equal(
                ask(engines["array"]), ask(engines["coo"]), err_msg=query
            )


class TestReferenceColumnGathers:
    """The reference oracle gathers each interest column a query needs
    once and loops over users on those vectors: it never reads ``mu`` one
    element at a time, which costs a binary search per read on CSC."""

    def test_queries_make_no_element_reads(self, monkeypatch):
        calls = []
        for name in ("mu_event", "mu_competing"):
            read = getattr(InterestMatrix, name)

            def counting(self, *args, _read=read, _name=name):
                calls.append(_name)
                return _read(self, *args)

            monkeypatch.setattr(InterestMatrix, name, counting)
        instance = make_random_instance(seed=7, n_competing=8)
        engine = ReferenceEngine(instance)
        for event, interval in [(0, 0), (1, 0), (2, 1)]:
            engine.assign(event, interval)
        engine.score(3, 0)
        engine.omega(0)
        engine.total_utility()
        assert calls == []
        instance.interest.mu_competing(0, 0)
        assert calls == ["mu_competing"]


def residue_engines(form="array"):
    """``(sparse engine, reference engine)`` with a negative ``M_t`` residue.

    User 0 is interested in events 0-2 (0.7, 0.6, 1e-17).  All three are
    assigned at interval 0, then events 0 and 1 are withdrawn: user 0's
    scheduled mass is ``((0.7 + 0.6) + 1e-17) - 0.7 - 0.6 = -1.11e-16``
    while event 2 still counts as a contributor.  No rival reaches
    interval 0, so scoring event 3 (interest 1e-17) there meets a
    negative ``K + M + m``.  User 1 only gives event 4 a nonzero score.
    """
    candidate = np.array(
        [[0.7, 0.6, 1e-17, 1e-17, 0.0], [0.2, 0.0, 0.0, 0.0, 0.4]]
    )
    rivals = np.array([[0.5], [0.3]])
    if form == "coo":
        candidate, rivals = messy_coo(candidate), messy_coo(rivals)
    interest = InterestMatrix.from_arrays(candidate, rivals)
    instance = SESInstance(
        [User(index=0), User(index=1)],
        [TimeInterval(index=0), TimeInterval(index=1)],
        [CandidateEvent(index=e, location=e) for e in range(5)],
        [CompetingEvent(index=0, interval=1)],
        interest,
        ActivityModel(np.array([[0.9, 0.8], [0.7, 0.6]])),
        Organizer(resources=1.0),
    )
    engines = (SparseEngine(instance), ReferenceEngine(instance))
    for engine in engines:
        for event in (0, 1, 2):
            engine.assign(event, 0)
        engine.unassign(0)
        engine.unassign(1)
    return engines


class TestZeroDenominatorConvention:
    def test_all_zero_interest_gives_zero_everything(self):
        """0/0 = 0: nobody interested in anything -> utility stays 0."""
        import numpy as np

        from repro.core import (
            ActivityModel,
            CandidateEvent,
            InterestMatrix,
            Organizer,
            SESInstance,
            TimeInterval,
            User,
        )

        users = [User(index=0)]
        intervals = [TimeInterval(index=0)]
        events = [CandidateEvent(index=0, location=0)]
        interest = InterestMatrix.from_arrays(np.zeros((1, 1)))
        instance = SESInstance(
            users, intervals, events, [], interest,
            ActivityModel.constant(1, 1), Organizer(resources=1.0),
        )
        for kind in ("reference", "sparse"):
            engine = make_engine(instance, EngineSpec(kind))
            assert engine.score(0, 0) == 0.0
            engine.assign(0, 0)
            assert engine.omega(0) == 0.0
            assert engine.total_utility() == 0.0

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_negative_residue_denominator_scores_zero(self, form):
        """The 0/0 rule holds on a non-empty interval whose ``K + M + m``
        is a tiny negative residue: every query surface answers the
        reference's 0.0, bit for bit."""
        engine, oracle = residue_engines(form)
        state = engine.export_mass_state()
        stops = np.cumsum(state["lengths"])
        [position] = np.flatnonzero(state["intervals"] == 0)
        at_0 = slice(stops[position] - state["lengths"][position], stops[position])
        rows, values, counts = (state[n][at_0] for n in ("rows", "values", "counts"))
        assert rows.tolist() == [0] and counts.tolist() == [1] and values[0] < 0.0
        expected = oracle.score(3, 0)
        assert expected == 0.0
        answers = [
            engine.score(3, 0),
            engine.scores_for_interval(0, [3])[0],
            engine.scores_for_interval(0, [3, 4])[0],
            engine.scores_for_rows([0, 1], [3, 4])[0, 0],
            engine.scores_for_event(3, [0, 1])[0],
        ]
        assert [float(a).hex() for a in answers] == [expected.hex()] * 5
        np.testing.assert_allclose(
            engine.scores_for_rows([0, 1], [3, 4]),
            [oracle.scores_for_interval(t, [3, 4]) for t in (0, 1)],
            atol=1e-12,
        )


def history_engine(form="array"):
    """``placed_engine``'s schedule reached through a history that sorted
    re-assignment does not repeat: interval 2 is filled first, and a
    sibling at interval 1 is assigned and withdrawn."""
    engine = SparseEngine(placed_engine(form).instance)
    for event, interval in [(5, 2), (3, 1), (6, 1), (0, 1)]:
        engine.assign(event, interval)
    engine.unassign(6)
    return engine


def surface_bits(engine):
    return {name: read(engine).tobytes() for name, read in QUERY_SURFACES.items()}


class TestMassStateArrays:
    """``export_mass_state`` hands checkpoints flat arrays, and restoring
    them reproduces the live accumulation bit for bit."""

    def test_export_is_flat_arrays_in_insertion_order(self):
        state = history_engine().export_mass_state()
        assert state["intervals"].tolist() == [2, 1]
        assert {name: array.dtype for name, array in state.items()} == {
            "intervals": np.int32,
            "lengths": np.int32,
            "rows": np.int32,
            "values": np.float64,
            "counts": np.int32,
        }
        entries = int(state["lengths"].sum())
        assert entries == state["rows"].size == state["values"].size
        assert entries == state["counts"].size

    def test_empty_engine_exports_empty_arrays(self):
        engine = SparseEngine(placed_engine().instance)
        state = engine.export_mass_state()
        assert all(array.size == 0 for array in state.values())
        engine.restore_mass_state(state)
        assert engine.total_utility() == 0.0

    @pytest.mark.parametrize("target", ["fresh", "clone"])
    def test_restore_answers_every_query_with_the_same_bits(self, target):
        engine = history_engine()
        state = engine.export_mass_state()
        if target == "fresh":
            other = SparseEngine(engine.instance)
            for event, interval in sorted(PLACED.items()):
                other.assign(event, interval)
            # sorted re-assignment alone lands off the live bits
            assert surface_bits(other) != surface_bits(engine)
        else:
            other = engine.clone()
        other.restore_mass_state(state)
        assert surface_bits(other) == surface_bits(engine)
        # both go on alike: the restored mass takes further updates
        for each in (engine, other):
            each.assign(6, 1)
            each.unassign(3)
        assert other.total_utility().hex() == engine.total_utility().hex()
        assert (
            other.scores_for_rows(range(4), [1, 2, 3]).tobytes()
            == engine.scores_for_rows(range(4), [1, 2, 3]).tobytes()
        )

    def test_restored_arrays_are_writeable_copies(self):
        engine = history_engine()
        state = engine.export_mass_state()
        for array in state.values():
            array.setflags(write=False)  # as a checkpoint load hands them over
        other = SparseEngine(engine.instance)
        for event, interval in sorted(PLACED.items()):
            other.assign(event, interval)
        other.restore_mass_state(state)
        for mass in other._scheduled_mass.values():
            assert (mass.rows.dtype, mass.values.dtype, mass.counts.dtype) == (
                np.intp, np.float64, np.int64,
            )
            for array in (mass.rows, mass.values, mass.counts):
                assert array.flags.writeable
                assert not any(np.shares_memory(array, s) for s in state.values())

    def test_negative_residue_restores_onto_a_fresh_engine(self):
        engine, oracle = residue_engines()
        fresh = SparseEngine(engine.instance)
        fresh.assign(2, 0)
        fresh.restore_mass_state(engine.export_mass_state())
        assert fresh.score(3, 0).hex() == engine.score(3, 0).hex() == "0x0.0p+0"
        assert fresh.total_utility().hex() == engine.total_utility().hex()
        assert fresh.omega(2).hex() == engine.omega(2).hex()
