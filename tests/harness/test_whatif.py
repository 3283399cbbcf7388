"""Tests of the what-if capacity analysis."""

import pytest

from repro.harness.whatif import (
    WhatIfCurve,
    competition_cost,
    sweep_locations,
    sweep_theta,
)

from tests.conftest import make_random_instance


@pytest.fixture
def instance():
    return make_random_instance(
        seed=510, n_users=15, n_events=8, n_intervals=3,
        n_locations=4, theta=6.0, xi_range=(1.0, 3.0),
    )


class TestWhatIfCurve:
    def test_marginal_differences(self):
        curve = WhatIfCurve(
            knob="theta", values=(1.0, 2.0, 3.0), utilities=(10.0, 14.0, 15.0)
        )
        assert curve.marginal() == (4.0, 1.0)

    def test_best_point(self):
        curve = WhatIfCurve(
            knob="x", values=(1.0, 2.0, 3.0), utilities=(5.0, 9.0, 7.0)
        )
        assert curve.best() == (2.0, 9.0)


class TestSweepTheta:
    def test_more_staff_never_hurts(self, instance):
        curve = sweep_theta(instance, k=5, thetas=(3.0, 6.0, 12.0, 50.0))
        assert all(
            a <= b + 1e-9
            for a, b in zip(curve.utilities, curve.utilities[1:])
        )

    def test_theta_below_max_xi_rejected(self, instance):
        with pytest.raises(ValueError, match="below the largest"):
            sweep_theta(instance, k=5, thetas=(0.5,))

    def test_empty_grid_rejected(self, instance):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_theta(instance, k=5, thetas=())

    def test_curve_shape(self, instance):
        curve = sweep_theta(instance, k=5, thetas=(4.0, 8.0))
        assert curve.knob == "theta"
        assert curve.values == (4.0, 8.0)
        assert len(curve.utilities) == 2


class TestSweepLocations:
    def test_more_venues_never_hurt(self, instance):
        curve = sweep_locations(instance, k=5, location_counts=(1, 2, 4))
        assert all(
            a <= b + 1e-9
            for a, b in zip(curve.utilities, curve.utilities[1:])
        )

    def test_single_venue_forces_spreading(self, instance):
        """With one venue, at most one event per interval is possible."""
        from repro.algorithms.greedy import GreedyScheduler
        from repro.harness.whatif import _with_locations

        folded = _with_locations(instance, 1)
        result = GreedyScheduler().solve(folded, 5)
        for interval in result.schedule.used_intervals():
            assert len(result.schedule.events_at(interval)) == 1

    def test_bad_counts_rejected(self, instance):
        with pytest.raises(ValueError, match="positive"):
            sweep_locations(instance, k=5, location_counts=(0,))
        with pytest.raises(ValueError, match="non-empty"):
            sweep_locations(instance, k=5, location_counts=())


class TestCompetitionCost:
    def test_removing_a_rival_never_hurts(self, instance):
        for rival in range(instance.n_competing):
            assert competition_cost(instance, k=5, competing_index=rival) >= -1e-9

    def test_unknown_rival_rejected(self, instance):
        with pytest.raises(IndexError, match="out of range"):
            competition_cost(instance, k=5, competing_index=99)

    def test_copy_without_a_rival_slices_csc_and_shares_candidates(
        self, instance
    ):
        """The what-if copy drops one CSC column and shares the candidate
        matrix; it never materializes the dense ``mu`` views."""
        import numpy as np

        from repro.harness.whatif import _without_competing

        copy = _without_competing(instance, 2)
        keep = [c for c in range(instance.n_competing) if c != 2]
        assert copy.interest.candidate_sparse is instance.interest.candidate_sparse
        np.testing.assert_array_equal(
            copy.interest.competing, instance.interest.competing[:, keep]
        )
        assert [rival.interval for rival in copy.competing] == [
            instance.competing[c].interval for c in keep
        ]

    def test_competition_cost_never_densifies(self, instance, monkeypatch):
        def densify(self):
            raise AssertionError("dense mu view materialized")

        from repro.core.interest import InterestMatrix

        monkeypatch.setattr(InterestMatrix, "candidate", property(densify))
        monkeypatch.setattr(InterestMatrix, "competing", property(densify))
        assert competition_cost(instance, k=5, competing_index=0) >= -1e-9

    def test_copy_without_a_rival_adopts_the_slice(
        self, instance, interest_copies
    ):
        """The sliced competing matrix becomes the copy's storage as it
        is: the constructor's copying branch never runs."""
        from repro.harness.whatif import _without_competing

        _without_competing(instance, 2)
        assert interest_copies == []

    def test_popular_rival_costs_more_than_ignored_one(self):
        """A rival everyone loves must cost at least as much as one nobody knows."""
        import numpy as np

        from repro.core import (
            ActivityModel,
            CandidateEvent,
            CompetingEvent,
            InterestMatrix,
            Organizer,
            SESInstance,
            TimeInterval,
            User,
        )

        n_users = 10
        users = [User(index=i) for i in range(n_users)]
        intervals = [TimeInterval(index=0)]
        events = [
            CandidateEvent(index=0, location=0, required_resources=1.0),
            CandidateEvent(index=1, location=1, required_resources=1.0),
        ]
        competing = [
            CompetingEvent(index=0, interval=0, name="superstar-rival"),
            CompetingEvent(index=1, interval=0, name="unknown-rival"),
        ]
        rng = np.random.default_rng(0)
        interest = InterestMatrix.from_arrays(
            rng.uniform(0.3, 0.9, (n_users, 2)),
            np.column_stack([np.full(n_users, 0.95), np.zeros(n_users)]),
        )
        instance = SESInstance(
            users, intervals, events, competing, interest,
            ActivityModel.constant(n_users, 1, 0.8), Organizer(resources=10.0),
        )
        star_cost = competition_cost(instance, k=2, competing_index=0)
        unknown_cost = competition_cost(instance, k=2, competing_index=1)
        assert star_cost > unknown_cost
        assert unknown_cost == pytest.approx(0.0, abs=1e-9)
