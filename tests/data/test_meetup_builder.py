"""Tests of the EBSN -> SES instance builder (Section IV.A pipeline)."""

import numpy as np
import pytest

from repro.data.meetup import InstanceBuildParams, build_instance
from repro.ebsn.generator import EBSNConfig, MeetupStyleGenerator
from repro.ebsn.jaccard import jaccard, jaccard_matrix


@pytest.fixture(scope="module")
def snapshot():
    config = EBSNConfig(n_users=150, n_groups=15, n_events=300)
    return MeetupStyleGenerator(config).generate(seed=5)


@pytest.fixture
def params():
    return InstanceBuildParams(
        n_candidate_events=20,
        n_intervals=15,
        mean_competing_per_interval=4.0,
        n_locations=5,
        theta=20.0,
    )


class TestParamsValidation:
    def test_defaults_follow_paper(self):
        params = InstanceBuildParams(n_candidate_events=10, n_intervals=5)
        assert params.mean_competing_per_interval == 8.1
        assert params.n_locations == 25
        assert params.theta == 20.0
        assert params.xi_range == (1.0, 20.0 / 3.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            InstanceBuildParams(n_candidate_events=0, n_intervals=5)
        with pytest.raises(ValueError):
            InstanceBuildParams(n_candidate_events=5, n_intervals=0)

    def test_rejects_xi_exceeding_theta(self):
        with pytest.raises(ValueError, match="exceeds theta"):
            InstanceBuildParams(
                n_candidate_events=5, n_intervals=5, theta=3.0,
                xi_range=(1.0, 5.0),
            )

    def test_interest_backend_option_is_gone(self):
        with pytest.raises(TypeError, match="interest_backend"):
            InstanceBuildParams(
                n_candidate_events=5, n_intervals=5, interest_backend="sparse"
            )

    def test_rejects_unknown_sigma_source(self):
        with pytest.raises(ValueError, match="sigma_source"):
            InstanceBuildParams(
                n_candidate_events=5, n_intervals=5, sigma_source="oracle"
            )


class TestBuiltInstance:
    def test_shapes(self, snapshot, params):
        instance = build_instance(snapshot, params, seed=1)
        assert instance.n_users == snapshot.network.n_users
        assert instance.n_events == 20
        assert instance.n_intervals == 15
        assert instance.theta == 20.0

    def test_locations_respect_budget(self, snapshot, params):
        instance = build_instance(snapshot, params, seed=2)
        assert all(0 <= e.location < params.n_locations for e in instance.events)

    def test_xi_within_range(self, snapshot, params):
        instance = build_instance(snapshot, params, seed=3)
        low, high = params.xi_range
        for event in instance.events:
            assert low <= event.required_resources <= high

    def test_competing_density_near_mean(self, snapshot):
        params = InstanceBuildParams(
            n_candidate_events=10, n_intervals=30,
            mean_competing_per_interval=4.0, n_locations=5,
        )
        instance = build_instance(snapshot, params, seed=4)
        observed = instance.n_competing / params.n_intervals
        assert observed == pytest.approx(4.0, abs=1.5)

    def test_interest_is_jaccard_of_tags(self, snapshot, params):
        """mu must equal the paper's Jaccard construction exactly."""
        instance = build_instance(snapshot, params, seed=5)
        for u in range(0, instance.n_users, 37):
            user = instance.users[u]
            for e in range(0, instance.n_events, 7):
                event = instance.events[e]
                assert instance.interest.mu_event(u, e) == pytest.approx(
                    jaccard(user.tags, event.tags), abs=1e-12
                )

    def test_storage_is_csc_with_dense_jaccard_values(self, snapshot, params):
        """The build mines ``mu`` straight into CSC storage; the values are
        exactly those of the dense Jaccard builder."""
        instance = build_instance(snapshot, params, seed=5)
        user_tags = [user.tags for user in instance.users]
        assert instance.interest.candidate_sparse.format == "csc"
        assert np.array_equal(
            instance.interest.candidate,
            jaccard_matrix(user_tags, [event.tags for event in instance.events]),
        )
        assert np.array_equal(
            instance.interest.competing,
            jaccard_matrix(user_tags, [rival.tags for rival in instance.competing]),
        )

    def test_candidates_and_rivals_disjoint(self, snapshot, params):
        """A pool event may serve as candidate or rival, never both."""
        instance = build_instance(snapshot, params, seed=6)
        candidate_names = {e.name for e in instance.events}
        rival_names = {c.name for c in instance.competing}
        assert not candidate_names & rival_names

    def test_uniform_sigma_source(self, snapshot, params):
        instance = build_instance(snapshot, params, seed=7)
        sigma = instance.activity.matrix
        assert 0.0 <= sigma.min() and sigma.max() <= 1.0
        assert sigma.std() > 0.1  # genuinely random, not constant

    def test_checkins_sigma_source(self, snapshot):
        params = InstanceBuildParams(
            n_candidate_events=10, n_intervals=30, sigma_source="checkins",
            mean_competing_per_interval=2.0,
        )
        instance = build_instance(snapshot, params, seed=8)
        weekly = snapshot.checkins.estimate_activity().matrix
        # interval t reuses weekly slot t % n_slots
        np.testing.assert_allclose(
            instance.activity.matrix[:, 0], weekly[:, 0]
        )
        np.testing.assert_allclose(
            instance.activity.matrix[:, weekly.shape[1]], weekly[:, 0]
        )

    def test_pool_exhaustion_rejected(self, snapshot):
        params = InstanceBuildParams(
            n_candidate_events=10_000, n_intervals=5
        )
        with pytest.raises(ValueError, match="only"):
            build_instance(snapshot, params, seed=9)

    def test_reproducible_given_seed(self, snapshot, params):
        a = build_instance(snapshot, params, seed=10)
        b = build_instance(snapshot, params, seed=10)
        assert [e.name for e in a.events] == [e.name for e in b.events]
        np.testing.assert_array_equal(
            a.interest.candidate, b.interest.candidate
        )

    def test_solvable_end_to_end(self, snapshot, params):
        from repro.algorithms.greedy import GreedyScheduler

        instance = build_instance(snapshot, params, seed=11)
        result = GreedyScheduler().solve(instance, 5)
        assert result.achieved_k == 5
        assert result.utility > 0
