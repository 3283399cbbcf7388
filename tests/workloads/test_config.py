"""Tests of the experiment configuration (paper Section IV defaults)."""

import pytest

from repro.workloads.config import (
    ExperimentConfig,
    MEETUP_USERS,
    PAPER_DEFAULT_K,
    PAPER_MAX_K,
)


class TestPaperDefaults:
    def test_headline_constants(self):
        assert PAPER_DEFAULT_K == 100
        assert PAPER_MAX_K == 500
        assert MEETUP_USERS == 42_444

    def test_default_k_is_100(self):
        assert ExperimentConfig().k == 100

    def test_default_intervals_is_three_halves_k(self):
        assert ExperimentConfig(k=100).intervals == 150
        assert ExperimentConfig(k=500).intervals == 750

    def test_default_events_is_two_k(self):
        assert ExperimentConfig(k=100).events == 200
        assert ExperimentConfig(k=250).events == 500

    def test_competing_mean_is_meetup_measured(self):
        assert ExperimentConfig().mean_competing == 8.1

    def test_locations_and_resources(self):
        config = ExperimentConfig()
        assert config.n_locations == 25
        assert config.theta == 20.0
        assert config.xi_range == (1.0, pytest.approx(20.0 / 3.0))


class TestOverrides:
    def test_explicit_intervals_win(self):
        assert ExperimentConfig(k=100, n_intervals=37).intervals == 37

    def test_explicit_events_win(self):
        assert ExperimentConfig(k=100, n_events=123).events == 123

    def test_with_k_preserves_derived_defaults(self):
        config = ExperimentConfig(k=100).with_k(200)
        assert config.intervals == 300
        assert config.events == 400

    def test_with_intervals(self):
        config = ExperimentConfig(k=100).with_intervals(20)
        assert config.intervals == 20
        assert config.k == 100

    def test_at_meetup_scale(self):
        assert ExperimentConfig().at_meetup_scale().n_users == MEETUP_USERS


class TestDerivedSizes:
    def test_expected_competing_total(self):
        config = ExperimentConfig(k=100)
        assert config.expected_competing_total == pytest.approx(150 * 8.1)

    def test_required_pool_events_covers_worst_case(self):
        config = ExperimentConfig(k=100)
        worst = config.events + config.intervals * 2 * config.mean_competing
        assert config.required_pool_events >= worst

    def test_label_mentions_sizes(self):
        label = ExperimentConfig(k=100).label()
        assert "k=100" in label
        assert "|T|=150" in label


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            ExperimentConfig(k=0)

    def test_events_below_k_rejected(self):
        with pytest.raises(ValueError, match="at least k"):
            ExperimentConfig(k=100, n_events=50)

    def test_bad_intervals(self):
        with pytest.raises(ValueError, match="n_intervals"):
            ExperimentConfig(n_intervals=0)

    def test_bad_users(self):
        with pytest.raises(ValueError, match="n_users"):
            ExperimentConfig(n_users=0)

    def test_negative_competing_mean(self):
        with pytest.raises(ValueError, match="mean_competing"):
            ExperimentConfig(mean_competing=-1.0)


class TestInterestBackend:
    def test_default_is_sparse(self):
        from repro.workloads.config import ExperimentConfig

        assert ExperimentConfig().interest_backend == "sparse"

    def test_with_backend_copies(self):
        from repro.workloads.config import ExperimentConfig

        config = ExperimentConfig().with_backend("dense")
        assert config.interest_backend == "dense"
        assert ExperimentConfig().interest_backend == "sparse"

    def test_invalid_backend_rejected(self):
        import pytest

        from repro.workloads.config import ExperimentConfig

        with pytest.raises(ValueError, match="interest_backend"):
            ExperimentConfig(interest_backend="hologram")
