"""Tests of the stream replay driver: determinism, parity, observability."""

import json

import pytest

from repro.algorithms.registry import solver_registry
from repro.core.engine import EngineSpec
from repro.core.objective import total_utility
from repro.stream import POLICY_NAMES, StreamDriver, Trace, make_policy
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

from tests.conftest import INTEREST_INPUTS, with_interest_input

CONFIG = ExperimentConfig(k=4, n_users=40, n_events=8, n_intervals=5)


def build_case(form: str = "array", n_ops: int = 14, seed: int = 9):
    trace = TraceGenerator(
        CONFIG, TraceConfig(n_ops=n_ops), root_seed=seed
    ).generate()
    instance = WorkloadGenerator(root_seed=seed).build(CONFIG)
    return with_interest_input(instance, form), trace


class TestValidation:
    def test_user_count_mismatch_rejected(self):
        instance, _ = build_case()
        trace = Trace(ops=(), n_users=instance.n_users + 1, initial_k=2)
        with pytest.raises(ValueError, match="users"):
            StreamDriver(instance).run(trace)

    def test_unknown_policy_rejected(self):
        instance, _ = build_case()
        with pytest.raises(ValueError, match="unknown maintenance policy"):
            StreamDriver(instance, policy="nope")

    def test_policy_params_need_a_name(self):
        instance, _ = build_case()
        with pytest.raises(TypeError, match="policy name"):
            StreamDriver(
                instance, policy=make_policy("incremental"), rebuild_every=2
            )

    def test_bad_oracle_cadence_rejected(self):
        instance, _ = build_case()
        with pytest.raises(ValueError, match="oracle_every"):
            StreamDriver(instance, oracle_every=0)

    def test_k_defaults_to_trace_initial_k(self):
        instance, trace = build_case()
        result = StreamDriver(instance, policy="incremental").run(trace)
        # budget ops may have grown k beyond the trace's initial value
        assert result.final_k >= trace.initial_k

    def test_event_count_mismatch_rejected(self):
        instance, _ = build_case()
        trace = Trace(
            ops=(), n_users=instance.n_users, initial_k=2,
            n_events=instance.n_events + 3,
        )
        with pytest.raises(ValueError, match="candidate events"):
            StreamDriver(instance).run(trace)

    def test_interval_count_mismatch_rejected(self):
        instance, _ = build_case()
        trace = Trace(
            ops=(), n_users=instance.n_users, initial_k=2,
            n_intervals=instance.n_intervals + 1,
        )
        with pytest.raises(ValueError, match="intervals"):
            StreamDriver(instance).run(trace)

    def test_generated_traces_record_their_shape(self):
        instance, trace = build_case()
        assert trace.n_events == instance.n_events
        assert trace.n_intervals == instance.n_intervals

    def test_name_constructed_driver_replays_repeatedly(self):
        instance, trace = build_case()
        driver = StreamDriver(instance, policy="incremental")
        first = driver.run(trace)
        second = driver.run(trace)  # fresh policy per run
        assert first.utilities == second.utilities
        assert first.final_schedule == second.final_schedule

    def test_object_constructed_driver_is_single_use(self):
        instance, trace = build_case()
        driver = StreamDriver(instance, policy=make_policy("incremental"))
        driver.run(trace)
        with pytest.raises(RuntimeError, match="single-use"):
            driver.run(trace)


class TestReplayDeterminism:
    """Same trace + policy => identical op log, trajectory, final schedule."""

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_replay_is_deterministic(self, policy, form):
        instance, trace = build_case(form)
        spec = EngineSpec()
        results = [
            StreamDriver(instance, policy=policy, engine=spec).run(trace)
            for _ in range(2)
        ]
        first, second = results
        assert first.op_log == second.op_log
        assert first.utilities == second.utilities
        assert first.final_schedule == second.final_schedule
        assert first.final_utility == second.final_utility

    def test_op_log_matches_trace_labels(self):
        instance, trace = build_case()
        result = StreamDriver(instance).run(trace)
        assert result.op_log == tuple(op.label() for op in trace)


class TestPeriodicParity:
    """The acceptance property: periodic-rebuild's final state IS a
    one-shot registry solve on the final instance state."""

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    @pytest.mark.parametrize("rebuild_every", [1, 3])
    def test_final_state_matches_one_shot_solve(self, form, rebuild_every):
        instance, trace = build_case(form)
        spec = EngineSpec()
        driver = StreamDriver(
            instance,
            policy="periodic-rebuild",
            engine=spec,
            rebuild_every=rebuild_every,
        )
        result = driver.run(trace)

        live = driver.policy.scheduler
        oracle = solver_registry.create("grd", engine=spec).solve(
            live.instance, live.k
        )
        assert result.final_schedule == oracle.schedule.as_mapping()
        assert result.final_utility == pytest.approx(oracle.utility, abs=1e-9)


class TestObservations:
    def test_every_op_is_recorded(self):
        instance, trace = build_case()
        result = StreamDriver(instance).run(trace)
        assert len(result.records) == len(trace)
        assert all(record.latency_seconds >= 0 for record in result.records)

    def test_utility_trajectory_matches_live_state(self):
        """The recorded trajectory ends exactly at the live schedule's
        true Eq. 3 utility."""
        instance, trace = build_case()
        driver = StreamDriver(instance, policy="incremental")
        result = driver.run(trace)
        live = driver.policy.scheduler
        truth = total_utility(live.instance, live.schedule)
        assert result.utilities[-1] == pytest.approx(truth, abs=1e-9)
        assert result.final_utility == pytest.approx(truth, abs=1e-9)

    def test_oracle_regret_sampling(self):
        instance, trace = build_case()
        result = StreamDriver(
            instance, policy="periodic-rebuild", oracle_every=2
        ).run(trace)
        assert len(result.regrets) == len(trace) // 2
        # the state was just re-solved by the same solver: regret ~ 0
        for regret in result.regrets:
            assert regret == pytest.approx(0.0, abs=1e-9)

    def test_latency_statistics(self):
        instance, trace = build_case()
        result = StreamDriver(instance).run(trace)
        assert result.max_latency() >= result.percentile_latency(0.95)
        assert result.percentile_latency(0.95) >= result.percentile_latency(0.0)
        assert result.mean_latency() > 0
        with pytest.raises(ValueError, match="quantile"):
            result.percentile_latency(1.5)

    def test_as_dict_is_json_ready(self):
        instance, trace = build_case()
        result = StreamDriver(instance).run(trace)
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["policy"] == "incremental"
        assert payload["ops"] == len(trace)
        assert len(payload["utilities"]) == len(trace)

    def test_summary_mentions_policy_and_latency(self):
        instance, trace = build_case()
        summary = StreamDriver(instance).run(trace).summary()
        assert "incremental" in summary and "mean-op" in summary


class TestPolicyQuality:
    def test_hybrid_never_worse_than_pure_incremental_at_end(self):
        """A rebuild reclaims global structure: on this seeded stream the
        hybrid end-state must be at least as good as never rebuilding."""
        instance, trace = build_case(n_ops=20)
        incremental = StreamDriver(instance, policy="incremental").run(trace)
        hybrid = StreamDriver(
            instance, policy="hybrid", drift_threshold=1.0
        ).run(trace)
        assert hybrid.final_utility >= incremental.final_utility - 1e-9


class TestStructuralFastPath:
    """The O(delta) live path must never fall back to instance rebuilds."""

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    def test_incremental_replay_never_freezes(self, form):
        instance, trace = build_case(form)
        result = StreamDriver(
            instance, policy="incremental", engine=EngineSpec()
        ).run(trace)
        assert result.freezes == 0

    @pytest.mark.parametrize("solver", ["grd", "grd-heap"])
    def test_periodic_rebuild_never_freezes(self, solver):
        """Warm re-solves run straight over the live view through the
        base plane — no O(instance) snapshot is ever materialized."""
        instance, trace = build_case()
        result = StreamDriver(
            instance, policy="periodic-rebuild", rebuild_every=3, solver=solver
        ).run(trace)
        assert result.rebuilds > 0
        assert result.freezes == 0
        assert result.base_plane_stats is not None
        # one initial cold fill, never one per rebuild
        assert result.base_plane_stats["fills"] == 1

    def test_warm_rebuilds_score_strictly_less_than_cold_fills(self):
        """Each warm re-solve after the first must re-score fewer cells
        than the cold fill it replaced (the ScorePlane acceptance bar)."""
        instance, trace = build_case()
        result = StreamDriver(
            instance, policy="periodic-rebuild", rebuild_every=1
        ).run(trace)
        stats = result.base_plane_stats
        assert stats["fills"] == 1
        warm_solves = result.rebuilds - stats["fills"]
        assert warm_solves > 0
        cold_cells_per_solve = stats["cells_filled"] // stats["fills"]
        assert stats["cells_refreshed"] < warm_solves * cold_cells_per_solve

    def test_oracle_sampling_runs_warm_without_freezes(self):
        instance, trace = build_case()
        result = StreamDriver(
            instance, policy="incremental", oracle_every=4
        ).run(trace)
        assert len(result.regrets) == len(trace) // 4
        assert result.freezes == 0
        assert result.base_plane_stats is not None

    def test_freezes_serialized_in_as_dict(self):
        instance, trace = build_case()
        payload = StreamDriver(instance).run(trace).as_dict()
        assert payload["freezes"] == 0
