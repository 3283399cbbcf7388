"""Tests of Trace.compact(): rewrite semantics and replay equivalence."""

import pytest

from repro.core.errors import TraceError
from repro.core.engine import EngineSpec
from repro.stream import POLICY_NAMES, StreamDriver, Trace
from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    DriftInterest,
    RaiseBudget,
)
from repro.workloads.config import ExperimentConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import TraceConfig, TraceGenerator

from tests.conftest import INTEREST_INPUTS, with_interest_input


def manual_trace(ops, n_events=4, n_users=10, k=2):
    return Trace(
        ops=tuple(ops),
        n_users=n_users,
        initial_k=k,
        n_events=n_events,
        n_intervals=3,
    )


class TestRewrites:
    def test_cancelled_arrival_pair_is_dropped(self):
        trace = manual_trace(
            [
                ArriveCandidate(time=0.0, location=9, interest=((0, 0.5),)),
                DriftInterest(time=1.0, event=4, interest=((1, 0.4),)),
                CancelEvent(time=2.0, event=4),
            ]
        )
        compact = trace.compact()
        assert len(compact) == 0

    def test_cancel_of_preexisting_event_is_kept(self):
        trace = manual_trace([CancelEvent(time=0.0, event=1)])
        compact = trace.compact()
        assert [op.kind for op in compact] == ["cancel"]

    def test_indices_renumber_around_dropped_arrivals(self):
        """An op referencing a later live index shifts left once the
        dropped arrival below it vanishes from the live pool."""
        trace = manual_trace(
            [
                # arrival -> live index 4 (later cancelled)
                ArriveCandidate(time=0.0, location=9, interest=((0, 0.5),)),
                # arrival -> live index 5 (survives)
                ArriveCandidate(time=1.0, location=8, interest=((1, 0.6),)),
                DriftInterest(time=2.0, event=5, interest=((2, 0.3),)),
                CancelEvent(time=3.0, event=4),
            ]
        )
        compact = trace.compact()
        assert [op.kind for op in compact] == ["arrive", "drift"]
        # the surviving arrival is the compacted pool's index 4
        assert compact.ops[1].event == 4

    def test_consecutive_drifts_coalesce_to_last(self):
        trace = manual_trace(
            [
                DriftInterest(time=0.0, event=0, interest=((0, 0.2),)),
                DriftInterest(time=1.0, event=0, interest=((1, 0.9),)),
                DriftInterest(time=2.0, event=1, interest=((2, 0.5),)),
            ]
        )
        compact = trace.compact()
        assert len(compact) == 2
        assert compact.ops[0].interest == ((1, 0.9),)
        assert compact.ops[1].event == 1

    def test_interleaved_drifts_are_not_coalesced(self):
        """Only *adjacent* drifts merge: an intervening op on another
        entity pins the earlier drift (it shaped maintenance decisions)."""
        trace = manual_trace(
            [
                DriftInterest(time=0.0, event=0, interest=((0, 0.2),)),
                AnnounceRival(time=1.0, interval=1, interest=((3, 0.7),)),
                DriftInterest(time=2.0, event=0, interest=((1, 0.9),)),
            ]
        )
        assert len(trace.compact()) == 3

    def test_consecutive_budget_raises_keep_final(self):
        trace = manual_trace(
            [
                RaiseBudget(time=0.0, new_k=3),
                RaiseBudget(time=1.0, new_k=5),
            ]
        )
        compact = trace.compact()
        assert [op.new_k for op in compact] == [5]

    def test_compact_requires_known_n_events(self):
        trace = Trace(ops=(), n_users=10, initial_k=2)
        with pytest.raises(TraceError, match="n_events"):
            trace.compact()

    def test_compacted_trace_revalidates(self):
        """The rewrite produces a replayable trace (indices in range,
        budgets monotone) — guaranteed by Trace.__post_init__."""
        trace = manual_trace(
            [
                ArriveCandidate(time=0.0, location=9, interest=((0, 0.5),)),
                CancelEvent(time=1.0, event=2),
                CancelEvent(time=2.0, event=3),  # the arrival, renumbered
            ]
        )
        compact = trace.compact()  # would raise on a broken rewrite
        assert [op.kind for op in compact] == ["cancel"]


class TestReplayEquivalence:
    """Replaying original vs compacted traces lands on identical end
    states.

    For ``periodic-rebuild`` this is structural: compaction preserves
    the final instance state exactly, and the policy's end state IS a
    batch solve on it.  For the history-dependent policies
    (``incremental``, ``hybrid``) the equivalence is pinned on seeded
    streams — replay is deterministic, so these lock the compactor's
    semantics the way the golden traces lock the scheduler's.
    """

    SEEDS = (2, 3, 5, 6)

    @staticmethod
    def build(form, seed):
        config = ExperimentConfig(k=4, n_users=40, n_events=8, n_intervals=5)
        trace = TraceGenerator(
            config, TraceConfig(n_ops=18), root_seed=seed
        ).generate()
        instance = with_interest_input(
            WorkloadGenerator(root_seed=seed).build(config), form
        )
        spec = EngineSpec()
        return instance, trace, spec

    @pytest.mark.parametrize("form", INTEREST_INPUTS)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_final_states_match(self, form, policy, seed):
        instance, trace, spec = self.build(form, seed)
        compact = trace.compact()
        assert len(compact) < len(trace)  # seeds chosen to actually compact
        original = StreamDriver(instance, policy=policy, engine=spec).run(trace)
        rewritten = StreamDriver(instance, policy=policy, engine=spec).run(
            compact
        )
        assert rewritten.final_schedule == original.final_schedule
        assert rewritten.final_utility == pytest.approx(
            original.final_utility, abs=1e-9
        )
        assert rewritten.final_k == original.final_k
