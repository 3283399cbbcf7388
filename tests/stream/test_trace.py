"""Tests of the streaming trace model and its JSONL serialization."""

import numpy as np
import pytest

from repro.stream.trace import (
    AnnounceRival,
    ArriveCandidate,
    CancelEvent,
    ChangeOp,
    DriftInterest,
    RaiseBudget,
    Trace,
    TraceError,
    column_from_entries,
    entries_from_column,
)

_OPS = (
    ArriveCandidate(
        time=0.5,
        location=3,
        required_resources=2.0,
        interest=((0, 0.4), (2, 1.0)),
        name="late-show",
    ),
    CancelEvent(time=1.0, event=1),
    AnnounceRival(time=1.5, interval=2, interest=((1, 0.9),)),
    DriftInterest(time=2.0, event=0, interest=((0, 0.2), (3, 0.7))),
    RaiseBudget(time=3.0, new_k=5),
)


def make_trace(**overrides):
    kwargs = dict(ops=_OPS, n_users=4, initial_k=3, seed=7, label="unit")
    kwargs.update(overrides)
    return Trace(**kwargs)


class TestOps:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CancelEvent(time=-1.0, event=0)

    def test_duplicate_interest_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ArriveCandidate(time=0.0, interest=((1, 0.5), (1, 0.6)))

    def test_zero_interest_value_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            AnnounceRival(time=0.0, interval=0, interest=((1, 0.0),))

    @pytest.mark.parametrize(
        "interest", [((-1, 0.5),), ((1, 0.5), (1, 0.6)), ((1, 1.5),)]
    )
    def test_entry_failures_are_typed(self, interest):
        with pytest.raises(TraceError):
            ArriveCandidate(time=0.0, interest=interest)
        assert issubclass(TraceError, ValueError)

    def test_entry_past_the_users_is_typed(self):
        with pytest.raises(TraceError, match="out of range for 3 users"):
            column_from_entries(((3, 0.5),), 3)

    def test_entries_sorted_by_user(self):
        op = DriftInterest(time=0.0, event=0, interest=((5, 0.3), (1, 0.8)))
        assert op.interest == ((1, 0.8), (5, 0.3))

    def test_labels_identify_targets(self):
        labels = [op.label() for op in _OPS]
        assert labels == ["arrive", "cancel:1", "rival:t2", "drift:0", "budget:5"]

    def test_entries_from_column_drops_zeros(self):
        entries = entries_from_column(np.array([0.0, 0.5, 0.0, 1.0]))
        assert entries == ((1, 0.5), (3, 1.0))

    def test_dict_roundtrip_every_kind(self):
        for op in _OPS:
            assert ChangeOp.from_dict(op.to_dict()) == op

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown change-op kind"):
            ChangeOp.from_dict({"op": "merge", "time": 0.0})


class TestTrace:
    def test_validates_monotone_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            make_trace(
                ops=(CancelEvent(time=2.0, event=0), CancelEvent(time=1.0, event=1))
            )

    def test_op_counts(self):
        assert make_trace().op_counts() == {
            "arrive": 1,
            "budget": 1,
            "cancel": 1,
            "drift": 1,
            "rival": 1,
        }

    def test_describe_mentions_shape(self):
        text = make_trace().describe()
        assert "5 ops" in text and "4 users" in text and "k0=3" in text

    def test_len_and_iteration(self):
        trace = make_trace()
        assert len(trace) == 5
        assert tuple(trace) == _OPS


class TestJsonl:
    def test_roundtrip(self):
        trace = make_trace()
        assert Trace.from_jsonl(trace.to_jsonl()) == trace

    def test_serialization_is_deterministic(self):
        text = make_trace().to_jsonl()
        rebuilt = Trace.from_jsonl(text)
        assert rebuilt.to_jsonl() == text

    def test_file_roundtrip(self, tmp_path):
        trace = make_trace()
        path = trace.save(tmp_path / "trace.jsonl")
        assert Trace.load(path) == trace

    def test_header_is_first_line(self):
        first = make_trace().to_jsonl().splitlines()[0]
        assert '"format":"ses-trace/1"' in first

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            Trace.from_jsonl("")

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported trace format"):
            Trace.from_jsonl('{"format":"other/9","n_users":1,"initial_k":0}')

    def test_fractional_budgets_rejected_not_truncated(self):
        header, *ops = make_trace().to_jsonl().splitlines()
        with pytest.raises(TypeError, match="initial_k must be an integer"):
            Trace.from_jsonl(
                "\n".join([header.replace('"initial_k":3', '"initial_k":2.5'), *ops])
            )
        with pytest.raises(TypeError, match="new_k must be an integer"):
            Trace.from_jsonl(
                "\n".join([header, *ops]).replace('"new_k":5', '"new_k":3.5')
            )


class TestBudgets:
    @pytest.mark.parametrize("bad", [3.5, True, "4", None], ids=repr)
    def test_non_integer_budgets_rejected(self, bad):
        with pytest.raises(TypeError, match="new_k must be an integer"):
            RaiseBudget(time=0.0, new_k=bad)
        with pytest.raises(TypeError, match="initial_k must be an integer"):
            make_trace(initial_k=bad)

    def test_out_of_range_budgets_keep_their_value_errors(self):
        with pytest.raises(ValueError, match="new_k must be positive"):
            RaiseBudget(time=0.0, new_k=0)
        with pytest.raises(ValueError, match="initial_k must be non-negative"):
            make_trace(initial_k=-1)

    def test_numpy_budgets_stored_as_int(self):
        trace = make_trace(initial_k=np.int64(3))
        assert type(trace.initial_k) is int
        assert type(RaiseBudget(time=0.0, new_k=np.int64(5)).new_k) is int
        assert trace == make_trace()


class TestReplayabilityValidation:
    """Regression: traces referencing dead/unknown events, duplicate live
    arrivals or shrinking budgets used to be accepted silently and only
    corrupted the replay; they now raise TraceError at construction,
    naming the offending op index."""

    def test_cancel_of_unknown_event_rejected(self):
        with pytest.raises(TraceError, match=r"op #0.*cancel:7"):
            make_trace(ops=(CancelEvent(time=0.0, event=7),), n_events=3)

    def test_cancel_index_space_tracks_prior_cancellations(self):
        # 3 live events; after one cancel only indices 0..1 remain
        with pytest.raises(TraceError, match=r"op #1.*cancel:2"):
            make_trace(
                ops=(
                    CancelEvent(time=0.0, event=0),
                    CancelEvent(time=1.0, event=2),
                ),
                n_events=3,
            )

    def test_drift_of_unknown_event_rejected(self):
        with pytest.raises(TraceError, match=r"op #0.*drift:3"):
            make_trace(
                ops=(DriftInterest(time=0.0, event=3, interest=((0, 0.5),)),),
                n_events=3,
            )

    def test_duplicate_live_arrival_name_rejected(self):
        arrival = ArriveCandidate(time=0.0, name="encore", interest=((0, 0.5),))
        again = ArriveCandidate(time=1.0, name="encore", interest=((1, 0.5),))
        with pytest.raises(TraceError, match=r"op #1.*duplicate.*encore"):
            make_trace(ops=(arrival, again), n_events=2)

    def test_rearrival_after_cancellation_is_fine(self):
        arrival = ArriveCandidate(time=0.0, name="encore", interest=((0, 0.5),))
        # the named arrival lands at live index 2; cancelling it frees the name
        cancel = CancelEvent(time=1.0, event=2)
        again = ArriveCandidate(time=2.0, name="encore", interest=((1, 0.5),))
        trace = make_trace(ops=(arrival, cancel, again), n_events=2)
        assert len(trace) == 3

    def test_rival_interval_out_of_range_rejected(self):
        with pytest.raises(TraceError, match=r"op #0.*rival:t9"):
            make_trace(
                ops=(AnnounceRival(time=0.0, interval=9, interest=((0, 0.5),)),),
                n_events=2,
                n_intervals=4,
            )

    def test_budget_shrink_rejected(self):
        with pytest.raises(TraceError, match=r"op #0.*shrink"):
            make_trace(ops=(RaiseBudget(time=0.0, new_k=1),), n_events=2)

    def test_validation_needs_known_shape(self):
        # without n_events the live index space is unknown: accepted as before
        trace = make_trace(ops=(CancelEvent(time=0.0, event=7),))
        assert len(trace) == 1

    def test_append_revalidates(self):
        trace = make_trace(ops=(), n_events=3)
        grown = trace.append(CancelEvent(time=1.0, event=0))
        assert len(grown) == 1 and len(trace) == 0
        with pytest.raises(TraceError, match=r"op #1"):
            grown.append(CancelEvent(time=2.0, event=2))
        with pytest.raises(ValueError, match="non-decreasing"):
            grown.append(CancelEvent(time=0.5, event=0))

    def test_generated_traces_always_validate(self):
        from repro.workloads.config import ExperimentConfig
        from repro.workloads.traces import TraceConfig, TraceGenerator

        config = ExperimentConfig(k=3, n_users=20, n_events=5, n_intervals=4)
        trace = TraceGenerator(
            config, TraceConfig(n_ops=40), root_seed=5
        ).generate()
        # round-tripping re-runs validation on the full shape metadata
        assert Trace.from_jsonl(trace.to_jsonl()) == trace
