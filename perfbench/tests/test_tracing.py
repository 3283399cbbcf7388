"""Span bookkeeping and self-time arithmetic."""

from __future__ import annotations

import threading

import pytest

from perfbench.tracing import Span, Tracer, covered, layer_table, self_times


def span(id_, layer, start, end, parent=None, op=None):
    return Span(id=id_, layer=layer, call=layer, start=start, end=end, parent=parent, op=op)


def test_nested_self_times_subtract_direct_children_only():
    spans = [
        span(1, "op", 0.0, 10.0, op=0),
        span(2, "algorithms", 1.0, 9.0, parent=1, op=0),
        span(3, "engine", 2.0, 5.0, parent=2, op=0),
        span(4, "engine", 3.0, 4.0, parent=3, op=0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 2.0, 2: 5.0, 3: 2.0, 4: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_on_two_threads_are_subtracted_once():
    spans = [
        span(1, "shard", 0.0, 10.0, op=0),
        span(2, "engine", 1.0, 6.0, parent=1, op=0),
        span(3, "engine", 4.0, 8.0, parent=1, op=0),
    ]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_children_are_clipped_to_their_parent():
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(1.0, 3.0), (2.0, 4.0), (2.5, 2.6)], 0.0, 10.0) == pytest.approx(3.0)


def test_layer_table_shows_unattributed_op_time():
    spans = [
        span(1, "op", 0.0, 4.0, op=0),
        span(2, "engine", 0.5, 3.0, parent=1, op=0),
        span(3, "op", 5.0, 6.0, op=1),
        span(4, "workloads", 7.0, 9.0),  # outside any op
    ]
    rows, op_seconds = layer_table(spans)
    assert op_seconds == pytest.approx(5.0)
    assert rows == [("engine", pytest.approx(2.5), 1), ("unattributed", pytest.approx(2.5), 2)]


def test_tracer_links_a_worker_thread_to_the_span_that_handed_it_work():
    tracer = Tracer()
    root = tracer.open("op", "op", op=7)
    with tracer.span("shard", "map") as parent:
        def work():
            with tracer.linked(parent), tracer.span("engine", "rows"):
                pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    tracer.close(root)
    by_layer = {s.layer: s for s in tracer.spans}
    assert by_layer["engine"].parent == by_layer["shard"].id
    assert by_layer["engine"].op == 7
    assert by_layer["engine"].thread != by_layer["shard"].thread
    assert by_layer["shard"].parent == root.id


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.open("op", "op", op=0)
    tracer.open("engine", "q")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
