"""Span tracing: nesting, the span tree, timing, and the null tracer."""

from __future__ import annotations

import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ListEventSink, Recorder
from repro.obs.spans import (
    NullSpanTracer,
    SpanRecord,
    SpanTracer,
    SpanTree,
    span_event,
)
from repro.trace.reader import load_events


class TestSpanTracer:
    def test_nesting_depth_and_parent_links(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("mid"):
                pass
        by_name = {}
        for record in tracer.records:
            by_name.setdefault(record.name, []).append(record)
        (outer,) = by_name["outer"]
        mids = by_name["mid"]
        (inner,) = by_name["inner"]
        assert outer.depth == 0
        assert [m.depth for m in mids] == [1, 1]
        assert inner.depth == 2
        tree = SpanTree(tracer.records)
        # Finish order: inner=0, mid=1, mid=2, outer=3.
        assert tree.roots == [3]
        assert tree.children == [[], [0], [], [1, 2]]

    def test_children_finish_before_parents(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [r.name for r in tracer.records] == ["b", "a"]
        assert SpanTree(tracer.records).roots == [1]

    def test_wall_time_measures_elapsed(self):
        tracer = SpanTracer()
        with tracer.span("sleep"):
            time.sleep(0.01)
        record = tracer.records[0]
        assert record.wall_s >= 0.009
        assert record.cpu_s >= 0.0
        # Sleeping burns wall clock, not CPU.
        assert record.cpu_s < record.wall_s

    def test_parent_wall_covers_children(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.005)
        inner, outer = tracer.records
        assert outer.wall_s >= inner.wall_s

    def test_on_finish_callback_sees_resolved_records(self):
        seen = []
        tracer = SpanTracer(on_finish=lambda r: seen.append(r.name))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert seen == ["b", "a"]

    def test_sequential_roots(self):
        tracer = SpanTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        tree = SpanTree(tracer.records)
        assert tree.roots == [0, 1]
        assert tree.children == [[], []]


def _record(name, depth, wall):
    return SpanRecord(name=name, depth=depth, wall_s=wall, cpu_s=wall)


class TestSpanTree:
    def test_stored_parent_is_ignored(self):
        events = [
            {"event": "span", "name": "leaf", "depth": 1, "parent": -1,
             "wall_s": 1.0},
            {"event": "round"},
            {"event": "span", "name": "root", "depth": 0, "parent": -1,
             "wall_s": 3.0},
        ]
        tree = SpanTree.from_events(events)
        assert tree.roots == [1]
        assert tree.children == [[], [0]]

    def test_unfinished_parent_leaves_its_children_as_roots(self):
        # A trace cut mid-span holds children whose parent never closed.
        tree = SpanTree([_record("a", 1, 1.0), _record("b", 1, 1.0)])
        assert tree.roots == [0, 1]

    def test_by_path_merges_repeated_subtrees(self):
        records = []
        for _ in range(3):
            records += [
                _record("mwis", 2, 1.0),
                _record("mwis", 2, 1.0),
                _record("stage1", 1, 3.0),
                _record("solve", 0, 4.0),
            ]
        paths = SpanTree(records).by_path()
        assert list(paths) == [
            ("solve",),
            ("solve", "stage1"),
            ("solve", "stage1", "mwis"),
        ]
        assert [t.count for t in paths.values()] == [3, 3, 6]
        assert [t.self_s for t in paths.values()] == [3.0, 3.0, 6.0]

    def test_by_path_is_preorder_when_children_appear_late(self):
        records = [
            _record("a", 1, 1.0),
            _record("root", 0, 2.0),
            _record("b", 1, 1.0),
            _record("deep", 2, 1.0),
            _record("a", 1, 2.0),
            _record("root", 0, 5.0),
        ]
        assert list(SpanTree(records).by_path()) == [
            ("root",),
            ("root", "a"),
            ("root", "a", "deep"),
            ("root", "b"),
        ]

    def test_span_event_round_trips(self):
        record = SpanRecord("stage1", 1, 0.25, 0.125, start_s=9.5)
        event = span_event(record)
        assert set(event) == {
            "event", "name", "depth", "wall_s", "cpu_s", "start_s",
        }
        assert SpanTree.from_events([event]).records == [record]


#: A span program: a list of (name, child program) pairs run in order.
_PROGRAMS = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), children), max_size=3
    ),
    max_leaves=24,
)


def _run_program(recorder, program):
    for name, children in program:
        with recorder.span(name):
            _run_program(recorder, children)


def _shape(tree, indices):
    return [
        (tree.records[i].name, _shape(tree, tree.children[i]))
        for i in indices
    ]


def _subtree_self(tree, index):
    return tree.self_s[index] + sum(
        _subtree_self(tree, child) for child in tree.children[index]
    )


class TestSpanTreeProperty:
    @settings(max_examples=60, deadline=None)
    @given(program=_PROGRAMS)
    def test_records_events_and_jsonl_build_one_tree(self, program):
        sink = ListEventSink()
        recorder = Recorder(events=sink, spans=SpanTracer())
        _run_program(recorder, program)
        jsonl = io.StringIO(
            "".join(json.dumps(event) + "\n" for event in sink.events)
        )
        trees = [
            SpanTree(recorder.spans.records),
            SpanTree.from_events(sink.events),
            SpanTree.from_events(load_events(jsonl)),
        ]
        for tree in trees:
            assert _shape(tree, tree.roots) == program
            assert tree.records == trees[0].records
            assert tree.self_s == trees[0].self_s
            for root in tree.roots:
                assert _subtree_self(tree, root) == pytest.approx(
                    tree.records[root].wall_s, rel=1e-9, abs=1e-12
                )


class TestNullSpanTracer:
    def test_disabled_and_recordless(self):
        tracer = NullSpanTracer()
        assert tracer.enabled is False
        with tracer.span("anything"):
            with tracer.span("nested"):
                pass
        assert tracer.records == []

    def test_span_is_shared_singleton(self):
        tracer = NullSpanTracer()
        assert tracer.span("a") is tracer.span("b")
