"""Collapsed-stack and speedscope exporters over span events.

These consume the same JSONL span events the trace writer emits
(finish order and depth, no parent link), so the fixtures are
hand-built streams mirroring a two-stage run's shape.
"""

from __future__ import annotations

import json

from repro.trace.export import to_collapsed, to_speedscope


def _span(name, depth, wall):
    return {
        "event": "span",
        "name": name,
        "depth": depth,
        "wall_s": wall,
        "cpu_s": wall,
        "start_s": 0.0,
    }


def _two_stage_events():
    # Finish order: children before parents, exactly as the tracer
    # records them.
    return [
        {"event": "run_started", "kind": "two_stage"},
        _span("stage1.mwis", 2, 0.004),
        _span("stage1.mwis", 2, 0.006),
        _span("stage1", 1, 0.012),
        _span("stage2", 1, 0.003),
        _span("two_stage", 0, 0.016),
    ]


class TestCollapsed:
    def test_stacks_carry_self_time_in_microseconds(self):
        lines = dict(
            line.rsplit(" ", 1)
            for line in to_collapsed(_two_stage_events()).splitlines()
        )
        assert lines == {
            "two_stage;stage1;stage1.mwis": "10000",
            "two_stage;stage1": "2000",
            "two_stage;stage2": "3000",
            "two_stage": "1000",
        }

    def test_output_is_sorted_and_newline_terminated(self):
        text = to_collapsed(_two_stage_events())
        assert text.endswith("\n")
        assert text.splitlines() == sorted(text.splitlines())

    def test_non_span_events_ignored_and_empty_is_empty(self):
        assert to_collapsed([]) == ""
        assert to_collapsed([{"event": "round", "index": 1}]) == ""

    def test_deterministic_across_calls(self):
        assert to_collapsed(_two_stage_events()) == to_collapsed(
            _two_stage_events()
        )


class TestSpeedscope:
    def test_schema_shape(self):
        doc = to_speedscope(_two_stage_events())
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        profile = doc["profiles"][doc["activeProfileIndex"]]
        assert profile["type"] == "evented"
        assert profile["unit"] == "seconds"
        # Round-trips through JSON (the artifact is a .json file).
        assert json.loads(json.dumps(doc)) == doc

    def test_events_are_balanced_and_nested(self):
        profile = to_speedscope(_two_stage_events())["profiles"][0]
        depth = 0
        last_at = profile["startValue"]
        for event in profile["events"]:
            assert event["at"] >= last_at  # monotonically ordered
            last_at = event["at"]
            depth += 1 if event["type"] == "O" else -1
            assert depth >= 0
        assert depth == 0
        assert profile["endValue"] == profile["events"][-1]["at"]

    def test_layout_synthesised_from_tree_not_timestamps(self):
        shifted = _two_stage_events()
        for event in shifted:
            if event.get("event") == "span":
                event["start_s"] = 12345.0  # arbitrary real clock
        assert to_speedscope(shifted) == to_speedscope(_two_stage_events())

    def test_frames_deduplicate_repeated_spans(self):
        frames = to_speedscope(_two_stage_events())["shared"]["frames"]
        names = [frame["name"] for frame in frames]
        assert names.count("stage1.mwis") == 1
