"""Unit tests for the metrics/span text summaries.

``format_span_tree`` aggregates by stack path and carries a self-time
column (wall minus direct children); these pin the rendering contract
the CLI's ``--metrics`` flag exposes.
"""

from __future__ import annotations

from repro import run_two_stage, toy_example_market
from repro.obs import MetricsRegistry, Recorder
from repro.obs.spans import SpanTracer
from repro.obs.summary import format_metrics_summary, format_span_tree


def _recorder_with_spans():
    recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
    with recorder.span("root"):
        with recorder.span("fast"):
            pass
        with recorder.span("slow"):
            for _ in range(2000):
                pass
        with recorder.span("leaf"):
            pass
        with recorder.span("leaf"):
            pass
    return recorder


class TestFormatSpanTree:
    def test_three_time_columns_per_line(self):
        tree = format_span_tree(_recorder_with_spans())
        for line in tree.splitlines():
            # "name  wall / cpu / self" -- three slash-separated times.
            assert line.count("/") == 2, line

    def test_repeated_spans_roll_up_with_count(self):
        tree = format_span_tree(_recorder_with_spans())
        assert "leaf x2" in tree

    def test_root_self_time_excludes_children(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        with recorder.span("root"):
            with recorder.span("child"):
                for _ in range(2000):
                    pass
        root_line = format_span_tree(recorder).splitlines()[0]
        times = [
            float(part.strip().rstrip("s"))
            for part in root_line.split("  ")[-1].split("/")
        ]
        wall, _cpu, self_s = times
        assert 0.0 <= self_s < wall

    def test_record_order_is_the_default(self):
        tree = format_span_tree(_recorder_with_spans())
        children = [
            line.strip().split()[0]
            for line in tree.splitlines()
            if line.startswith("    ")
        ]
        assert children == ["fast", "slow", "leaf"]

    def test_repeated_solves_print_each_path_once(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        for _ in range(3):
            run_two_stage(toy_example_market(), recorder=recorder)
        lines = format_span_tree(recorder).splitlines()
        labels = [line.split("  ")[-2].strip() for line in lines]
        assert labels == [
            "two_stage x3",
            "stage1 x3",
            "stage1.mwis x12",
            "stage2 x3",
            "stage2.transfer x3",
            "stage2.invitation x3",
        ]
        indents = [len(line) - len(line.lstrip()) for line in lines]
        assert indents == [2, 4, 6, 4, 6, 6]

    def test_truncation_marker(self):
        recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
        for index in range(8):
            with recorder.span(f"span{index}"):
                pass
        tree = format_span_tree(recorder, max_lines=3)
        assert "5 more span lines" in tree

    def test_no_spans_renders_empty(self):
        assert format_span_tree(Recorder()) == ""


class TestFormatMetricsSummary:
    def test_idle_recorder(self):
        assert format_metrics_summary(Recorder()) == "(no metrics recorded)"

    def test_sections_render_with_data(self):
        recorder = _recorder_with_spans()
        recorder.metrics.counter("stage1.rounds").inc(4)
        recorder.metrics.gauge("market.buyers").set(20)
        text = format_metrics_summary(recorder)
        assert "counters:" in text
        assert "stage1.rounds" in text
        assert "spans (wall / cpu / self):" in text

    def test_header_names_the_self_column(self):
        text = format_metrics_summary(_recorder_with_spans())
        assert "spans (wall / cpu / self):" in text
