"""Human-readable summaries of a recorder's metrics and spans.

The CLI's ``--metrics`` flag prints this after a command finishes; the
benchmark harness writes the JSON snapshot instead (machine-readable),
so both views come from the same instruments.  The span section is the
recorder's :class:`~repro.obs.spans.SpanTree` aggregated by stack path.
"""

from __future__ import annotations

from typing import List

from repro.obs.metrics import snapshot_quantile
from repro.obs.recorder import Recorder
from repro.obs.spans import SpanTree

__all__ = ["format_metrics_summary", "format_span_tree"]


def format_metrics_summary(recorder: Recorder) -> str:
    """Render counters, gauges, timers, histograms and spans as text.

    Sections with no data are omitted; a fully idle recorder renders to
    ``"(no metrics recorded)"``.
    """
    snapshot = recorder.metrics.snapshot()
    lines: List[str] = []

    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value}")

    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            shown = "-" if value is None else f"{value:g}"
            lines.append(f"  {name:<{width}}  {shown}")

    timers = snapshot.get("timers", {})
    if timers:
        lines.append("timers:")
        width = max(len(name) for name in timers)
        for name, stats in timers.items():
            lines.append(
                f"  {name:<{width}}  n={stats['count']} "
                f"total={stats['total_s']:.6f}s mean={stats['mean_s']:.6f}s "
                f"max={stats['max_s']:.6f}s"
            )

    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name, stats in histograms.items():
            lines.append(
                f"  {name:<{width}}  n={stats['count']} mean={stats['mean']:g} "
                f"min={stats['min']:g} "
                f"p50={snapshot_quantile(stats, 0.5):g} "
                f"p99={snapshot_quantile(stats, 0.99):g} "
                f"max={stats['max']:g}"
            )

    tree = format_span_tree(recorder)
    if tree:
        lines.append("spans (wall / cpu / self):")
        lines.append(tree)

    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def format_span_tree(recorder: Recorder, max_lines: int = 40) -> str:
    """Indented span tree, aggregated by stack path.

    Repeated spans (e.g. one ``stage1.mwis`` per seller per round, or
    one ``two_stage`` per solve) are rolled up into one line per path
    with a count, so the tree stays readable for arbitrarily long runs.
    Each line shows wall, cpu and *self* time (wall minus direct
    children), so the dominant leaf phase is visible without exporting
    the trace.  Siblings keep first-finish order.  At most ``max_lines``
    lines are returned; a truncation marker reports anything dropped.
    """
    lines: List[str] = []
    for path, totals in SpanTree(recorder.spans.records).by_path().items():
        count = f" x{totals.count}" if totals.count > 1 else ""
        lines.append(
            f"{'  ' * len(path)}{totals.name}{count}  "
            f"{totals.wall_s:.6f}s / {totals.cpu_s:.6f}s / {totals.self_s:.6f}s"
        )
    if len(lines) > max_lines:
        dropped = len(lines) - max_lines
        lines = lines[:max_lines] + [f"  ... ({dropped} more span lines)"]
    return "\n".join(lines)
