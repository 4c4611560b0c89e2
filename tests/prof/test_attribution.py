"""Attribution tables: span self-time, function rows, allocation rows.

The profile's span rows are :meth:`SpanTree.by_name` totals; the
records below are in finish order, so the tree derives every parent
from depth alone.
"""

from __future__ import annotations

import dataclasses

from repro.obs.spans import SpanRecord, SpanTree
from repro.prof.attribution import function_table


def _record(name, depth, wall, cpu=None):
    return SpanRecord(
        name=name,
        depth=depth,
        wall_s=wall,
        cpu_s=wall if cpu is None else cpu,
        start_s=0.0,
    )


def _span_rows(records):
    return [
        dataclasses.asdict(totals) for totals in SpanTree(records).by_name()
    ]


class TestSpanTable:
    def test_self_time_subtracts_direct_children_only(self):
        # grandchild(1.0) < child(3.0) < root(10.0): the root's self
        # time excludes the child but not the grandchild (which the
        # child already accounts for).
        records = [
            _record("grandchild", 2, 1.0),
            _record("child", 1, 3.0),
            _record("root", 0, 10.0),
        ]
        rows = {row["name"]: row for row in _span_rows(records)}
        assert rows["root"]["self_s"] == 7.0
        assert rows["child"]["self_s"] == 2.0
        assert rows["grandchild"]["self_s"] == 1.0

    def test_repeated_spans_aggregate_by_name(self):
        records = [
            _record("leaf", 1, 1.0),
            _record("leaf", 1, 2.0),
            _record("root", 0, 5.0),
        ]
        rows = {row["name"]: row for row in _span_rows(records)}
        assert rows["leaf"]["count"] == 2
        assert rows["leaf"]["wall_s"] == 3.0
        assert rows["root"]["self_s"] == 2.0

    def test_sorted_by_descending_self_time(self):
        records = [
            _record("small", 1, 1.0),
            _record("big", 1, 6.0),
            _record("root", 0, 8.0),
        ]
        assert [row["name"] for row in _span_rows(records)] == [
            "big",
            "root",
            "small",
        ]

    def test_clock_skew_never_goes_negative(self):
        # Children measured longer than their parent (clock granularity)
        # must clamp the parent's self time at zero, not below.
        records = [
            _record("child", 1, 5.0),
            _record("root", 0, 4.0),
        ]
        rows = {row["name"]: row for row in _span_rows(records)}
        assert rows["root"]["self_s"] == 0.0

    def test_row_keys_are_the_profile_schema(self):
        (row,) = _span_rows([_record("root", 0, 1.0)])
        assert list(row) == ["name", "count", "wall_s", "cpu_s", "self_s"]

    def test_empty_records(self):
        assert _span_rows([]) == []


class TestFunctionTable:
    def test_rows_from_pstats_mapping(self):
        stats = {
            ("/x/mod.py", 10, "hot"): (3, 3, 0.9, 1.2, {}),
            ("/x/mod.py", 20, "cool"): (1, 1, 0.1, 0.1, {}),
        }
        rows = function_table(stats, top=10)
        assert rows[0]["function"] == "mod.py:10:hot"
        assert rows[0]["calls"] == 3
        assert rows[0]["self_s"] == 0.9
        assert rows[0]["cum_s"] == 1.2

    def test_top_truncates(self):
        stats = {
            ("/x/mod.py", i, f"f{i}"): (1, 1, float(i), float(i), {})
            for i in range(30)
        }
        assert len(function_table(stats, top=5)) == 5
