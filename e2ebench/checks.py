"""Correctness checks the benchmark applies to every result it times.

Each check returns a list of failure reasons; an empty list means the
result is correct.  The checks recompute what they can from the market
itself (interference, welfare) instead of trusting the program's own
verdicts, and they are exercised against deliberately corrupted results
by :func:`self_test` in every sample process, so a checker that stopped
flagging failures would make the run report ``correct: false``.
"""

from __future__ import annotations

import hashlib
import json
import math


def matching_digest(matching):
    """A stable short digest of a matching's buyer -> channel assignment."""
    text = json.dumps(list(matching.as_assignment()), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def interfering_pairs(market, matching, limit=1):
    """Up to ``limit`` (channel, buyer, buyer) pairs matched together that interfere."""
    found = []
    for channel in range(market.num_channels):
        coalition = matching.coalition(channel)
        graph = market.interference.graph(channel)
        for buyer in sorted(coalition):
            for other in sorted(graph.neighbors(buyer) & coalition):
                if buyer < other:
                    found.append((channel, buyer, other))
                    if len(found) >= limit:
                        return found
    return found


def own_welfare(market, matching):
    """Sum of the matched buyers' utilities, in buyer order."""
    utilities = market.utilities
    total = 0.0
    for buyer, channel in enumerate(matching.as_assignment()):
        if channel is not None:
            total += float(utilities[buyer, channel])
    return total


def check_outcome(market, status, matching, expected_status):
    """Status and feasibility, the checks every workload's result gets."""
    reasons = []
    if status != expected_status:
        reasons.append(f"status {status!r}, expected {expected_status!r}")
    if interfering_pairs(market, matching):
        reasons.append("interfering pair in a coalition")
    return reasons


def check_stages(market, matching, individually_rational, nash_stable, welfare):
    """A solve's matching must be feasible, IR, Nash-stable and scored right."""
    reasons = []
    if interfering_pairs(market, matching):
        reasons.append("interfering pair in a coalition")
    if individually_rational is not True:
        reasons.append("not individually rational")
    if nash_stable is not True:
        reasons.append("not Nash-stable")
    own = own_welfare(market, matching)
    if not math.isclose(own, welfare, rel_tol=1e-12, abs_tol=1e-9):
        reasons.append(f"welfare {welfare} != recomputed {own}")
    return reasons


def check_solve(market, report):
    """A two-stage ``SolveReport``, checked like the traced path's stages."""
    if report.matching is None:
        return ["no matching"]
    reasons = check_stages(
        market,
        report.matching,
        report.individually_rational,
        report.nash_stable,
        report.social_welfare,
    )
    if report.status != "ok":
        reasons.append(f"status {report.status!r}, expected 'ok'")
    return reasons


def check_protocol(market, result):
    """A chaos protocol run must converge to an interference-free matching."""
    return check_outcome(market, result.status, result.matching, "converged")


def sweep_rows(rows):
    """Figure rows as plain data (x plus each series' mean), for equality checks."""
    return [
        [row.x, {name: stats.mean for name, stats in sorted(row.series.items())}]
        for row in rows
    ]


def check_sweep_rows(rows):
    """Indices of Fig. 7 rows whose cumulative welfare is not monotone."""
    bad = []
    for index, row in enumerate(rows):
        series = row.series
        stage1 = series["welfare_stage1"].mean
        phase1 = series["welfare_phase1"].mean
        phase2 = series["welfare_phase2"].mean
        if not stage1 <= phase1 <= phase2:
            bad.append(index)
    return bad


def self_test(market, matching, expected_status):
    """Corrupt a real result two ways and confirm the checks count each.

    Returns ``{"interfering_pair": bool, "degraded": bool}``: ``True``
    where the corrupted result was flagged as a failure.
    """
    corrupted = matching.copy()
    for channel in range(market.num_channels):
        edge = next(iter(market.interference.graph(channel).edges()), None)
        if edge is not None:
            for buyer in edge:
                corrupted.move(buyer, channel)
            break
    return {
        "interfering_pair": bool(
            check_outcome(market, expected_status, corrupted, expected_status)
        ),
        "degraded": bool(
            check_outcome(market, "degraded", matching, expected_status)
        ),
    }
