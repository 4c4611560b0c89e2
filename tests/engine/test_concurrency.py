"""Concurrent solves in one process must not see each other.

Stage I keeps no process-global path selection, so two-stage solves run
from several threads at once -- each under its own recorder -- must
produce exactly the matchings and event streams of serial runs.  The
markets cover both Stage-I paths: GWMIN and GWMIN2 take the batched SoA
path, GWMAX the per-seller loop.  One more case solves a single freshly
built market from two threads at once, so both race to fill the same
lazily built graph rows.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import numpy as np

from repro.engine import get_solver
from repro.interference.mwis import MwisAlgorithm
from repro.obs import JsonlEventSink, Recorder
from repro.workloads.scenarios import paper_simulation_market

ALGORITHMS = (MwisAlgorithm.GWMIN, MwisAlgorithm.GWMIN2, MwisAlgorithm.GWMAX)


def _market(algorithm):
    return paper_simulation_market(
        150, 8, np.random.default_rng([7, 150]), mwis_algorithm=algorithm
    )


def _solve(market, start=None):
    """One recorded two-stage solve: (coalitions, parsed event stream)."""
    buffer = io.StringIO()
    recorder = Recorder(events=JsonlEventSink(buffer))
    if start is not None:
        start.wait()
    with recorder:
        report = get_solver("two_stage").solve(
            market, recorder=recorder, config={"record_trace": True}
        )
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    for event in events:
        if event["event"] == "engine.solve":
            # A wall-clock reading: differs between any two runs.
            del event["wall_s"]
    coalitions = tuple(
        tuple(sorted(report.matching.coalition(channel)))
        for channel in range(market.num_channels)
    )
    return coalitions, events


def _solve_in_threads(markets):
    """Solve every market in its own thread, all released at once."""
    start = threading.Barrier(len(markets), timeout=60)
    results = [None] * len(markets)
    errors = []

    def worker(index):
        try:
            results[index] = _solve(markets[index], start)
        except Exception as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(len(markets))
    ]
    # Switch threads far more often than the default 5 ms so the solves
    # interleave at fine grain.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return results


def test_threaded_solves_match_serial_runs():
    markets = [_market(algorithm) for algorithm in ALGORITHMS]
    serial = [_solve(market) for market in markets]
    results = _solve_in_threads(markets)
    for algorithm, expected, got in zip(ALGORITHMS, serial, results):
        assert got[0] == expected[0], f"{algorithm.value}: matching differs"
        assert got[1] == expected[1], f"{algorithm.value}: events differ"
        assert any(e["event"] == "stage1.round" for e in got[1])


def test_two_threads_share_one_fresh_market():
    """Two solves of one freshly built market fill its graphs' lazy
    per-row neighbour memos concurrently; both must equal a serial run."""
    expected = _solve(_market(MwisAlgorithm.GWMIN))
    shared = _market(MwisAlgorithm.GWMIN)
    assert all(
        row is None for graph in shared.interference for row in graph._rows
    ), "the shared market must start with cold row memos"
    for got in _solve_in_threads([shared, shared]):
        assert got[0] == expected[0], "matching differs"
        assert got[1] == expected[1], "events differ"
