"""Persistent worker pool + shared-memory tasks: reuse, crashes, leaks."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.analysis.parallel as parallel_mod
from repro.analysis.parallel import parallel_map, shutdown_pools

SHM_DIR = "/dev/shm"


def _shm_snapshot():
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    """Each test starts and ends with no cached pool."""
    shutdown_pools()
    yield
    shutdown_pools()


# Worker functions must live at module level to be picklable.
def _pid(_x: int) -> int:
    return os.getpid()


def _row_sum(index: int, arrays) -> float:
    return float(arrays["matrix"][index].sum())


def _row_sum_checked(index: int, arrays) -> tuple:
    """Row sum plus proof the shared view is read-only in the worker."""
    return (float(arrays["matrix"][index].sum()), arrays["matrix"].flags.writeable)


def _die_once_shared(arg, arrays) -> float:
    """SIGKILL this worker the first time it sees the poison index."""
    index, sentinel = arg
    if index == 2 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), 9)
    return float(arrays["matrix"][index].sum())


class TestPersistentPool:
    def test_workers_are_reused_across_tasks(self):
        # 16 tasks on 2 workers: without reuse this would need 16
        # processes; the pid set proves each worker served many tasks.
        pids = set(parallel_map(_pid, list(range(16)), jobs=2))
        assert 1 <= len(pids) <= 2

    def test_workers_are_reused_across_calls(self):
        first = set(parallel_map(_pid, list(range(8)), jobs=2))
        second = set(parallel_map(_pid, list(range(8)), jobs=2))
        # Same cached executor -> same worker processes, no re-fork
        # between parallel_map calls.
        assert first & second
        assert parallel_mod._POOL is not None

    def test_worker_count_change_rebuilds_pool(self):
        parallel_map(_pid, [0, 1], jobs=2)
        pool_two = parallel_mod._POOL
        parallel_map(_pid, [0, 1, 2], jobs=3)
        assert parallel_mod._POOL is not pool_two
        assert parallel_mod._POOL_WORKERS == 3

    def test_shutdown_pools_is_idempotent(self):
        parallel_map(_pid, [0, 1], jobs=2)
        assert parallel_mod._POOL is not None
        shutdown_pools()
        assert parallel_mod._POOL is None
        shutdown_pools()


class TestSharedMemoryTasks:
    MATRIX = np.arange(20, dtype=np.float64).reshape(5, 4)

    def test_serial_equals_parallel(self):
        shared = {"matrix": self.MATRIX}
        serial = parallel_map(_row_sum, list(range(5)), jobs=1, shared=shared)
        spread = parallel_map(_row_sum, list(range(5)), jobs=2, shared=shared)
        assert serial == spread == [float(row.sum()) for row in self.MATRIX]

    def test_views_read_only_in_both_paths(self):
        shared = {"matrix": self.MATRIX}
        for jobs in (1, 2):
            rows = parallel_map(
                _row_sum_checked, list(range(5)), jobs=jobs, shared=shared
            )
            assert all(not writeable for _, writeable in rows)

    def test_no_leftover_segments_after_sweep(self):
        before = _shm_snapshot()
        parallel_map(
            _row_sum, list(range(5)), jobs=2, shared={"matrix": self.MATRIX}
        )
        assert _shm_snapshot() - before == set()

    def test_sigkilled_worker_recovers_and_leaks_nothing(self, tmp_path):
        # A persistent worker dying mid-sweep must (a) not lose the
        # sweep -- the retry path resubmits the lost tasks to a fresh
        # pool -- and (b) not leak the published segments.
        sentinel = str(tmp_path / "died")
        before = _shm_snapshot()
        items = [(index, sentinel) for index in range(5)]
        results = parallel_map(
            _die_once_shared,
            items,
            jobs=2,
            retry_backoff_s=0.0,
            shared={"matrix": self.MATRIX},
        )
        assert results == [float(row.sum()) for row in self.MATRIX]
        assert os.path.exists(sentinel)
        assert _shm_snapshot() - before == set()

    def test_crash_path_still_unlinks_segments(self, tmp_path):
        # Retry budget exhausted: the sweep fails, but the finally
        # block must still unlink every published segment.
        before = _shm_snapshot()
        items = [(index, str(tmp_path / f"never-{index}")) for index in range(5)]
        with pytest.raises(Exception):
            parallel_map(
                _die_always_shared,
                items,
                jobs=2,
                retries=1,
                retry_backoff_s=0.0,
                shared={"matrix": self.MATRIX},
            )
        assert _shm_snapshot() - before == set()


def _die_always_shared(arg, arrays) -> float:
    index, _sentinel = arg
    if index == 2:
        os.kill(os.getpid(), 9)
    return float(arrays["matrix"][index].sum())
