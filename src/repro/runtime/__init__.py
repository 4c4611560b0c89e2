"""Durable runs: write-ahead checkpointing, resume, and supervision.

A long market simulation is only as useful as its ability to survive the
process hosting it.  This package adds three layers on top of the
deterministic engines in :mod:`repro.dynamic` and :mod:`repro.distributed`:

* :mod:`repro.runtime.checkpoint` -- the storage layer: a *run
  directory* holding a config-hashed manifest, a write-ahead log (one
  fsynced record per epoch/slot), atomic state snapshots, and the run's
  own event trace.
* :mod:`repro.runtime.durable` -- :func:`run_durable`, which executes a
  durable dynamic or distributed-chaos RunSpec while appending to the
  WAL and snapshotting every N steps (``repro dynamic/chaos
  --checkpoint-dir``, reached through :class:`repro.run.Session`).
* :mod:`repro.runtime.resume` -- crash-consistent resume
  (``repro resume RUN_DIR``): reload the latest valid checkpoint,
  truncate the trace and WAL to the snapshot's recorded offsets, replay
  deterministically, and verify the recomputed tail against the WAL.
* :mod:`repro.runtime.supervise` -- a supervised retry runtime: run a
  command under a deadline, detect stalls from WAL progress age, SIGKILL
  and resume from the latest checkpoint with exponential backoff and a
  bounded retry budget.

The determinism contract is what makes all of this sound: every engine
is a pure function of (config, seed), so a run restored from a snapshot
re-produces the *identical* remaining event stream, and a resumed run's
final matching, welfare and canonicalized trace match the uninterrupted
run exactly.
"""

from repro.runtime.checkpoint import CheckpointStore, config_hash
from repro.runtime.durable import run_durable
from repro.runtime.resume import resume_run
from repro.runtime.supervise import (
    RetryPolicy,
    Supervisor,
    registry_progress_age,
    wal_progress_age,
)

__all__ = [
    "CheckpointStore",
    "config_hash",
    "run_durable",
    "resume_run",
    "RetryPolicy",
    "Supervisor",
    "wal_progress_age",
    "registry_progress_age",
]
