"""Supervised execution: crash isolation for long exponential scans.

The paper makes every feasibility query NP-/co-NP-hard, so a full race
scan is a long batch of independent exponential searches -- precisely
the workload where one pathological pair can OOM the host and a crash
loses hours of results.  This package keeps the *scan* alive even when
individual searches die:

* :mod:`repro.supervise.pool` -- a worker pool (workers forked from a
  preloaded forkserver, one in-flight pair per worker) that survives
  segfaults, OOM kills and hangs, replacing dead workers and retrying
  their pairs;
* :mod:`repro.supervise.rlimits` -- kernel ``setrlimit`` caps so a
  blown search is killed by the OS instead of taking the host down;
* :mod:`repro.supervise.retry` -- bounded retries with jittered
  exponential backoff;
* :mod:`repro.supervise.checkpoint` -- an append-only, fsync'ed JSONL
  journal of per-pair classifications keyed by a fingerprint of the
  execution + budget, enabling kill-anywhere / ``--resume`` scans.
"""

from repro.supervise.checkpoint import (
    CheckpointJournal,
    JournalError,
    JournalMismatchError,
    pair_count,
    scan_fingerprint,
)
from repro.supervise.pool import CRASH, PoolBootFailure, SupervisedScanner
from repro.supervise.retry import RetryPolicy
from repro.supervise.rlimits import CPU, MEMORY, ResourceLimits

__all__ = [
    "CheckpointJournal",
    "JournalError",
    "JournalMismatchError",
    "pair_count",
    "scan_fingerprint",
    "SupervisedScanner",
    "PoolBootFailure",
    "RetryPolicy",
    "ResourceLimits",
    "CRASH",
    "MEMORY",
    "CPU",
]
