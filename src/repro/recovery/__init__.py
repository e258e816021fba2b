"""Durability and fault tolerance for the multi-query engine.

The engine is an in-memory continuous-query service; this package makes its
recoverable state survive a crash:

* :mod:`~repro.recovery.codec` — an exact, hostile-value-safe serialization
  layer (tagged JSON: NaN/±inf/-0.0 round-trip via ``float.hex``, big ints,
  bytes, bool-vs-int) plus the CRC-framed record format shared by snapshots
  and the WAL, the dataflow-item codec that carries in-flight tuples with
  their whole TupleState, and the :func:`~repro.recovery.codec.query_to_sql`
  unparser that lets admissions round-trip through the log.
* :mod:`~repro.recovery.wal` — an append-only write-ahead log of what the
  world was told and asked for: admit/retire records (flushed inline) and
  result acknowledgements (group-committed — batched per commit window into
  ``emits`` records and flushed once), with torn-tail detection on replay.
* :mod:`~repro.recovery.snapshot` — atomic checksummed snapshots with
  generation retention: a torn snapshot is detected and recovery falls back
  to the previous generation's cut plus a longer WAL tail.
* :mod:`~repro.recovery.manager` — the :class:`CheckpointManager` that
  writes a *consistent cut* of a live
  :class:`~repro.engine.multi.MultiQueryEngine` at each checkpoint (SteM
  rows and coverage, scan cursors, pending lookups, in-flight tuples) and
  logs acknowledgements and lifecycle in between, plus
  :func:`recover_state` / :func:`restore_engine` which rebuild an engine
  standing at the last cut and resume it, with exactly-once emission.
* :mod:`~repro.recovery.faults` — deterministic fault injection: torn
  snapshot writes and seeded index-lookup failure models for the
  graceful-degradation paths.

The differential crash-recovery oracle that kills a run at an arbitrary
event boundary (``CrashInjector``), restores it from disk and checks
exactly-once results against an uninterrupted run is a test oracle:
``tests/reference/crash_oracle.py``.
"""

from repro.recovery.codec import query_to_sql
from repro.recovery.faults import lookup_fault_model
from repro.recovery.manager import (
    CheckpointManager,
    RecoveredState,
    recover_state,
    restore_engine,
)
from repro.recovery.snapshot import SnapshotStore
from repro.recovery.wal import WriteAheadLog

__all__ = [
    "CheckpointManager",
    "RecoveredState",
    "SnapshotStore",
    "WriteAheadLog",
    "lookup_fault_model",
    "query_to_sql",
    "recover_state",
    "restore_engine",
]
