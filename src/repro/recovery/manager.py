"""Checkpoint/WAL durability for the multi-query engine, and recovery.

SteMs hold all inter-operator state (paper §2.1.4), so a *consistent cut* of
a running fleet is small: the SteM rows and coverage, where each source
stands, and the few items in flight between modules.  A checkpoint — one
synchronous event, :meth:`CheckpointManager.take_checkpoint` — gathers that
cut by walking the engine at an event boundary (nothing is recorded along
the way) and writes it as one :class:`~repro.recovery.snapshot.SnapshotStore`
generation:

* per registry SteM (a table's shared one, or a self-join alias's own), by
  name: schema, rows with their build timestamps, EOT coverage;
* the virtual time, the build-timestamp cursor, admissions, retirements and
  every acknowledged result identity;
* per started query (:meth:`Eddy.cut <repro.core.eddy.Eddy.cut>`): when its
  scans started and each scan's stream position; each index AM's answered
  keys, queued keys and lookups in flight (step, attempt, due time); each
  SteM module's carried set as build timestamps; and every routable held by the
  ready deque, the blocked-offer lists and each module's queue and service
  slot, in order (:func:`~repro.recovery.codec.encode_item`).

Between checkpoints the :class:`~repro.recovery.wal.WriteAheadLog` records
only what the cut cannot know about the time after it: results
acknowledged (``emit``/``emits``) and queries admitted or retired.

:func:`recover_state` reads the latest valid snapshot (torn generations
skipped) plus the WAL tail past its cut (torn tails truncated);
:func:`restore_engine` rebuilds an engine *standing at the cut*: simulator
at the cut's time, counter at the persisted cursor, rows reinstalled through
:meth:`SteM.build <repro.core.stem.SteM.build>` with their original
timestamps, coverage reinstalled, every query admitted once and — if it had
started — put back where it was (:meth:`MultiQueryEngine.resume
<repro.engine.multi.MultiQueryEngine.resume>`).  Admissions and retirements
of the tail are applied at their own virtual times, and each query's
``emit_filter`` suppresses, by identity, the results acknowledged between
cut and crash when the restored run regenerates them.  A directory without a
valid snapshot restores the empty cut at time zero: a fresh run under the
emit filter, the same code path.

Why resuming is right: each event is atomic, so a cut between two events
has no half-done work in it, and the restored dataflow holds exactly the
tuples, SteM contents and TupleState the original held.  What it does
*next* may differ — policy state, destination caches and statistics start
afresh, in-service items restart their service, latency draws are new — but
the paper's constraints (§3: BuildFirst, BounceBack, TimeStamp,
ProbeCompletion) make every routing they allow produce every result exactly
once.  Virtual times after the cut may therefore differ from the
uninterrupted run's; each query's result multiset may not.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ExecutionError
from repro.engine.multi import ChurnEvent, MultiQueryEngine, QueryAdmission
from repro.recovery.codec import (
    canonical_json,
    decode_coverage,
    decode_item,
    decode_row,
    decode_schema,
    decode_value,
    encode_coverage,
    encode_item,
    encode_row,
    encode_schema,
    encode_value,
)
from repro.recovery.codec import query_to_sql
from repro.recovery.snapshot import SnapshotStore
from repro.recovery.wal import WriteAheadLog, replay_wal_file, wal_generations
from repro.storage.row import Row

__all__ = [
    "CheckpointManager",
    "RecoveredState",
    "identity_key",
    "recover_state",
    "restore_engine",
]


def _repr_stable(value) -> bool:
    """True when ``repr`` is already a canonical key for the value.

    Ints and strs repr deterministically and injectively; nested tuples of
    them inherit both properties.  Everything else (floats with NaN/-0.0,
    bool-vs-int shadowing, bytes) must take the tagged-JSON path.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is int or kind is str:
            # type(True) is bool, never int — bools can't slip in here.
            continue
        if kind is tuple:
            stack.extend(item)
            continue
        return False
    return True


def identity_key(tuple_) -> str:
    """Canonical durable key of a result tuple's identity.

    The exactly-once protocol compares identities across process lifetimes,
    so the key must be equal for equal results even when the values are
    hostile (NaN never equals itself in Python, but its encoded text does).
    Identities built purely from ints/strs — the overwhelmingly common case,
    and this runs once per emitted result — take a ``repr`` fast path; the
    two key families cannot collide because an identity is always a tuple,
    so fast keys start with ``(`` and encoded ones with ``[``.
    """
    identity = tuple_.identity()
    if _repr_stable(identity):
        return repr(identity)
    return canonical_json(encode_value(identity))


def _make_emit_filter(remaining: dict[str, int]):
    """An ``Eddy.emit_filter`` suppressing each acked identity N times."""

    def emit_filter(tuple_) -> bool:
        key = identity_key(tuple_)
        count = remaining.get(key, 0)
        if count > 0:
            remaining[key] = count - 1
            return False
        return True

    return emit_filter


# -- recovered-state model ---------------------------------------------------------


@dataclass
class RecoveredTable:
    """One registry SteM's persisted content."""

    #: The SteM's name: ``stem:{table}`` when shared, else a self-join
    #: alias's ``{query_id}:stem:{alias}``.
    name: str
    table: str
    aliases: tuple[str, ...]
    join_columns: tuple[str, ...]
    #: ``(row, build timestamp)`` in the SteM's own storage order.
    rows: list[tuple[Row, float]] = field(default_factory=list)
    scan_complete: set = field(default_factory=set)
    eot_keys: dict = field(default_factory=dict)


@dataclass
class RecoveredAdmission:
    """One logged admission."""

    query_id: str
    sql: str | None
    policy: str
    arrival_time: float
    recoverable: bool = True
    #: Logged in the WAL tail: the query was admitted after the cut.
    after_cut: bool = False


@dataclass
class RecoveredState:
    """Everything :func:`recover_state` reads back from a checkpoint dir."""

    directory: str
    #: Virtual time of the cut (0.0 for the empty cut).
    cut_time: float = 0.0
    #: SteM name -> its persisted content.
    tables: dict[str, RecoveredTable] = field(default_factory=dict)
    #: Every logged admission, in log order (cut first, then the tail).
    admissions: list[RecoveredAdmission] = field(default_factory=list)
    #: Query id -> retirement virtual time (cut and tail alike).
    retired: dict[str, float] = field(default_factory=dict)
    #: The retirements logged in the WAL tail, i.e. after the cut.
    retired_after_cut: set[str] = field(default_factory=set)
    #: Query id -> the still-encoded cut of each query started by the cut.
    queries: dict[str, dict] = field(default_factory=dict)
    #: Query id -> {identity key: acknowledged count}, cut and tail alike.
    emitted: dict[str, dict[str, int]] = field(default_factory=dict)
    #: The acknowledgements of the WAL tail alone: what a restored run will
    #: regenerate and must suppress.
    tail_acks: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Query id -> {"labels": [...], "rows": [(...), ...]} — the aggregate
    #: output the last snapshot observed.  Verification data only: restores
    #: re-derive aggregate state from the rebuilt SteMs.
    aggregates: dict[str, dict] = field(default_factory=dict)
    next_timestamp: int = 1
    #: Diagnostics: torn WAL lines truncated, torn snapshots skipped.
    torn_wal_records: int = 0
    torn_snapshots: int = 0
    snapshot_seq: int | None = None

    def total_emitted(self) -> int:
        return sum(sum(c.values()) for c in self.emitted.values())

    def total_tail_acks(self) -> int:
        return sum(sum(c.values()) for c in self.tail_acks.values())

    def cut_counts(self) -> dict[str, int]:
        """What the cut holds in flight, summed over its queries."""
        counts = dict.fromkeys(
            ("ready", "blocked", "queued", "in_service", "queued_keys", "lookups_in_flight"), 0
        )
        for query in self.queries.values():
            counts["ready"] += len(query["ready"])
            counts["blocked"] += sum(len(items) for items in query["blocked"].values())
            for module in query["modules"].values():
                counts["queued"] += len(module["queue"])
                counts["in_service"] += module["in_service"] is not None
                if module["kind"] == "index_am":
                    _, queued, in_flight = decode_value(module["state"])
                    counts["queued_keys"] += len(queued)
                    counts["lookups_in_flight"] += len(in_flight)
        return counts


def _encode_stem(stem) -> dict:
    """One registry SteM in the snapshot form."""
    schema = stem.row_schema
    return {
        "name": stem.name,
        "t": stem.table,
        "aliases": list(stem.aliases),
        "join": list(stem.join_columns),
        "schema": None if schema is None else encode_schema(schema),
        "rows": [[encode_row(row), timestamp] for row, timestamp in stem.state_entries()],
        "coverage": encode_coverage(*stem.coverage_state()),
    }


def _decode_stem(encoded: dict) -> RecoveredTable:
    """Invert :func:`_encode_stem`."""
    table = encoded["t"]
    schema = None if encoded["schema"] is None else decode_schema(encoded["schema"])
    scan_complete, eot_keys = decode_coverage(encoded["coverage"])
    return RecoveredTable(
        name=encoded["name"],
        table=table,
        aliases=tuple(encoded["aliases"]),
        join_columns=tuple(encoded["join"]),
        rows=[
            (decode_row(row, table, schema), float(timestamp))
            for row, timestamp in encoded["rows"]
        ],
        scan_complete=scan_complete,
        eot_keys=eot_keys,
    )


def _install_stem(stem, recovered: RecoveredTable) -> None:
    """Rows (through ``build``, original timestamps and order) and coverage."""
    for row, timestamp in recovered.rows:
        stem.build(row, timestamp)
    stem.restore_coverage(recovered.scan_complete, recovered.eot_keys)


def _map_cut(cut: dict, item, state) -> dict:
    """A query's cut (:meth:`~repro.core.eddy.Eddy.cut`, live or encoded)
    with every routable through ``item`` and every module's state through
    ``state``."""
    modules = {}
    for name, held in cut["modules"].items():
        in_service = held["in_service"]
        modules[name] = {
            "kind": held["kind"],
            "in_service": None if in_service is None else item(in_service),
            "queue": [item(queued) for queued in held["queue"]],
            "state": state(held["state"]),
        }
    return {
        "started_at": cut["started_at"],
        "ready": [item(ready) for ready in cut["ready"]],
        "blocked": {
            name: [item(blocked) for blocked in items]
            for name, items in cut["blocked"].items()
        },
        "modules": modules,
    }


def _resume_query(engine: MultiQueryEngine, query_id: str, encoded: dict, catalog) -> None:
    """Decode one query's cut against its freshly admitted eddy and resume it."""
    eddy = engine.eddy_of(query_id)

    def schema_of(table):
        return catalog.table(table).schema

    engine.resume(
        query_id,
        _map_cut(
            encoded,
            lambda item: decode_item(item, eddy.layout, schema_of, eddy.modules),
            decode_value,
        ),
    )


# -- the checkpoint manager --------------------------------------------------------


class CheckpointManager:
    """Write-ahead + snapshot durability attached to one live engine.

    Use :meth:`attach`; the constructor wires nothing.  One manager per
    engine, one engine incarnation per WAL generation.
    """

    def __init__(
        self,
        engine: MultiQueryEngine,
        directory: str,
        interval: float | None = None,
        retain: int = 2,
        commit_latency: float = 0.25,
    ):
        if commit_latency < 0:
            raise ExecutionError(
                f"commit_latency must be >= 0, got {commit_latency}"
            )
        if interval is not None and interval <= 0:
            raise ExecutionError(
                f"checkpoint_interval must be > 0, got {interval}"
            )
        self.engine = engine
        self.directory = directory
        self.interval = interval
        self.snapshots = SnapshotStore(directory, retain=retain)
        generations = wal_generations(directory)
        self.generation = generations[-1][0] + 1 if generations else 1
        self.wal = WriteAheadLog(
            os.path.join(directory, f"wal-{self.generation:06d}.log"),
            group_commit=True,
        )
        #: Group-commit window in *virtual* seconds: durable records wait
        #: at most this long before their shared flush (0 = same instant).
        self.commit_latency = commit_latency
        #: True while a group-commit event is queued.
        self._commit_scheduled = False
        #: In-memory mirror of acknowledged identities (snapshot source).
        self._emitted: dict[str, dict[str, int]] = {}
        #: Admissions observed (for snapshots), in admission order.
        self._admissions: list[RecoveredAdmission] = []
        self._retire_times: dict[str, float] = {}
        self._closed = False
        self.stats: dict[str, Any] = {
            "checkpoints": 0,
            "checkpoint_wall_seconds": 0.0,
            "last_snapshot_bytes": 0,
            "unrecoverable_admissions": 0,
            "wal_records": 0,
        }

    # -- attachment ------------------------------------------------------------

    @classmethod
    def attach(
        cls,
        engine: MultiQueryEngine,
        directory: str,
        interval: float | None = None,
        retain: int = 2,
        commit_latency: float = 0.25,
    ) -> "CheckpointManager":
        """Create a manager and wire it onto the engine's hooks.

        Queries admitted before the attach are logged immediately (their
        eddies get the emission hook); state needs no hook — a checkpoint
        reads it off the engine.  On a restored engine the earlier
        incarnations' acks, and the queries retired before the cut (not
        admitted again), carry over into every later snapshot.
        """
        manager = cls(
            engine,
            directory,
            interval=interval,
            retain=retain,
            commit_latency=commit_latency,
        )
        if (state := engine.recovered_from) is not None:
            gone = {q: t for q, t in state.retired.items() if q not in state.retired_after_cut}
            manager._emitted = {q: dict(counts) for q, counts in state.emitted.items()}
            manager._retire_times = gone
            manager._admissions = [a for a in state.admissions if a.query_id in gone]
        engine.add_admission_listener(manager._on_admit)
        engine.add_retire_listener(manager._on_retire)
        for ctx in engine._queries:
            manager._record_admission(
                ctx.query_id,
                None,
                ctx.query,
                ctx.arrival_time,
                ctx.eddy,
            )
        if interval is not None:
            engine.simulator.schedule(
                interval, manager._checkpoint_tick, label="recovery:checkpoint"
            )
        return manager

    # -- engine listeners ------------------------------------------------------

    def _on_admit(self, query_id, admission, query, start_time, eddy) -> None:
        self._record_admission(query_id, admission, query, start_time, eddy)

    def _record_admission(self, query_id, admission, query, start_time, eddy) -> None:
        sql: str | None
        recoverable = True
        if admission is not None and isinstance(admission.query, str):
            sql = admission.query
        else:
            try:
                sql = query_to_sql(query)
            except ExecutionError:
                sql = None
                recoverable = False
        if eddy.preferences:
            # Preference predicates have no SQL form; the admission runs
            # fine but cannot be re-created from the log.
            recoverable = False
        if not recoverable:
            self.stats["unrecoverable_admissions"] += 1
        record = RecoveredAdmission(
            query_id=query_id,
            sql=sql,
            policy=eddy.policy.name,
            arrival_time=start_time,
            recoverable=recoverable,
        )
        self._admissions.append(record)
        self._append(
            "admit",
            {
                "q": query_id,
                "sql": sql,
                "policy": record.policy,
                "at": start_time,
                "ok": recoverable,
            },
        )
        if eddy.on_emit is not None:
            raise ExecutionError(
                f"eddy {query_id!r} already has an emission hook; "
                "one durability manager per engine"
            )
        eddy.on_emit = self._make_emit_hook(query_id)

    def _make_emit_hook(self, query_id: str):
        def on_emit(tuple_) -> None:
            key = identity_key(tuple_)
            bucket = self._emitted.setdefault(query_id, {})
            bucket[key] = bucket.get(key, 0) + 1
            self.stats["wal_records"] += 1
            self.wal.log_emit(query_id, key)
            if not self._commit_scheduled:
                self._schedule_commit()

        return on_emit

    def _on_retire(self, query_id: str, now: float) -> None:
        self._retire_times[query_id] = now
        self._append("retire", {"q": query_id, "at": now})

    def _append(self, kind: str, body: dict) -> None:
        self.stats["wal_records"] += 1
        self.wal.append(kind, body)

    def _schedule_commit(self) -> None:
        # Group commit: flush once per commit window instead of per
        # durable record, so a burst of results shares one write (and,
        # batched into ``emits`` records, one framing).  A crash at an
        # event boundary inside the window merely un-acks the burst,
        # which recovery then re-emits (exactness holds by construction
        # — "acked" is what the flushed WAL says).  The window bounds
        # ack latency in *virtual* time only; no wall clock is traded
        # away.
        self._commit_scheduled = True
        self.engine.simulator.schedule(
            self.commit_latency, self._group_commit, label="recovery:commit"
        )

    def _group_commit(self) -> None:
        self._commit_scheduled = False
        if not self._closed:
            self.wal.flush()

    # -- checkpointing ---------------------------------------------------------

    def _checkpoint_tick(self) -> None:
        self.take_checkpoint()
        # Re-arm only while the run still has work: an unconditional
        # reschedule would keep the simulator from ever quiescing.
        if self.engine.simulator.pending_events > 0 and self.interval is not None:
            self.engine.simulator.schedule(
                self.interval, self._checkpoint_tick, label="recovery:checkpoint"
            )

    def take_checkpoint(self) -> str:
        """Write the engine's consistent cut as a new snapshot generation.

        One synchronous event on the simulator (or a call between two
        events) — routing resumes right after, so a checkpoint never blocks
        the dataflow for more than the single event boundary it occupies,
        and because events are atomic the cut holds no half-done work.  The
        WAL is flushed first so the snapshot's ``wal_position`` cut is on
        durable ground and every acknowledgement so far is in it.  Nothing
        here was recorded along the way: the cut is read off the engine.
        """
        if self._closed:
            raise ExecutionError("the durability manager is closed")
        started = _time.perf_counter()
        self.wal.flush()
        engine = self.engine
        state = {
            "kind": "repro-snapshot",
            "version": 3,
            "wal_gen": self.generation,
            "wal_position": self.wal.position,
            "time": engine.simulator.now,
            "next_timestamp": engine.next_build_timestamp,
            "tables": [
                _encode_stem(stem)
                for stem in sorted(engine.registry.stems.values(), key=lambda stem: stem.name)
            ],
            "admissions": [
                {
                    "q": a.query_id,
                    "sql": a.sql,
                    "policy": a.policy,
                    "at": a.arrival_time,
                    "ok": a.recoverable,
                }
                for a in self._admissions
            ],
            "retired": dict(self._retire_times),
            "emitted": {q: dict(counts) for q, counts in self._emitted.items()},
            # Queries not yet started hold nothing: they restart from their
            # admission record alone.
            "queries": {
                query_id: _map_cut(eddy.cut(), encode_item, encode_value)
                for query_id in engine.active
                if (eddy := engine.eddy_of(query_id)).started_at is not None
            },
            # Aggregate output is *derived* state (it re-bootstraps from the
            # restored SteM rows), so restores never read this section —
            # it rides along so recovery tests can verify the rebuilt
            # modules against what the lost process had materialised.
            "aggregates": {
                query_id: {
                    "labels": list(entry["labels"]),
                    "rows": [
                        [encode_value(value) for value in row]
                        for row in entry["rows"]
                    ],
                }
                for query_id, entry in sorted(engine.aggregate_snapshot().items())
            },
        }
        path = self.snapshots.write(state)
        self.stats["checkpoints"] += 1
        self.stats["checkpoint_wall_seconds"] += _time.perf_counter() - started
        self.stats["last_snapshot_bytes"] = os.path.getsize(path)
        return path

    # -- lifecycle -------------------------------------------------------------

    def close(self, final_checkpoint: bool = True) -> None:
        """Clean shutdown: final snapshot (cheap resume) and WAL close."""
        if self._closed:
            return
        if final_checkpoint:
            self.take_checkpoint()
        self.wal.close()
        self._closed = True

    def simulate_crash(self) -> int:
        """Crash the durability layer: drop unflushed WAL records, close.

        Returns the number of buffered records lost — exactly what a real
        crash at this instant would lose.
        """
        self._closed = True
        return self.wal.simulate_crash()


# -- recovery ----------------------------------------------------------------------


def recover_state(directory: str) -> RecoveredState:
    """Read a checkpoint directory back into a :class:`RecoveredState`.

    The cut of the latest valid snapshot (torn generations skipped; none at
    all is the empty cut at time zero) plus every WAL record after it, torn
    tails truncated.
    """
    snapshots = SnapshotStore(directory)
    state = RecoveredState(directory=directory)
    snapshot = snapshots.load_latest()
    state.torn_snapshots = snapshots.stats["torn_detected"]
    cut_generation = 0
    cut_position = 0
    if snapshot is not None:
        if snapshot.get("version") != 3:
            raise ExecutionError(
                f"snapshot format {snapshot.get('version')!r} in {directory!r} is not "
                "a consistent cut over registry SteMs (format 3); it cannot be resumed"
            )
        cut_generation = int(snapshot["wal_gen"])
        cut_position = int(snapshot["wal_position"])
        state.snapshot_seq = int(snapshot["snapshot_seq"])
        state.cut_time = float(snapshot["time"])
        state.next_timestamp = int(snapshot["next_timestamp"])
        state.tables = {
            encoded["name"]: _decode_stem(encoded) for encoded in snapshot["tables"]
        }
        for entry in snapshot["admissions"]:
            _apply_wal_record(state, dict(entry, k="admit"), after_cut=False)
        state.retired = {q: float(t) for q, t in snapshot["retired"].items()}
        state.queries = snapshot["queries"]
        state.aggregates = {
            query_id: {
                "labels": tuple(entry["labels"]),
                "rows": [
                    tuple(decode_value(value) for value in row)
                    for row in entry["rows"]
                ],
            }
            for query_id, entry in snapshot["aggregates"].items()
        }
        state.emitted = {
            q: {key: int(count) for key, count in counts.items()}
            for q, counts in snapshot["emitted"].items()
        }
    for generation, path in wal_generations(directory):
        if generation < cut_generation:
            continue
        records, torn = replay_wal_file(path)
        state.torn_wal_records += torn
        start = cut_position if generation == cut_generation else 0
        for record in records[start:]:
            _apply_wal_record(state, record)
    return state


def _apply_wal_record(state: RecoveredState, record: dict, after_cut: bool = True) -> None:
    kind = record.get("k")
    if kind == "admit":
        # A manager attached to a restored engine logs the queries it finds
        # again; the first record of an id is the admission.
        if all(a.query_id != record["q"] for a in state.admissions):
            state.admissions.append(
                RecoveredAdmission(
                    query_id=record["q"],
                    sql=record["sql"],
                    policy=record["policy"],
                    arrival_time=float(record["at"]),
                    recoverable=bool(record["ok"]),
                    after_cut=after_cut,
                )
            )
    elif kind == "retire":
        state.retired[record["q"]] = float(record["at"])
        state.retired_after_cut.add(record["q"])
    elif kind in ("emit", "emits"):
        keys = record["ids"] if kind == "emits" else (record["id"],)
        for bucket in (
            state.emitted.setdefault(record["q"], {}),
            state.tail_acks.setdefault(record["q"], {}),
        ):
            for key in keys:
                bucket[key] = bucket.get(key, 0) + 1
    else:
        raise ExecutionError(f"unknown WAL record kind {kind!r}")


#: The registry owner a restore holds the recovered tables under.  No query
#: has the empty id: ``admit`` names an admission without one ``q<n>``.
_RESTORE_OWNER = ""


def restore_engine(
    source: RecoveredState | str,
    catalog,
    mode: str = "replay",
    churn_events: Sequence[ChurnEvent] = (),
    **engine_kwargs,
) -> MultiQueryEngine:
    """Rebuild a runnable engine standing at the recovered cut.

    Args:
        source: a :class:`RecoveredState` or a checkpoint directory path.
        catalog: the catalog the original engine ran against (sources are
            re-streamed from it; the data plane itself is not checkpointed).
        mode: ``"replay"`` or ``"resume"`` — two names kept for callers that
            pass one; there is one behaviour (see the module docstring).
        churn_events: the original churn schedule, or the part of it the
            log does not reflect — admissions/retirements the lost run never
            reached.  Events whose query id the log already recorded (for
            the same action) are skipped.
        engine_kwargs: engine configuration, which must match the original
            run's (policies come from the admissions themselves).

    Policy state, destination caches, statistics and tuple ids start
    afresh: any routing the constraints allow is a right one, so the
    restored run may order its work differently and still emits every
    result exactly once.  A piece of the cut that cannot be placed (an
    unknown module, alias or predicate id) raises :class:`ExecutionError`.
    """
    if mode not in ("replay", "resume"):
        raise ExecutionError(f"unknown restore mode {mode!r}")
    state = source if isinstance(source, RecoveredState) else recover_state(source)
    engine = MultiQueryEngine(
        [],
        catalog,
        continuous=True,
        timestamp_start=state.next_timestamp,
        start_time=state.cut_time,
        **engine_kwargs,
    )
    engine.recovered_from = state

    def arm_emit_filter(query_id, admission, query, start_time, eddy) -> None:
        # Only the tail: a result acknowledged before the cut left the
        # dataflow before it, and the restored run never produces it again
        # (a bounded SteM may legitimately emit an equal identity anew).
        acked = state.tail_acks.get(query_id)
        if acked:
            eddy.emit_filter = _make_emit_filter(dict(acked))

    engine.add_admission_listener(arm_emit_filter)
    # The restore holds every recovered table under its own owner until the
    # re-admitted queries hold theirs, then lets go: the registry is left
    # owned by the queries alone, as in the run the cut came from.
    for recovered in state.tables.values():
        for alias in recovered.aliases or (recovered.table,):
            stem = engine.registry.stem_for(
                recovered.table,
                alias,
                recovered.join_columns,
                owner=_RESTORE_OWNER,
                name=recovered.name,
            )
        _install_stem(stem, recovered)
    events: list[ChurnEvent] = []
    for admission in state.admissions:
        query_id = admission.query_id
        if query_id in state.retired and query_id not in state.retired_after_cut:
            continue
        if not admission.recoverable or admission.sql is None:
            raise ExecutionError(
                f"admission {query_id!r} was logged as unrecoverable "
                "(preferences or a non-SQL-expressible query); it cannot "
                "be restored"
            )
        entry = QueryAdmission(
            query=admission.sql,
            query_id=query_id,
            policy=admission.policy,
            arrival_time=admission.arrival_time,
        )
        if admission.after_cut:
            events.append(ChurnEvent(admission.arrival_time, "admit", admission=entry))
            continue
        engine.admit(entry)
        if query_id in state.queries:
            _resume_query(engine, query_id, state.queries[query_id], catalog)
    engine.registry.release(_RESTORE_OWNER)
    events.extend(
        ChurnEvent(at, "retire", query_id=query_id)
        for query_id, at in state.retired.items()
        if query_id in state.retired_after_cut
    )
    logged_admits = {a.query_id for a in state.admissions}
    events.extend(
        event
        for event in churn_events
        if not (
            (
                event.action == "admit"
                and event.admission is not None
                and event.admission.query_id in logged_admits
            )
            or (event.action == "retire" and event.query_id in state.retired)
        )
    )
    engine.schedule_churn(sorted(events, key=lambda event: event.time))
    return engine
