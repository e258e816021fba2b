"""The append-only write-ahead log: what the world was told and asked for.

One WAL file per engine incarnation (``wal-<generation>.log`` inside the
checkpoint directory), one CRC-framed JSON record per line (see
:mod:`repro.recovery.codec`).  The *state* of a run lives in its snapshots
(:mod:`repro.recovery.manager`); the log keeps only what a snapshot cannot
know about the time after it was taken:

==========  ===================================================================
``admit``   a query admitted (SQL text, policy name, arrival time)
``retire``  a query retired (virtual time)
``emits``   one commit window's acknowledgements for one query, batched
            (identity keys in ack order)
==========  ===================================================================

Every record is *durable*: losing one would violate exactly-once (a
re-emitted duplicate) or lose a query, so they define the ack frontier.
``admit``/``retire`` flush inline.  Acks — the hot stream — wait for one
shared flush per commit window (the owner schedules it; see
:data:`~repro.recovery.manager.COMMIT_LATENCY`), batched into ``emits``
records.  "Acked" *is defined by the flushed WAL*, so the window never
breaks exactness: a crash inside it un-acks the burst and recovery
re-emits it.  A WAL written before acks were always batched may also hold
``emit`` records, one ack each (``{"q": query, "id": key}``); recovery
still reads them (:func:`repro.recovery.manager.recover_state`).  The
class keeps its own buffer (rather than relying on the file object's) so a
simulated crash can honestly drop exactly the records a real crash would
lose.
"""

from __future__ import annotations

import os
from typing import Any, Iterator

from repro.errors import ExecutionError
from repro.recovery.codec import frame_record_bytes, parse_record

__all__ = ["WriteAheadLog", "replay_wal_file", "wal_generations"]

#: The record kinds :meth:`WriteAheadLog.append` takes; each flushes inline.
DURABLE_KINDS = frozenset({"admit", "retire"})


def wal_generations(directory: str) -> list[tuple[int, str]]:
    """``(generation, path)`` of every WAL file in the directory, ascending."""
    found: list[tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if name.startswith("wal-") and name.endswith(".log"):
            try:
                generation = int(name[4:-4])
            except ValueError:
                continue
            found.append((generation, os.path.join(directory, name)))
    found.sort()
    return found


def replay_wal_file(path: str) -> tuple[list[dict], int]:
    """Parse every intact record of one WAL file, truncating a torn tail.

    Returns ``(records, torn)`` where ``torn`` counts trailing lines that
    failed framing (a crash mid-append leaves at most a partial final line;
    anything unparseable *after* the last good record is treated as torn and
    dropped — records never follow a torn line, because appends are
    sequential).
    """
    records: list[dict] = []
    torn = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                body = parse_record(line)
                if body is None:
                    torn += 1
                    break
                records.append(body)
    except FileNotFoundError:
        return [], 0
    return records, torn


class WriteAheadLog:
    """One engine incarnation's append-only log.

    Args:
        path: the WAL file (created; appending to an existing incarnation's
            file is a protocol error — each restart opens a new generation).

    :meth:`log_emit` does not flush: it queues the ack and the owner
    flushes once per commit point (the engine uses a virtual-time window,
    so every ack in it shares one write).  Exactness is unaffected —
    "acked" is *defined* by what the flushed WAL holds, so a crash before
    the commit point simply un-acks the batch and recovery re-emits it.
    """

    def __init__(self, path: str):
        self.path = path
        # A raw descriptor: flushes are one os.write each, skipping the
        # TextIOWrapper/BufferedWriter layers on the durable hot path.
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        #: Records framed but not yet flushed — exactly what a crash loses.
        self._buffer: list[bytes] = []
        #: Unmaterialized acknowledgements ``(query_id, identity key)``
        #: awaiting the commit flush (see :meth:`log_emit`).
        self._pending_emits: list[tuple[str, str]] = []
        #: Count of records durably on disk (the snapshot's ``wal_position``).
        self.flushed_records = 0
        #: Total records appended this incarnation (flushed + buffered).
        self.appended_records = 0
        self.stats: dict[str, int] = {"flushes": 0, "durable_appends": 0}
        self._closed = False
        self._crashed = False

    # -- appending -------------------------------------------------------------

    def append(self, kind: str, body: dict[str, Any]) -> None:
        """Append one record and flush it (with any queued acknowledgements).

        Takes ownership of ``body``: the kind tag is written into it in
        place rather than into a copy — every producer builds a fresh dict
        per record, and the copy was measurable on the append hot path.
        """
        if self._closed:
            raise ExecutionError(f"WAL {self.path!r} is closed")
        if kind not in DURABLE_KINDS:
            raise ExecutionError(f"unknown WAL record kind {kind!r}")
        body["k"] = kind
        self._buffer.append(frame_record_bytes(body))
        self.appended_records += 1
        self.stats["durable_appends"] += 1
        self.flush()

    def log_emit(self, query_id: str, key: str) -> None:
        """Log one acknowledged result identity.

        The ack is *not* framed per result: it queues here and the next
        :meth:`flush` materializes one batched ``emits`` record per query
        for the whole commit window — acks are the largest record class
        on shared-plan fleets, so this amortizes the per-record framing
        the same way the commit window amortizes the write.  A queued ack
        is not yet flushed, hence not yet acked, and recovery re-emits it.
        """
        if self._closed:
            raise ExecutionError(f"WAL {self.path!r} is closed")
        self._pending_emits.append((query_id, key))
        self.stats["durable_appends"] += 1

    def flush(self) -> None:
        """Write the buffered records out and flush to the OS."""
        if self._pending_emits:
            # One record per query, identities in ack order.  Queries are
            # independent buckets on replay, so inter-query order within
            # the window is free.
            per_query: dict[str, list[str]] = {}
            for query_id, key in self._pending_emits:
                per_query.setdefault(query_id, []).append(key)
            self._pending_emits.clear()
            for query_id, keys in per_query.items():
                self._buffer.append(
                    frame_record_bytes({"q": query_id, "ids": keys, "k": "emits"})
                )
                self.appended_records += 1
        if not self._buffer:
            return
        os.write(self._fd, b"".join(self._buffer))
        self.flushed_records += len(self._buffer)
        self._buffer.clear()
        self.stats["flushes"] += 1

    @property
    def position(self) -> int:
        """Durable record count — what a snapshot records as its WAL cut."""
        return self.flushed_records

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush everything and close (clean shutdown)."""
        if self._closed:
            return
        self.flush()
        os.close(self._fd)
        self._closed = True

    def simulate_crash(self) -> int:
        """Drop the unflushed buffer and close the file abruptly.

        Models a process crash for the fault-injection harness: everything
        flushed stays on disk, everything buffered is gone.  Returns the
        number of records lost.
        """
        lost = len(self._buffer) + len(self._pending_emits)
        self._buffer.clear()
        self._pending_emits.clear()
        os.close(self._fd)
        self._closed = True
        self._crashed = True
        return lost

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()

    def records(self) -> Iterator[dict]:
        """Parse this file's intact records back (testing/inspection)."""
        records, _ = replay_wal_file(self.path)
        return iter(records)

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path!r}, flushed={self.flushed_records}, "
            f"buffered={len(self._buffer)})"
        )
